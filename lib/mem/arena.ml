type t = { data : Bytes.t; pages : int; page_size : int }

let create ~pages ~page_size =
  { data = Bytes.make (pages * page_size) '\000'; pages; page_size }

let pages t = t.pages
let page_size t = t.page_size
let size_bytes t = Bytes.length t.data
let page_of_addr t addr = addr / t.page_size

let get_u8 t addr = Char.code (Bytes.get t.data addr)
let set_u8 t addr v = Bytes.set t.data addr (Char.chr (v land 0xff))

let get_u64 t addr = Bytes.get_int64_le t.data addr
let set_u64 t addr v = Bytes.set_int64_le t.data addr v

let get_int t addr = Int64.to_int (get_u64 t addr)
let set_int t addr v = set_u64 t addr (Int64.of_int v)

let read_blob t addr len = Bytes.sub t.data addr len
let write_blob t addr b = Bytes.blit b 0 t.data addr (Bytes.length b)
let blit_string t addr s = Bytes.blit_string s 0 t.data addr (String.length s)
let read_string t addr len = Bytes.sub_string t.data addr len

let rec equal_from data addr s i =
  i >= String.length s
  || Bytes.get data (addr + i) = String.unsafe_get s i
     && equal_from data addr s (i + 1)

let equal_string t addr s = equal_from t.data addr s 0
