module View = Adios_mem.View
module Arena = Adios_mem.Arena

type t = {
  buckets : int; (* power of two *)
  bucket_base : int; (* byte offset of the bucket array *)
  mutable heap_next : int;
  key_bytes : int;
  value_bytes : int;
  key_tail : string; (* the padding every key ends with *)
  mutable keys : int;
}

(* The canonical key/value pair for index [i]:

     key   = "key-"   ^ 12-digit i ^ 'k' padding up to key_bytes
     value = "value-" ^ 12-digit i ^ "-" ^ fill letter ('a' + i mod 26)
             up to value_bytes (truncated when value_bytes < 19)

   The build writes these through reused buffers, and it and the GET by
   index hash a key from its parts ([hash_index]); the GET also compares
   the key part by part where it lies, never materialising it. The
   string-keyed [get]/[put] hash whole strings ([hash]). All of them
   must agree byte for byte — the arena digest and touch-trace tests in
   test_apps pin that. *)
let digits = 12
let max_keys = 1_000_000_000_000 (* 10^digits: keys stay distinct *)
let min_key_bytes = 4 + digits
let key_prefix = "key-"
let value_prefix = "value-"
let key_pad = 'k'

let check_shape ~keys ~key_bytes =
  if key_bytes < min_key_bytes then
    invalid_arg
      (Printf.sprintf "Kvstore: key_bytes %d < %d would truncate keys"
         key_bytes min_key_bytes);
  if keys < 0 || keys > max_keys then
    invalid_arg (Printf.sprintf "Kvstore: keys %d out of range" keys)

let entry_bytes ~key_bytes ~value_bytes = 4 + key_bytes + 4 + value_bytes

let rec pow2_at_least n v = if v >= n then v else pow2_at_least n (v * 2)

let pages_needed ~keys ~key_bytes ~value_bytes =
  check_shape ~keys ~key_bytes;
  let buckets = pow2_at_least (2 * keys) 1024 in
  let bytes =
    (buckets * 8) + (keys * entry_bytes ~key_bytes ~value_bytes) + 4096
  in
  (bytes + 4095) / 4096

(* FNV-1a (63-bit fold of the 64-bit constants). *)
let fnv_basis = 0x2bf29ce484222325
let fnv_step h c = (h lxor c) * 0x100000001b3 land max_int

let hash s =
  let h = ref fnv_basis in
  for p = 0 to String.length s - 1 do
    h := fnv_step !h (Char.code (String.unsafe_get s p))
  done;
  !h

(* [i]'s [digits] decimal digits packed one per nibble; [digit d k] is
   the character code of the digit of weight 10^k. Every user of the
   digits reads them with a shift, never a division. *)
let bcd i =
  let d = ref 0 and n = ref i in
  for k = 0 to digits - 1 do
    d := !d lor ((!n mod 10) lsl (4 * k));
    n := !n / 10
  done;
  !d

let digit d k = Char.code '0' + ((d lsr (4 * k)) land 0xf)

(* The zero-padded digits of [bcd] value [d] at [at..]; positions past
   the end of [b] are dropped (truncated values). *)
let write_digits b ~at d =
  for k = 0 to digits - 1 do
    let p = at + digits - 1 - k in
    if p < Bytes.length b then
      Bytes.unsafe_set b p (Char.unsafe_chr (digit d k))
  done

let write_key b i =
  Bytes.blit_string key_prefix 0 b 0 4;
  write_digits b ~at:4 (bcd i);
  Bytes.fill b min_key_bytes (Bytes.length b - min_key_bytes) key_pad

let write_value b i =
  let len = Bytes.length b in
  let head = String.length value_prefix in
  Bytes.blit_string value_prefix 0 b 0 (if len < head then len else head);
  write_digits b ~at:head (bcd i);
  let dash = head + digits in
  if len > dash then begin
    Bytes.unsafe_set b dash '-';
    Bytes.fill b (dash + 1) (len - dash - 1)
      (Char.unsafe_chr (Char.code 'a' + (i mod 26)))
  end

let key_string t i =
  if i < 0 || i >= max_keys then
    invalid_arg (Printf.sprintf "Kvstore.key_string: index %d out of range" i);
  let b = Bytes.create t.key_bytes in
  write_key b i;
  Bytes.unsafe_to_string b

(* Entry layout: [key_len:u32][key][val_len:u32][value] *)

(* bucket slot [i] holds entry address + 1, or 0 when empty *)
let bucket_addr t i = t.bucket_base + (i * 8)

let read_len view addr = View.read_int view addr land 0xffffffff

let clamp len cap = if len < cap then len else cap

let entry_key t view addr =
  let len = clamp (read_len view addr) t.key_bytes in
  View.read_string view (addr + 4) len

let get t view key =
  let mask = t.buckets - 1 in
  let rec probe i n =
    if n > t.buckets then None
    else begin
      let slot = bucket_addr t (i land mask) in
      let v = View.read_int view slot in
      if v = 0 then None
      else begin
        let addr = v - 1 in
        if String.equal (entry_key t view addr) key then begin
          let len =
            clamp (read_len view (addr + 4 + t.key_bytes)) t.value_bytes
          in
          Some (View.read_string view (addr + 8 + t.key_bytes) len)
        end
        else probe (i + 1) (n + 1)
      end
    end
  in
  probe (hash key) 0

(* --- GET by key index: [get t view (key_string t i)] without building
   the key or copying the value. Same View touches in the same order;
   nothing is kept across a touch (it may suspend the unithread). *)

let prefix_hash = hash key_prefix

let rec hash_digits d k h =
  if k < 0 then h else hash_digits d (k - 1) (fnv_step h (digit d k))

let rec hash_tail n h =
  if n <= 0 then h else hash_tail (n - 1) (fnv_step h (Char.code key_pad))

let hash_index t d =
  hash_tail (t.key_bytes - min_key_bytes)
    (hash_digits d (digits - 1) prefix_hash)

let rec digits_match arena addr d k =
  k < 0
  || Arena.get_u8 arena (addr + digits - 1 - k) = digit d k
     && digits_match arena addr d (k - 1)

let key_matches t arena addr d =
  digits_match arena (addr + 4) d (digits - 1)
  && Arena.equal_string arena addr key_prefix
  && Arena.equal_string arena (addr + min_key_bytes) t.key_tail

let rec probe_index t view d h n =
  if n > t.buckets then -1
  else begin
    let v = View.read_int view (bucket_addr t (h land (t.buckets - 1))) in
    if v = 0 then -1
    else begin
      let addr = v - 1 in
      let klen = clamp (read_len view addr) t.key_bytes in
      View.touch_range view ~addr:(addr + 4) ~len:klen ~write:false;
      if klen = t.key_bytes && key_matches t (View.arena view) (addr + 4) d
      then begin
        let vlen =
          clamp (read_len view (addr + 4 + t.key_bytes)) t.value_bytes
        in
        View.touch_range view ~addr:(addr + 8 + t.key_bytes) ~len:vlen
          ~write:false;
        vlen
      end
      else probe_index t view d (h + 1) (n + 1)
    end
  end

let get_index t view i =
  if i < 0 || i >= max_keys then -1
  else begin
    let d = bcd i in
    probe_index t view d (hash_index t d) 0
  end

let put t view key value =
  let mask = t.buckets - 1 in
  let rec probe i n =
    if n > t.buckets then false
    else begin
      let slot = bucket_addr t (i land mask) in
      let v = View.read_int view slot in
      if v = 0 then false
      else begin
        let addr = v - 1 in
        if String.equal (entry_key t view addr) key then begin
          let cap = read_len view (addr + 4 + t.key_bytes) in
          if String.length value > cap then false
          else begin
            View.write_u64 view
              (addr + 4 + t.key_bytes)
              (Int64.of_int (String.length value));
            View.write_string view (addr + 8 + t.key_bytes) value;
            true
          end
        end
        else probe (i + 1) (n + 1)
      end
    end
  in
  probe (hash key) 0

(* --- build: straight into the arena, no View touches ------------------ *)

let rec empty_slot t arena h =
  let slot = bucket_addr t (h land (t.buckets - 1)) in
  if Arena.get_int arena slot = 0 then slot else empty_slot t arena (h + 1)

(* Append entries [0, n). [key] holds the key template and [values]
   one value template per fill letter, so each entry only rewrites its
   12 digits. Each length goes in as an 8-byte word whose upper half the
   following key or value bytes overwrite, leaving the entry layout's
   4-byte lengths. *)
let fill t arena ~key ~values n =
  for i = 0 to n - 1 do
    let d = bcd i in
    write_digits key ~at:4 d;
    let value = Array.unsafe_get values (i mod 26) in
    write_digits value ~at:(String.length value_prefix) d;
    let addr = t.heap_next in
    let slot = empty_slot t arena (hash_index t d) in
    Arena.set_int arena addr t.key_bytes;
    Arena.write_blob arena (addr + 4) key;
    Arena.set_int arena (addr + 4 + t.key_bytes) t.value_bytes;
    Arena.write_blob arena (addr + 8 + t.key_bytes) value;
    Arena.set_int arena slot (addr + 1);
    t.heap_next <-
      addr + entry_bytes ~key_bytes:t.key_bytes ~value_bytes:t.value_bytes;
    t.keys <- t.keys + 1
  done

let create view ~keys ~key_bytes ~value_bytes =
  check_shape ~keys ~key_bytes;
  let buckets = pow2_at_least (2 * keys) 1024 in
  let t =
    {
      buckets;
      bucket_base = 0;
      heap_next = buckets * 8;
      key_bytes;
      value_bytes;
      key_tail = String.make (key_bytes - min_key_bytes) key_pad;
      keys = 0;
    }
  in
  let key = Bytes.create key_bytes in
  write_key key 0;
  let values =
    Array.init 26 (fun letter ->
        let b = Bytes.create value_bytes in
        write_value b letter;
        b)
  in
  fill t (View.arena view) ~key ~values keys;
  t

let keys t = t.keys
