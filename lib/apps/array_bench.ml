module App = Adios_core.App
module Request = Adios_core.Request
module View = Adios_mem.View
module Arena = Adios_mem.Arena
module Rng = Adios_engine.Rng

let value_of_index i =
  (* a cheap bijective scramble so replies are checkable *)
  Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L

let expected_value = value_of_index

(* Every slot's value, staged one page at a time in [page] and blitted
   into the arena: the stores into [page] stay unboxed, where handing
   the arena one [int64] per slot would box each. The arena is a whole
   number of pages, so every page is full. *)
let fill arena ~page ~pages =
  let per_page = Bytes.length page / 8 in
  for p = 0 to pages - 1 do
    for k = 0 to per_page - 1 do
      Bytes.set_int64_le page (k * 8) (value_of_index ((p * per_page) + k))
    done;
    Arena.write_blob arena (p * Bytes.length page) page
  done

(* CPU budget per request, calibrated so a local hit costs the paper's
   ~1.7 Kcycles end to end (incl. unithread creation, dispatch, reply). *)
let parse_cycles = 600
let finish_cycles = 700

let app ?(pages = 16_384) ?(page_size = App.page_size) () =
  let slots = pages * page_size / 8 in
  let build view =
    fill (View.arena view) ~page:(Bytes.create page_size) ~pages
  in
  let gen rng =
    {
      Request.kind = 0;
      key = Rng.int rng slots;
      req_bytes = 64;
      reply_bytes = 64;
    }
  in
  let handle (ctx : App.ctx) (spec : Request.spec) =
    ctx.App.compute parse_cycles;
    let v = View.read_u64 ctx.App.view (spec.Request.key * 8) in
    if v <> value_of_index spec.Request.key then
      App.bad_request "array_bench: corrupted value at key %d" spec.Request.key;
    ctx.App.checkpoint ();
    ctx.App.compute finish_cycles
  in
  {
    App.name = "array";
    pages;
    page_size;
    build;
    gen;
    handle;
    kinds = [| "GET" |];
  }
