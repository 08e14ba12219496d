module Arena = Adios_mem.Arena
module View = Adios_mem.View
module Rng = Adios_engine.Rng
module Kvstore = Adios_apps.Kvstore
module Scanstore = Adios_apps.Scanstore
module Btree = Adios_apps.Btree
module Tpcc = Adios_apps.Tpcc
module Ivf = Adios_apps.Ivf

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let direct_view ~pages = View.direct (Arena.create ~pages ~page_size:4096)

(* --- kvstore -------------------------------------------------------------- *)

let test_kvstore_get () =
  let keys = 500 in
  let pages = Kvstore.pages_needed ~keys ~key_bytes:50 ~value_bytes:128 in
  let v = direct_view ~pages in
  let kv = Kvstore.create v ~keys ~key_bytes:50 ~value_bytes:128 in
  check_int "keys" keys (Kvstore.keys kv);
  for i = 0 to keys - 1 do
    match Kvstore.get kv v (Kvstore.key_string kv i) with
    | None -> Alcotest.failf "missing key %d" i
    | Some value ->
      check_int "value size" 128 (String.length value);
      check_bool "value tagged" true
        (String.length value > 6 && String.sub value 0 6 = "value-")
  done;
  check_bool "absent key" true (Kvstore.get kv v "nonexistent-key" = None)

let test_kvstore_put () =
  let keys = 100 in
  let pages = Kvstore.pages_needed ~keys ~key_bytes:50 ~value_bytes:64 in
  let v = direct_view ~pages in
  let kv = Kvstore.create v ~keys ~key_bytes:50 ~value_bytes:64 in
  let k = Kvstore.key_string kv 7 in
  check_bool "put" true (Kvstore.put kv v k "short");
  check (Alcotest.option Alcotest.string) "updated" (Some "short")
    (Kvstore.get kv v k);
  check_bool "too long rejected" false
    (Kvstore.put kv v k (String.make 100 'x'));
  check_bool "absent rejected" false (Kvstore.put kv v "missing" "v")

(* The value for index [i] must carry [i]'s 12 digits: a key encoding
   that collides (keys shorter than "key-" + 12 digits used to truncate
   to the same string) hands back another index's value. Too-short keys
   must be rejected up front instead. *)
let prop_kvstore_matches_hashtbl =
  QCheck.Test.make ~name:"kvstore get matches reference" ~count:20
    QCheck.(pair (int_range 10 400) (int_range 8 40))
    (fun (keys, key_bytes) ->
      match Kvstore.pages_needed ~keys ~key_bytes ~value_bytes:32 with
      | exception Invalid_argument _ -> key_bytes < 16
      | pages ->
        let v = direct_view ~pages in
        let kv = Kvstore.create v ~keys ~key_bytes ~value_bytes:32 in
        let ok = ref (key_bytes >= 16) in
        for i = 0 to keys - 1 do
          let tag = Printf.sprintf "value-%012d-" i in
          match Kvstore.get kv v (Kvstore.key_string kv i) with
          | Some value when String.sub value 0 19 = tag -> ()
          | _ -> ok := false
        done;
        !ok)

let test_kvstore_short_keys_rejected () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted key_bytes:10" what
  in
  rejects "pages_needed" (fun () ->
      Kvstore.pages_needed ~keys:100 ~key_bytes:10 ~value_bytes:32);
  rejects "create" (fun () ->
      ignore
        (Kvstore.create (direct_view ~pages:64) ~keys:100 ~key_bytes:10
           ~value_bytes:32))

let test_kvstore_key_encoding () =
  let pages = Kvstore.pages_needed ~keys:10 ~key_bytes:20 ~value_bytes:8 in
  let kv =
    Kvstore.create (direct_view ~pages) ~keys:10 ~key_bytes:20 ~value_bytes:8
  in
  check Alcotest.string "key 77" "key-000000000077kkkk"
    (Kvstore.key_string kv 77);
  check Alcotest.string "key 10^12-1" "key-999999999999kkkk"
    (Kvstore.key_string kv 999_999_999_999)

(* [get_index] must make exactly the touches the string-keyed [get]
   makes, in the same order — faults, and so every simulated number,
   depend on that sequence — and report the length of the value [get]
   returns. [get] is the reference. *)
let test_kvstore_get_index_touches () =
  let run ~keys ~key_bytes ~value_bytes =
    let pages = Kvstore.pages_needed ~keys ~key_bytes ~value_bytes in
    let arena = Arena.create ~pages ~page_size:4096 in
    let kv =
      Kvstore.create (View.direct arena) ~keys ~key_bytes ~value_bytes
    in
    let log = ref [] in
    let view =
      View.make arena ~touch:(fun ~addr ~len ~write ->
          log := (addr, len, write) :: !log)
    in
    let traced f =
      log := [];
      let r = f () in
      (r, List.rev !log)
    in
    (* shrink a few values so the reported length is the stored one *)
    for i = 0 to 9 do
      ignore (Kvstore.put kv view (Kvstore.key_string kv (i * 7)) "short")
    done;
    let chains = ref 0 and misses = ref 0 in
    for i = 0 to keys + 200 do
      let key = Kvstore.key_string kv i in
      let want, want_touches = traced (fun () -> Kvstore.get kv view key) in
      let got, got_touches = traced (fun () -> Kvstore.get_index kv view i) in
      let want_len = match want with Some v -> String.length v | None -> -1 in
      check_int (Printf.sprintf "value length %d" i) want_len got;
      if got_touches <> want_touches then
        Alcotest.failf "index %d: touch sequences differ (%d vs %d touches)" i
          (List.length got_touches) (List.length want_touches);
      if want = None then incr misses;
      (* a hit without collisions touches bucket, key length, key, value
         length and value; a miss without collisions just the bucket *)
      if List.length want_touches > (if want = None then 1 else 5) then
        incr chains
    done;
    check_int "misses" 201 !misses;
    check_bool "probe chains exercised" true (!chains > 0)
  in
  run ~keys:2000 ~key_bytes:50 ~value_bytes:128;
  (* values shorter than "value-" + 12 digits + "-" are truncated *)
  run ~keys:500 ~key_bytes:16 ~value_bytes:10

(* Every registry app's dataset, built on a direct view, byte for byte.
   Builds write the arena directly, bypassing View: a faster build must
   not move one byte, since the faults — and so every simulated number —
   follow the layout. *)
let arena_digests =
  [
    ("array", "5de3af8b8e2c5ff73ccfdbe932b2fe65");
    ("memcached", "b600811c820bdefbd502e3f3c24350ab");
    ("memcached-1024", "2e3f3cf46e97c3f841da48cd0aee7be7");
    ("rocksdb", "ce25a3742f3744d076f9a1e0d6cb0e7c");
    ("rocksdb-scan", "ce25a3742f3744d076f9a1e0d6cb0e7c");
    ("silo", "4e0df84946fa37f952c493f8935a3dda");
    ("faiss", "3b67eee744bd330af62d50e847c59b23");
  ]

let test_registry_arena_digests () =
  check
    Alcotest.(list string)
    "every registry app pinned" Adios_apps.Registry.names
    (List.map fst arena_digests);
  List.iter
    (fun (name, digest) ->
      let app =
        match Adios_apps.Registry.find name with
        | Some mk -> mk ()
        | None -> Alcotest.failf "no app %s" name
      in
      let arena =
        Arena.create ~pages:app.Adios_core.App.pages
          ~page_size:app.Adios_core.App.page_size
      in
      app.Adios_core.App.build (View.direct arena);
      let bytes = Arena.read_string arena 0 (Arena.size_bytes arena) in
      check Alcotest.string name digest
        (Digest.to_hex (Digest.string bytes)))
    arena_digests

(* --- scanstore -------------------------------------------------------------- *)

let test_scanstore_get () =
  let keys = 300 in
  let pages = Scanstore.pages_needed ~keys ~value_bytes:100 in
  let v = direct_view ~pages in
  let st = Scanstore.create v ~keys ~value_bytes:100 in
  check_int "keys" keys (Scanstore.keys st);
  for k = 0 to keys - 1 do
    match Scanstore.get st v k with
    | None -> Alcotest.failf "missing %d" k
    | Some value ->
      check (Alcotest.string) "expected" (Scanstore.expected_value st k) value
  done;
  check_bool "oob low" true (Scanstore.get st v (-1) = None);
  check_bool "oob high" true (Scanstore.get st v keys = None)

let test_scanstore_scan () =
  let keys = 300 in
  let pages = Scanstore.pages_needed ~keys ~value_bytes:64 in
  let v = direct_view ~pages in
  let st = Scanstore.create v ~keys ~value_bytes:64 in
  let seen = ref [] in
  let n = Scanstore.scan st v ~on_row:(fun k _ -> seen := k :: !seen) 50 10 in
  check_int "visited" 10 n;
  check (Alcotest.list Alcotest.int) "keys in order"
    [ 50; 51; 52; 53; 54; 55; 56; 57; 58; 59 ]
    (List.rev !seen);
  (* truncated at the end of the store *)
  let n = Scanstore.scan st v 295 100 in
  check_int "truncated" 5 n;
  let n = Scanstore.scan st v ~on_row:(fun k v' ->
      check (Alcotest.string) "row value" (Scanstore.expected_value st k) v')
      0 3
  in
  check_int "values checked" 3 n

(* --- btree ------------------------------------------------------------------- *)

let test_btree_basic () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  check_int "empty" 0 (Btree.size t);
  check_bool "missing" true (Btree.find t v 5 = None);
  Btree.insert t v ~key:5 ~value:50;
  Btree.insert t v ~key:3 ~value:30;
  Btree.insert t v ~key:9 ~value:90;
  check (Alcotest.option Alcotest.int) "find 5" (Some 50) (Btree.find t v 5);
  check (Alcotest.option Alcotest.int) "find 3" (Some 30) (Btree.find t v 3);
  check (Alcotest.option Alcotest.int) "find 9" (Some 90) (Btree.find t v 9);
  check_bool "absent" true (Btree.find t v 4 = None);
  Btree.insert t v ~key:5 ~value:55;
  check (Alcotest.option Alcotest.int) "overwrite" (Some 55) (Btree.find t v 5);
  check_int "size stable on overwrite" 3 (Btree.size t)

let test_btree_splits () =
  let v = direct_view ~pages:256 in
  let t = Btree.create v ~region_base:0 ~region_pages:256 in
  let n = 5000 in
  for i = 0 to n - 1 do
    (* insertion order designed to hit both leaf and internal splits *)
    let k = (i * 7919) mod 100_000 in
    Btree.insert t v ~key:k ~value:(k * 2)
  done;
  check_bool "grew" true (Btree.height t >= 2);
  check_bool "pages used sane" true (Btree.pages_used t <= 256);
  for i = 0 to n - 1 do
    let k = (i * 7919) mod 100_000 in
    check (Alcotest.option Alcotest.int) "find after splits" (Some (k * 2))
      (Btree.find t v k)
  done

let test_btree_fold_range () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  for k = 0 to 999 do
    Btree.insert t v ~key:k ~value:k
  done;
  let collected =
    Btree.fold_range t v ~lo:100 ~hi:119 ~init:[] ~f:(fun acc ~key ~value:_ ->
        key :: acc)
  in
  check (Alcotest.list Alcotest.int) "range" (List.init 20 (fun i -> 119 - i))
    collected;
  let sum =
    Btree.fold_range t v ~lo:0 ~hi:999 ~init:0 ~f:(fun acc ~key:_ ~value ->
        acc + value)
  in
  check_int "full fold" (999 * 1000 / 2) sum;
  let empty =
    Btree.fold_range t v ~lo:5000 ~hi:6000 ~init:0 ~f:(fun acc ~key:_ ~value:_ ->
        acc + 1)
  in
  check_int "empty range" 0 empty

let test_btree_last_below () =
  let v = direct_view ~pages:64 in
  let t = Btree.create v ~region_base:0 ~region_pages:64 in
  for k = 0 to 499 do
    Btree.insert t v ~key:(k * 2) ~value:k
  done;
  (match Btree.last_below t v 100 with
  | Some (k, _) -> check_int "exact" 100 k
  | None -> Alcotest.fail "missing");
  match Btree.last_below t v 101 with
  | Some (k, _) -> check_int "predecessor" 100 k
  | None -> Alcotest.fail "missing"

let prop_kvstore_updates_match_hashtbl =
  QCheck.Test.make ~name:"kvstore put/get sequence matches Hashtbl" ~count:15
    QCheck.(list_of_size (Gen.int_range 1 200) (pair (int_range 0 49) (int_range 0 25)))
    (fun ops ->
      let keys = 50 in
      let pages = Kvstore.pages_needed ~keys ~key_bytes:20 ~value_bytes:32 in
      let v = direct_view ~pages in
      let kv = Kvstore.create v ~keys ~key_bytes:20 ~value_bytes:32 in
      let reference = Hashtbl.create 64 in
      for i = 0 to keys - 1 do
        match Kvstore.get kv v (Kvstore.key_string kv i) with
        | Some value -> Hashtbl.replace reference i value
        | None -> ()
      done;
      List.iter
        (fun (k, tag) ->
          let key = Kvstore.key_string kv k in
          let value = Printf.sprintf "v-%02d" tag in
          if Kvstore.put kv v key value then Hashtbl.replace reference k value)
        ops;
      Hashtbl.fold
        (fun k value acc ->
          acc && Kvstore.get kv v (Kvstore.key_string kv k) = Some value)
        reference true)

let prop_scan_matches_slice =
  QCheck.Test.make ~name:"scan visits exactly the key slice" ~count:30
    QCheck.(pair (int_range 0 299) (int_range 0 80))
    (fun (start, n) ->
      let keys = 300 in
      let pages = Scanstore.pages_needed ~keys ~value_bytes:24 in
      let v = direct_view ~pages in
      let st = Scanstore.create v ~keys ~value_bytes:24 in
      let seen = ref [] in
      let count = Scanstore.scan st v ~on_row:(fun k _ -> seen := k :: !seen) start n in
      let expected = List.init (min n (keys - start)) (fun i -> start + i) in
      count = List.length expected && List.rev !seen = expected)

module IntMap = Map.Make (Int)

let prop_btree_matches_map =
  QCheck.Test.make ~name:"btree matches Map reference" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 800) (pair (int_range 0 2000) small_nat))
    (fun kvs ->
      let v = direct_view ~pages:256 in
      let t = Btree.create v ~region_base:0 ~region_pages:256 in
      let reference =
        List.fold_left
          (fun m (k, value) ->
            Btree.insert t v ~key:k ~value;
            IntMap.add k value m)
          IntMap.empty kvs
      in
      Btree.size t = IntMap.cardinal reference
      && IntMap.for_all (fun k value -> Btree.find t v k = Some value) reference
      && Btree.find t v 99_999 = None)

(* --- tpcc ----------------------------------------------------------------- *)

let small_tpcc () =
  let cfg =
    {
      Tpcc.warehouses = 1;
      districts_per_w = 2;
      customers_per_d = 30;
      items = 200;
      order_ring = 256;
      lines_ring = 4096;
      preload_orders = 20;
      btree_pages_per_district = 32;
    }
  in
  let pages = Tpcc.pages_needed cfg in
  let v = direct_view ~pages in
  (Tpcc.create v cfg, v, cfg)

let test_tpcc_new_order () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 1 in
  let before = Tpcc.district_next_o_id db v ~w:0 ~d:0 in
  (match Tpcc.new_order db v rng ~w:0 ~d:0 ~c:5 with
  | Tpcc.Committed n -> check_bool "records touched" true (n >= 5)
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  check_int "o_id advanced" (before + 1)
    (Tpcc.district_next_o_id db v ~w:0 ~d:0)

let test_tpcc_payment_balance () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 2 in
  let bal = Tpcc.customer_balance db v ~w:0 ~d:1 ~c:3 in
  let ytd = Tpcc.warehouse_ytd db v ~w:0 in
  (match Tpcc.payment db v rng ~w:0 ~d:1 ~c:3 with
  | Tpcc.Committed _ -> ()
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  let bal' = Tpcc.customer_balance db v ~w:0 ~d:1 ~c:3 in
  let ytd' = Tpcc.warehouse_ytd db v ~w:0 in
  check_bool "balance decreased" true (bal' < bal);
  (* the paid amount moves from the customer to the warehouse ytd *)
  check_int "conservation" (bal - bal') (ytd' - ytd)

let test_tpcc_order_status () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 3 in
  ignore (Tpcc.new_order db v rng ~w:0 ~d:0 ~c:7);
  match Tpcc.order_status db v ~w:0 ~d:0 ~c:7 with
  | Tpcc.Committed n -> check_bool "read order + lines" true (n >= 7)
  | Tpcc.Skipped -> Alcotest.fail "order not found"

let test_tpcc_delivery () =
  let db, v, _ = small_tpcc () in
  match Tpcc.delivery db v ~w:0 with
  | Tpcc.Committed n -> check_bool "delivered preloaded orders" true (n > 0)
  | Tpcc.Skipped -> Alcotest.fail "nothing to deliver"

let test_tpcc_delivery_credits_customer () =
  let db, v, cfg = small_tpcc () in
  ignore cfg;
  (* deliver the oldest order of district 0 and check its customer *)
  let sum_balances () =
    let acc = ref 0 in
    for c = 0 to 29 do
      acc := !acc + Tpcc.customer_balance db v ~w:0 ~d:0 ~c
    done;
    !acc
  in
  let before = sum_balances () in
  (match Tpcc.delivery db v ~w:0 with
  | Tpcc.Committed _ -> ()
  | Tpcc.Skipped -> Alcotest.fail "skipped");
  check_bool "balances credited" true (sum_balances () > before)

let test_tpcc_stock_level () =
  let db, v, _ = small_tpcc () in
  match Tpcc.stock_level db v ~w:0 ~d:0 ~threshold:1000 with
  | Tpcc.Committed n -> check_bool "joined orders and stock" true (n > 20)
  | Tpcc.Skipped -> Alcotest.fail "skipped"

let test_nurand_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Tpcc.nurand rng ~a:1023 ~x:0 ~y:2999 in
    check_bool "bounds" true (v >= 0 && v <= 2999)
  done

let test_tpcc_ticks_fire () =
  let db, v, _ = small_tpcc () in
  let rng = Rng.create 5 in
  let ticks = ref 0 in
  ignore (Tpcc.new_order ~tick:(fun () -> incr ticks) db v rng ~w:0 ~d:0 ~c:1);
  check_bool "per-item ticks" true (!ticks >= 5)

(* --- ivf ------------------------------------------------------------------ *)

let small_ivf () =
  let p =
    { Ivf.vectors = 2000; dim = 16; pad = 16; nlist = 16; nprobe = 4; noise = 10 }
  in
  let pages = Ivf.pages_needed p in
  let v = direct_view ~pages in
  let t = Ivf.create v p ~seed:42 in
  (t, v, p)

let test_ivf_search_sorted () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 6 in
  let q, _ = Ivf.query qs rng in
  let results = Ivf.search t v ~k:10 q in
  check_int "k results" 10 (List.length results);
  let dists = List.map fst results in
  check_bool "sorted" true (List.sort compare dists = dists)

let test_ivf_recall () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 8 in
  let hits = ref 0 and total = 30 in
  for _ = 1 to total do
    let q, _ = Ivf.query qs rng in
    let approx = Ivf.search t v ~k:10 q in
    let exact = Ivf.brute_force t v ~k:10 q in
    match (approx, exact) with
    | (_, a1) :: _, (_, e1) :: _ -> if a1 = e1 then incr hits
    | _ -> Alcotest.fail "empty results"
  done;
  (* clustered data: probing the 4 nearest of 16 lists finds the true
     nearest neighbour almost always *)
  check_bool "recall@1 >= 0.7" true (float_of_int !hits /. float_of_int total >= 0.7)

let test_ivf_true_list_probed () =
  let t, v, _ = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 9 in
  let ok = ref 0 and total = 30 in
  for _ = 1 to total do
    let q, true_list = Ivf.query qs rng in
    let results = Ivf.search t v ~k:5 q in
    (* most results should come from the query's own cluster *)
    let from_true =
      List.length (List.filter (fun (_, id) -> Ivf.list_of_vector t id = true_list) results)
    in
    if from_true >= 3 then incr ok
  done;
  check_bool "cluster structure respected" true
    (float_of_int !ok /. float_of_int total >= 0.7)

let test_ivf_tick_counts_vectors () =
  let t, v, p = small_ivf () in
  let qs = Ivf.query_source t v in
  let rng = Rng.create 10 in
  let q, _ = Ivf.query qs rng in
  let scanned = ref 0 in
  ignore (Ivf.search t v ~tick:(fun n -> scanned := !scanned + n) ~k:10 q);
  (* nprobe lists of ~vectors/nlist entries each *)
  let expected = p.Ivf.nprobe * (p.Ivf.vectors / p.Ivf.nlist) in
  check_int "all probed vectors scanned" expected !scanned

let () =
  Alcotest.run "apps"
    [
      ( "kvstore",
        [
          Alcotest.test_case "get" `Quick test_kvstore_get;
          Alcotest.test_case "put" `Quick test_kvstore_put;
          Alcotest.test_case "short keys rejected" `Quick
            test_kvstore_short_keys_rejected;
          Alcotest.test_case "key encoding" `Quick test_kvstore_key_encoding;
          Alcotest.test_case "get_index touches" `Quick
            test_kvstore_get_index_touches;
          QCheck_alcotest.to_alcotest prop_kvstore_matches_hashtbl;
          QCheck_alcotest.to_alcotest prop_kvstore_updates_match_hashtbl;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "registry arena digests" `Quick
            test_registry_arena_digests;
        ] );
      ( "scanstore",
        [
          Alcotest.test_case "get" `Quick test_scanstore_get;
          Alcotest.test_case "scan" `Quick test_scanstore_scan;
          QCheck_alcotest.to_alcotest prop_scan_matches_slice;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "splits" `Quick test_btree_splits;
          Alcotest.test_case "fold_range" `Quick test_btree_fold_range;
          Alcotest.test_case "last_below" `Quick test_btree_last_below;
          QCheck_alcotest.to_alcotest prop_btree_matches_map;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "new order" `Quick test_tpcc_new_order;
          Alcotest.test_case "payment conservation" `Quick
            test_tpcc_payment_balance;
          Alcotest.test_case "order status" `Quick test_tpcc_order_status;
          Alcotest.test_case "delivery" `Quick test_tpcc_delivery;
          Alcotest.test_case "delivery credits" `Quick
            test_tpcc_delivery_credits_customer;
          Alcotest.test_case "stock level" `Quick test_tpcc_stock_level;
          Alcotest.test_case "nurand bounds" `Quick test_nurand_bounds;
          Alcotest.test_case "ticks" `Quick test_tpcc_ticks_fire;
        ] );
      ( "ivf",
        [
          Alcotest.test_case "search sorted" `Quick test_ivf_search_sorted;
          Alcotest.test_case "recall" `Quick test_ivf_recall;
          Alcotest.test_case "cluster structure" `Quick
            test_ivf_true_list_probed;
          Alcotest.test_case "tick counts" `Quick test_ivf_tick_counts_vectors;
        ] );
    ]
