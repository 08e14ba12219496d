(* Integration tests: miniature end-to-end experiments asserting the
   paper's ordering properties (section 7 of DESIGN.md). *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Summary = Adios_stats.Summary
module Rng = Adios_engine.Rng
module App = Adios_core.App
module Request = Adios_core.Request
module Profiler = Adios_prof.Profiler
module Phase = Adios_prof.Phase

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

let run ?(cfg_tweak = fun c -> c) ?profile system ~load ~requests =
  let cfg = cfg_tweak (Config.default system) in
  Runner.run cfg (small_array ()) ~offered_krps:load ~requests ?profile ()

let test_conservation () =
  List.iter
    (fun sys ->
      let r = run sys ~load:800. ~requests:8000 in
      check_int
        (Config.system_name sys ^ " conservation")
        8000
        (r.Runner.completed + r.Runner.dropped))
    [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let test_no_drops_at_low_load () =
  List.iter
    (fun sys ->
      let r = run sys ~load:300. ~requests:6000 in
      check_int (Config.system_name sys ^ " no drops") 0 r.Runner.dropped;
      check_bool
        (Config.system_name sys ^ " sane latency")
        true
        (r.Runner.e2e.Summary.p50 > 0
        && r.Runner.e2e.Summary.p50 < Adios_engine.Clock.of_us 50.))
    [ Config.Dilos; Config.Dilos_p; Config.Adios; Config.Hermit ]

let test_determinism () =
  let r1 = run Config.Adios ~load:900. ~requests:8000 in
  let r2 = run Config.Adios ~load:900. ~requests:8000 in
  check_int "same p999" r1.Runner.e2e.Summary.p999 r2.Runner.e2e.Summary.p999;
  check_int "same p50" r1.Runner.e2e.Summary.p50 r2.Runner.e2e.Summary.p50;
  check_int "same faults" r1.Runner.faults r2.Runner.faults;
  check (Alcotest.float 1e-9) "same throughput" r1.Runner.achieved_krps
    r2.Runner.achieved_krps

let test_seed_changes_results () =
  let r1 = run Config.Adios ~load:900. ~requests:8000 in
  let r2 =
    run Config.Adios ~load:900. ~requests:8000 ~cfg_tweak:(fun c ->
        { c with Config.seed = 1337 })
  in
  check_bool "different stream" true (r1.Runner.faults <> r2.Runner.faults)

let test_adios_beats_dilos_at_saturation () =
  (* overload both; Adios must push more throughput and a lower tail *)
  let d = run Config.Dilos ~load:2200. ~requests:25_000 in
  let a = run Config.Adios ~load:2200. ~requests:25_000 in
  check_bool "throughput" true
    (a.Runner.achieved_krps > 1.2 *. d.Runner.achieved_krps);
  check_bool "rdma utilization" true (a.Runner.rdma_util > d.Runner.rdma_util)

let test_adios_tail_beats_dilos_at_knee () =
  (* near DiLOS's knee the busy-wait queueing dominates its tail *)
  let d = run Config.Dilos ~load:1450. ~requests:25_000 in
  let a = run Config.Adios ~load:1450. ~requests:25_000 in
  check_bool "p99.9 gap" true
    (float_of_int d.Runner.e2e.Summary.p999
    > 1.5 *. float_of_int a.Runner.e2e.Summary.p999)

let test_dilos_wins_at_full_locality () =
  (* with 100% local memory there is nothing to yield for; the simpler
     busy-wait code path is slightly faster (section 5.1) *)
  let full c = { c with Config.local_ratio = 1.0 } in
  let d = run Config.Dilos ~load:2000. ~requests:15_000 ~cfg_tweak:full in
  let a = run Config.Adios ~load:2000. ~requests:15_000 ~cfg_tweak:full in
  check_int "dilos no faults" 0 d.Runner.faults;
  check_int "adios no faults" 0 a.Runner.faults;
  check_bool "dilos at least as fast" true
    (d.Runner.e2e.Summary.p50 <= a.Runner.e2e.Summary.p50)

let test_hermit_worse_than_dilos () =
  let h = run Config.Hermit ~load:700. ~requests:15_000 in
  let d = run Config.Dilos ~load:700. ~requests:15_000 in
  check_bool "kernel path tail" true
    (h.Runner.e2e.Summary.p999 > 3 * d.Runner.e2e.Summary.p999)

let test_dilos_p_preempts () =
  let p = run Config.Dilos_p ~load:1000. ~requests:10_000 in
  let d = run Config.Dilos ~load:1000. ~requests:10_000 in
  check_bool "preemptions happen" true (p.Runner.preemptions > 0);
  check_int "plain dilos never preempts" 0 d.Runner.preemptions

let test_pf_aware_vs_rr () =
  (* PF-aware dispatching must not be worse than round-robin at the tail
     (Figs. 10e/11e show single-digit-percent improvements) *)
  let rr c = { c with Config.dispatch = Config.Round_robin } in
  let a = run Config.Adios ~load:2000. ~requests:30_000 in
  let b = run Config.Adios ~load:2000. ~requests:30_000 ~cfg_tweak:rr in
  check_bool "pf-aware tail <= rr tail (with slack)" true
    (float_of_int a.Runner.e2e.Summary.p999
    <= 1.10 *. float_of_int b.Runner.e2e.Summary.p999)

let test_polling_delegation_helps () =
  let sync c = { c with Config.tx_mode = Config.Tx_sync_spin } in
  let d = run Config.Adios ~load:2200. ~requests:25_000 in
  let s = run Config.Adios ~load:2200. ~requests:25_000 ~cfg_tweak:sync in
  check_bool "delegation throughput" true
    (d.Runner.achieved_krps >= s.Runner.achieved_krps);
  check_bool "delegation tail" true
    (d.Runner.e2e.Summary.p999 <= s.Runner.e2e.Summary.p999)

(* section 3.4's rejected queueing designs must still be functional and
   show their known pathologies on a busy-waiting system *)
let test_partitioned_hol_blocking () =
  let part c = { c with Config.dispatch = Config.Partitioned } in
  let sq = run Config.Dilos ~load:1200. ~requests:20_000 in
  let pt = run Config.Dilos ~load:1200. ~requests:20_000 ~cfg_tweak:part in
  check_int "partitioned conserves" 20_000
    (pt.Runner.completed + pt.Runner.dropped);
  check_bool "partitioned tail worse than single queue" true
    (pt.Runner.e2e.Summary.p999 > sq.Runner.e2e.Summary.p999)

let test_work_stealing_beats_partitioned () =
  let tweak d c = { c with Config.dispatch = d } in
  let pt =
    run Config.Dilos ~load:1200. ~requests:20_000
      ~cfg_tweak:(tweak Config.Partitioned)
  in
  let ws =
    run Config.Dilos ~load:1200. ~requests:20_000
      ~cfg_tweak:(tweak Config.Work_stealing)
  in
  check_int "stealing conserves" 20_000
    (ws.Runner.completed + ws.Runner.dropped);
  check_bool "stealing rebalances the tail" true
    (ws.Runner.e2e.Summary.p999 <= pt.Runner.e2e.Summary.p999)

let test_queue_drop_path () =
  let tiny c = { c with Config.central_queue_capacity = 16 } in
  let r = run Config.Dilos ~load:2500. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "drops happen" true (r.Runner.dropped > 0);
  check_int "conservation with drops" 15_000
    (r.Runner.completed + r.Runner.dropped)

let test_buffer_drop_path () =
  let tiny c = { c with Config.buffer_count = 32 } in
  let r = run Config.Dilos ~load:2500. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "buffer drops happen" true (r.Runner.dropped > 0);
  check_bool "buffer hwm capped" true (r.Runner.buffer_hwm <= 32);
  check_int "conservation" 15_000 (r.Runner.completed + r.Runner.dropped)

let test_qp_stall_path () =
  let tiny c = { c with Config.qp_depth = 2 } in
  let r = run Config.Adios ~load:1800. ~requests:15_000 ~cfg_tweak:tiny in
  check_bool "qp stalls counted" true (r.Runner.qp_stalls > 0);
  check_int "conservation" 15_000 (r.Runner.completed + r.Runner.dropped)

let test_wakeup_reclaimer_works () =
  let wk c = { c with Config.reclaim = Adios_mem.Reclaimer.Wakeup } in
  let r = run Config.Adios ~load:800. ~requests:10_000 ~cfg_tweak:wk in
  check_int "completes" 10_000 (r.Runner.completed + r.Runner.dropped);
  check_bool "evictions happened" true (r.Runner.evictions > 0)

(* an app where every request touches the same page: faults must
   coalesce instead of issuing duplicate fetches *)
let one_page_app () =
  let base = small_array () in
  {
    base with
    App.name = "one-page";
    gen =
      (fun _rng ->
        { Request.kind = 0; key = 0; req_bytes = 64; reply_bytes = 64 });
  }

let test_fault_coalescing () =
  (* tiny cache so page 0 keeps getting evicted and refetched while
     several unithreads race for it *)
  let cfg =
    {
      (Config.default Config.Adios) with
      Config.local_ratio = 0.002 (* ~4 frames of 2048 pages *);
    }
  in
  let r =
    Runner.run cfg (one_page_app ()) ~offered_krps:2000. ~requests:10_000 ()
  in
  check_bool "coalesced faults observed" true (r.Runner.coalesced > 0);
  check_int "conservation" 10_000 (r.Runner.completed + r.Runner.dropped)

let test_csv_export () =
  let r = run Config.Adios ~load:600. ~requests:6000 in
  let csv = Adios_core.Export.to_csv [ ("Adios", [ r; r ]) ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  check_bool "header" true (List.hd lines = Adios_core.Export.csv_header);
  let cols s = List.length (String.split_on_char ',' s) in
  check_int "column count matches" (cols Adios_core.Export.csv_header)
    (cols (List.nth lines 1));
  check_bool "system column" true
    (String.length (List.nth lines 1) > 5
    && String.sub (List.nth lines 1) 0 5 = "Adios")

let test_memcached_set_mix_writes_back () =
  let app = Adios_apps.Memcached.app ~keys:20_000 ~set_fraction:0.3 () in
  let cfg = Config.default Config.Adios in
  let r = Runner.run cfg app ~offered_krps:400. ~requests:12_000 () in
  check_int "conservation" 12_000 (r.Runner.completed + r.Runner.dropped);
  (* SETs dirty pages; their eviction posts WRITEs to the memory node *)
  check_bool "set summaries present" true
    (List.mem_assoc "SET" r.Runner.kind_summaries)

(* Figs. 2(c)/7(c) come from the profiler's percentile windows *)
let window name (r : Runner.result) band =
  match r.Runner.prof with
  | None -> Alcotest.fail (name ^ ": run did not profile")
  | Some s -> (
    match
      Array.find_opt (fun w -> String.equal w.Profiler.band band)
        s.Profiler.windows
    with
    | Some w -> (s, w)
    | None -> Alcotest.fail (Printf.sprintf "%s: no %s window" name band))

let phase (w : Profiler.band_stats) p = w.Profiler.phase_cycles.(Phase.index p)

let test_breakdown_recorded () =
  let r = run ~profile:true Config.Dilos ~load:1200. ~requests:10_000 in
  let s, w = window "DiLOS" r "P50" in
  check_bool "measured requests" true (s.Profiler.measured > 5000);
  check_bool "p50 spins longer than it computes" true
    (phase w Phase.Busy_wait > phase w Phase.App_compute)

let test_adios_breakdown_has_no_tx_wait () =
  let r = run ~profile:true Config.Adios ~load:1200. ~requests:10_000 in
  let _, w = window "Adios" r "P99" in
  check_int "no busy-wait" 0 (phase w Phase.Busy_wait);
  check_int "no slashed queue" 0 w.Profiler.slashed_queue;
  check_bool "ready wait present" true (phase w Phase.Steal_wait > 0)

(* --- presets over mechanisms --------------------------------------------- *)

(* The preset table: every system is a base preset plus named mechanism
   fields, and nothing else differs. *)
let test_preset_table () =
  let d = Config.default in
  let same name expected actual =
    check_bool (name ^ " preset") true (expected = actual)
  in
  same "DiLOS-P"
    { (d Config.Dilos) with Config.preempt = true; name = "DiLOS-P" }
    (d Config.Dilos_p);
  same "Hermit"
    { (d Config.Dilos) with Config.kernel_path = true; name = "Hermit" }
    (d Config.Hermit);
  same "Steal"
    {
      (d Config.Adios) with
      Config.dispatch = Config.Work_stealing;
      name = "Steal";
    }
    (d Config.Steal);
  check_bool "Adios yields" true ((d Config.Adios).Config.wait = Config.Yield);
  check_bool "DiLOS spins" true ((d Config.Dilos).Config.wait = Config.Spin);
  List.iter
    (fun sys ->
      let label = String.lowercase_ascii (Config.system_name sys) in
      check_bool (label ^ " parses") true (Config.of_name label = Ok sys))
    Config.all;
  check_bool "dilosp parses" true (Config.of_name "dilosp" = Ok Config.Dilos_p);
  check_bool "unknown rejected" true (Result.is_error (Config.of_name "linux"))

(* Preemption under yield: a unithread resumed from its ready queue
   starts a fresh quantum, so the fetch's wire time does not count
   against it. Were the quantum carried across the fault, every
   resumption would be preempted at its next checkpoint and
   preemptions would equal faults. *)
let test_preempt_yield_quantum () =
  let r =
    run Config.Adios ~load:600. ~requests:10_000 ~cfg_tweak:(fun c ->
        { c with Config.preempt = true })
  in
  check_bool "faults taken" true (r.Runner.faults > 1000);
  check_bool "preemptions well below faults" true
    (r.Runner.preemptions < r.Runner.faults / 10);
  check_int "conservation" 10_000 (r.Runner.completed + r.Runner.dropped)

(* Every out-of-range field is rejected by name before a run starts. *)
let test_validate () =
  let base = Config.default Config.Adios in
  let rejects field cfg =
    match Config.validate cfg with
    | () -> Alcotest.failf "%s: accepted" field
    | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "%s named in %S" field msg)
        true
        (String.starts_with ~prefix:("Config.validate: " ^ field ^ " ") msg)
  in
  Config.validate base;
  rejects "workers" { base with Config.workers = 0 };
  rejects "workers" { base with Config.workers = -1 };
  rejects "qp_depth" { base with Config.qp_depth = 0 };
  rejects "buffer_count" { base with Config.buffer_count = 0 };
  rejects "central_queue_capacity"
    { base with Config.central_queue_capacity = 0 };
  rejects "local_ratio" { base with Config.local_ratio = -0.5 };
  rejects "local_ratio" { base with Config.local_ratio = 2.0 };
  rejects "local_ratio" { base with Config.local_ratio = Float.nan };
  rejects "fetch_timeout" { base with Config.fetch_timeout = -1 };
  rejects "fetch_retries" { base with Config.fetch_retries = -1 };
  rejects "prefetch" { base with Config.prefetch = Config.Stride 0 };
  (* the runner validates before it builds anything *)
  match
    Runner.run { base with Config.workers = 0 } (small_array ())
      ~offered_krps:100. ~requests:10 ()
  with
  | (_ : Runner.result) -> Alcotest.fail "Runner.run accepted workers = 0"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "system"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "request conservation" `Quick test_conservation;
          Alcotest.test_case "no drops at low load" `Quick
            test_no_drops_at_low_load;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_results;
        ] );
      ( "paper orderings",
        [
          Alcotest.test_case "adios beats dilos at saturation" `Slow
            test_adios_beats_dilos_at_saturation;
          Alcotest.test_case "adios tail at knee" `Slow
            test_adios_tail_beats_dilos_at_knee;
          Alcotest.test_case "dilos wins at 100% locality" `Quick
            test_dilos_wins_at_full_locality;
          Alcotest.test_case "hermit kernel tail" `Quick
            test_hermit_worse_than_dilos;
          Alcotest.test_case "dilos-p preempts" `Quick test_dilos_p_preempts;
          Alcotest.test_case "pf-aware vs rr" `Slow test_pf_aware_vs_rr;
          Alcotest.test_case "partitioned HOL blocking" `Slow
            test_partitioned_hol_blocking;
          Alcotest.test_case "stealing beats partitioned" `Slow
            test_work_stealing_beats_partitioned;
          Alcotest.test_case "polling delegation" `Slow
            test_polling_delegation_helps;
        ] );
      ( "edge paths",
        [
          Alcotest.test_case "queue drops" `Quick test_queue_drop_path;
          Alcotest.test_case "buffer drops" `Quick test_buffer_drop_path;
          Alcotest.test_case "qp stalls" `Quick test_qp_stall_path;
          Alcotest.test_case "wakeup reclaimer" `Quick
            test_wakeup_reclaimer_works;
          Alcotest.test_case "fault coalescing" `Quick test_fault_coalescing;
        ] );
      ( "presets",
        [
          Alcotest.test_case "preset table" `Quick test_preset_table;
          Alcotest.test_case "preempt + yield restarts the quantum" `Quick
            test_preempt_yield_quantum;
          Alcotest.test_case "validate rejects out-of-range fields" `Quick
            test_validate;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "memcached SET mix" `Quick
            test_memcached_set_mix_writes_back;
          Alcotest.test_case "recorded" `Quick test_breakdown_recorded;
          Alcotest.test_case "adios has no tx wait" `Quick
            test_adios_breakdown_has_no_tx_wait;
        ] );
    ]
