(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections 2 and 5). Output is plain rows so EXPERIMENTS.md
   can quote it verbatim.

   Environment knobs:
     ADIOS_BENCH_SCALE   float multiplier on request counts (default 1.0;
                         use 0.2 for a quick pass)
     ADIOS_BENCH_ONLY    comma-separated experiment ids to run
                         (e.g. "fig7,fig10"); default: everything
     ADIOS_BENCH_SEED    integer seed threaded into every simulator RNG
                         (default 42); the same seed replays the same run
                         bit-for-bit
     ADIOS_BENCH_JOBS    worker processes per sweep (default 1); results
                         are identical at any job count *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Report = Adios_core.Report
module Params = Adios_core.Params
module Summary = Adios_stats.Summary
module Clock = Adios_engine.Clock
module Context = Adios_unithread.Context
module Buffer_pool = Adios_unithread.Buffer_pool

let pf = Printf.printf

let scale =
  match Sys.getenv_opt "ADIOS_BENCH_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 1.0)
  | None -> 1.0

let only =
  match Sys.getenv_opt "ADIOS_BENCH_ONLY" with
  | None | Some "" -> []
  | Some s -> String.split_on_char ',' s |> List.map String.trim

let want id = only = [] || List.mem id only
let reqs n = max 2_000 (int_of_float (float_of_int n *. scale))

let bench_seed =
  match Sys.getenv_opt "ADIOS_BENCH_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 42)
  | None -> 42

let jobs =
  match Sys.getenv_opt "ADIOS_BENCH_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* Every experiment derives its config from here, so ADIOS_BENCH_SEED
   reseeds the whole harness: the seed reaches Engine.Rng through
   Config.seed, and a full-scale run replays exactly under the same
   seed. *)
let base_cfg sys = { (Config.default sys) with Config.seed = bench_seed }

let all_systems = [ Config.Hermit; Config.Dilos; Config.Dilos_p; Config.Adios ]

(* Run one (app x systems x loads) sweep through the lib/exp runner:
   points fan out over ADIOS_BENCH_JOBS worker processes. The harness
   seed is pinned onto every point (historical bench behaviour: one
   seed per run, not per point), so results at any job count match a
   sequential run bit-for-bit. [profile] attaches the critical-path
   profiler, which moves no measurement. *)
let sweep ?(cfg_tweak = fun c -> c) ?profile systems app loads ~requests =
  let spec =
    Adios_exp.Spec.
      {
        name = app.Adios_core.App.name;
        systems;
        apps = [ (app.Adios_core.App.name, fun () -> app) ];
        loads;
        requests;
        seed = bench_seed;
        fault = Adios_fault.Injector.none;
        fetch_timeout_us = 0.;
        fetch_retries = 3;
        local_ratio = None;
        workers = None;
        clusters = [ Adios_cluster.Cluster.default ];
      }
  in
  let cfg_tweak c = cfg_tweak { c with Config.seed = bench_seed } in
  let results =
    Adios_exp.Sweep.run ~jobs ~cfg_tweak ?profile
      ~progress:(fun _ r -> Report.result_line r)
      spec
  in
  List.map
    (fun sys ->
      ( Config.system_name sys,
        List.filter_map
          (fun ((p : Adios_exp.Spec.point), r) ->
            if p.Adios_exp.Spec.system = sys then Some r else None)
          results ))
    systems

let nearest_load results target =
  List.fold_left
    (fun best (r : Runner.result) ->
      match best with
      | None -> Some r
      | Some b ->
        if
          abs_float (r.Runner.offered_krps -. target)
          < abs_float (b.Runner.offered_krps -. target)
        then Some r
        else Some b)
    None results

(* ---- Table 1: context switching ------------------------------------- *)

let bechamel_ctx_switch () =
  let open Bechamel in
  let test kind name =
    Test.make ~name (Staged.stage (Context.make_pingpong kind))
  in
  let tests =
    Test.make_grouped ~name:"ctx-switch"
      [ test Context.Unithread "unithread"; test Context.Ucontext "ucontext" ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) ->
        pf "%-28s %8.1f ns/switch (host machine, real effects)\n" name ns
      | _ -> pf "%-28s (no estimate)\n" name)
    results

let table1 () =
  Report.header "Table 1: context-switching mechanisms";
  pf "%-28s %14s %14s\n" "mechanism" "context size" "cycles (model)";
  List.iter
    (fun kind ->
      pf "%-28s %13dB %14d\n"
        (Format.asprintf "%a" Context.pp_kind kind)
        (Context.context_bytes kind)
        (Context.switch_cycles kind))
    [ Context.Unithread; Context.Ucontext ];
  pf "\nhost-measured coroutine ping-pong (Bechamel, OLS):\n";
  bechamel_ctx_switch ()

(* ---- Table 2: workload summary ---------------------------------------- *)

let table2 () =
  Report.header "Table 2: real-world workloads";
  pf "%-16s %-10s %-12s %-12s\n" "application" "type" "workload" "arena";
  let mb app =
    Printf.sprintf "%dMB" (app.Adios_core.App.pages * 4096 / 1024 / 1024)
  in
  let rows =
    [
      (Adios_apps.Memcached.app (), "KVS", "GET");
      (Adios_apps.Rocksdb.app (), "KVS", "GET/SCAN");
      (Adios_apps.Silo.app (), "OLTP", "TPC-C");
      (Adios_apps.Faiss.app (), "VectorDB", "BIGANN-like");
    ]
  in
  List.iter
    (fun (app, typ, wl) ->
      pf "%-16s %-10s %-12s %-12s\n" app.Adios_core.App.name typ wl (mb app))
    rows

(* ---- microbenchmark sweeps (Figs. 2 and 7) ----------------------------- *)

let micro_loads = [ 200.; 600.; 1000.; 1300.; 1450.; 1600.; 2000.; 2400.; 2700. ]
let micro_app () = Adios_apps.Array_bench.app ()

let micro_sweep =
  lazy
    (pf "\n[running microbenchmark sweep: 4 systems x %d load points]\n"
       (List.length micro_loads);
     (* profiled: figs. 2(c)/7(c) print the profiler's percentile windows *)
     sweep ~profile:true all_systems (micro_app ()) micro_loads
       ~requests:(reqs 60_000))

let get_series name =
  match List.assoc_opt name (Lazy.force micro_sweep) with
  | Some rs -> rs
  | None -> []

let fig2 () =
  Report.header "Figure 2: performance analysis of DiLOS (busy-waiting)";
  let dilos = get_series "DiLOS" and dilos_p = get_series "DiLOS-P" in
  Report.latency_vs_load ~title:"fig2(a) P99 e2e latency vs load"
    ~percentile:"p99"
    [ ("DiLOS", dilos); ("DiLOS-P", dilos_p) ];
  (match nearest_load dilos 1300. with
  | Some r -> Report.cdf ~title:"fig2(b) DiLOS latency CDF @ ~1.3 MRPS" r
  | None -> ());
  (match nearest_load dilos 1300. with
  | Some r ->
    Report.breakdown
      ~title:"fig2(c) DiLOS request-handling breakdown @ ~1.3 MRPS (cycles)" r
  | None -> ());
  Report.throughput_vs_load ~title:"fig2(d) DiLOS throughput vs offered load"
    [ ("DiLOS", dilos) ];
  Report.util_vs_load ~title:"fig2(e) DiLOS RDMA link utilization"
    [ ("DiLOS", dilos) ]

let fig7 () =
  Report.header "Figure 7: Hermit vs DiLOS vs DiLOS-P vs Adios (microbench)";
  let series =
    [
      ("Hermit", get_series "Hermit");
      ("DiLOS", get_series "DiLOS");
      ("DiLOS-P", get_series "DiLOS-P");
      ("Adios", get_series "Adios");
    ]
  in
  Report.latency_vs_load ~title:"fig7(a) P99.9 latency vs throughput"
    ~percentile:"p99.9" series;
  Report.latency_vs_load ~title:"fig7(b) P50 latency vs throughput"
    ~percentile:"p50" series;
  (match nearest_load (get_series "Adios") 1300. with
  | Some r ->
    Report.breakdown ~title:"fig7(c) Adios breakdown @ ~1.3 MRPS (cycles)" r
  | None -> ());
  Report.throughput_vs_load ~title:"fig7(d) throughput: DiLOS vs Adios"
    [ ("DiLOS", get_series "DiLOS"); ("Adios", get_series "Adios") ];
  Report.util_vs_load ~title:"fig7(e) RDMA utilization: DiLOS vs Adios"
    [ ("DiLOS", get_series "DiLOS"); ("Adios", get_series "Adios") ];
  Report.summary_speedups ~baseline:"DiLOS" series;
  pf "(raw rows: bin/adios_sweep exports this sweep as CSV; see \
      EXPERIMENTS.md)\n"

let fig8 () =
  Report.header "Figure 8: sensitivity to local DRAM size (array microbench)";
  let ratios = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let loads = [ 1000.; 1500.; 2000.; 2500.; 3000. ] in
  let app = micro_app () in
  List.iter
    (fun sys ->
      List.iter
        (fun ratio ->
          let cfg = { (base_cfg sys) with Config.local_ratio = ratio } in
          let rs =
            List.map
              (fun load ->
                Runner.run cfg app ~offered_krps:load
                  ~requests:(reqs 30_000) ())
              loads
          in
          let peak =
            List.fold_left
              (fun acc (r : Runner.result) ->
                Float.max acc r.Runner.achieved_krps)
              0. rs
          in
          let p99_at_1500 =
            match nearest_load rs 1500. with
            | Some r -> Clock.to_us r.Runner.e2e.Summary.p99
            | None -> 0.
          in
          pf "%-8s local=%3.0f%%  peak=%7.0f krps  P99@1.5M=%8.2f us\n"
            (Config.system_name sys) (100. *. ratio) peak p99_at_1500)
        ratios)
    [ Config.Dilos; Config.Adios ]

let fig9 () =
  Report.header "Figure 9: effect of polling delegation (Adios)";
  let loads = [ 1200.; 1700.; 2100.; 2400.; 2600. ] in
  let app = micro_app () in
  let series =
    [
      ( "Delegation",
        sweep [ Config.Adios ] app loads ~requests:(reqs 40_000)
        |> List.hd |> snd );
      ( "Sync-TX",
        sweep
          ~cfg_tweak:(fun c -> { c with Config.tx_mode = Config.Tx_sync_spin })
          [ Config.Adios ] app loads ~requests:(reqs 40_000)
        |> List.hd |> snd );
    ]
  in
  Report.latency_vs_load ~title:"fig9 P50" ~percentile:"p50" series;
  Report.latency_vs_load ~title:"fig9 P99.9" ~percentile:"p99.9" series;
  let peaks = Report.peak_throughput series in
  List.iter (fun (n, p) -> pf "%-12s peak %7.0f krps\n" n p) peaks

(* ---- real-world applications ------------------------------------------- *)

let app_figure ~id ~title ~app ~loads ~requests ~kinds () =
  Report.header title;
  let series = sweep all_systems app loads ~requests in
  List.iter
    (fun kind ->
      Report.kind_latency_vs_load
        ~title:(Printf.sprintf "%s %s P50 (us)" id kind)
        ~kind ~percentile:"p50" series;
      Report.kind_latency_vs_load
        ~title:(Printf.sprintf "%s %s P99.9 (us)" id kind)
        ~kind ~percentile:"p99.9" series)
    kinds;
  Report.throughput_vs_load ~title:(id ^ " throughput") series;
  Report.summary_speedups ~baseline:"DiLOS" series;
  series

let dispatch_figure ~id ~app ~loads ~requests ~kind () =
  Report.header (id ^ ": PF-aware vs round-robin dispatching (Adios)");
  let series =
    [
      ( "PF-Aware",
        sweep [ Config.Adios ] app loads ~requests |> List.hd |> snd );
      ( "RR",
        sweep
          ~cfg_tweak:(fun c -> { c with Config.dispatch = Config.Round_robin })
          [ Config.Adios ] app loads ~requests
        |> List.hd |> snd );
    ]
  in
  Report.kind_latency_vs_load ~title:(id ^ " P99.9 (us)") ~kind
    ~percentile:"p99.9" series

let memcached_loads = [ 300.; 600.; 800.; 900.; 1000.; 1100. ]

let fig10 () =
  ignore
    (app_figure ~id:"fig10(a,b)"
       ~title:"Figure 10(a,b): Memcached GET, 128B values"
       ~app:(Adios_apps.Memcached.app ~value_bytes:128 ())
       ~loads:memcached_loads ~requests:(reqs 40_000) ~kinds:[ "GET" ] ());
  ignore
    (app_figure ~id:"fig10(c,d)"
       ~title:"Figure 10(c,d): Memcached GET, 1024B values"
       ~app:(Adios_apps.Memcached.app ~value_bytes:1024 ())
       ~loads:memcached_loads ~requests:(reqs 40_000) ~kinds:[ "GET" ] ())

let fig10e () =
  dispatch_figure ~id:"fig10(e)"
    ~app:(Adios_apps.Memcached.app ~value_bytes:128 ())
    ~loads:memcached_loads ~requests:(reqs 40_000) ~kind:"GET" ()

let rocksdb_loads = [ 300.; 500.; 700.; 850.; 1000.; 1150.; 1300. ]

let fig11 () =
  ignore
    (app_figure ~id:"fig11"
       ~title:"Figure 11: RocksDB 99% GET / 1% SCAN(100), 1024B values"
       ~app:(Adios_apps.Rocksdb.app ())
       ~loads:rocksdb_loads ~requests:(reqs 30_000)
       ~kinds:[ "GET"; "SCAN" ] ())

let fig11e () =
  dispatch_figure ~id:"fig11(e)"
    ~app:(Adios_apps.Rocksdb.app ())
    ~loads:rocksdb_loads ~requests:(reqs 30_000) ~kind:"GET" ()

let fig12 () =
  ignore
    (app_figure ~id:"fig12" ~title:"Figure 12: Silo TPC-C"
       ~app:(Adios_apps.Silo.app ())
       ~loads:[ 150.; 300.; 450.; 600.; 750. ]
       ~requests:(reqs 20_000)
       ~kinds:[ "NO"; "PAY"; "SL" ] ())

let fig13 () =
  ignore
    (app_figure ~id:"fig13" ~title:"Figure 13: Faiss IVF-Flat (BIGANN-like)"
       ~app:(Adios_apps.Faiss.app ())
       ~loads:[ 4.; 8.; 12.; 16.; 20. ]
       ~requests:(reqs 2_500)
       ~kinds:[ "QUERY" ] ())

(* ---- ablations ----------------------------------------------------------- *)

let ablate_reclaimer () =
  Report.header
    "Ablation A1: proactive (pinned) vs wakeup reclaimer (section 3.3)";
  (* small local cache and a sluggish wakeup: allocation can outrun
     reclamation, producing out-of-memory stalls in the fault path *)
  let pressured =
    {
      Adios_mem.Reclaimer.default_config with
      Adios_mem.Reclaimer.low_watermark = 0.02;
      high_watermark = 0.03;
      wakeup_delay = Clock.of_us 15.;
    }
  in
  let app = micro_app () in
  List.iter
    (fun mode ->
      let name =
        match mode with
        | Adios_mem.Reclaimer.Proactive -> "proactive"
        | Adios_mem.Reclaimer.Wakeup -> "wakeup"
      in
      List.iter
        (fun load ->
          let cfg =
            {
              (base_cfg Config.Adios) with
              Config.reclaim = mode;
              reclaim_config = pressured;
              local_ratio = 0.05;
            }
          in
          let r = Runner.run cfg app ~offered_krps:load ~requests:(reqs 30_000) () in
          pf
            "%-10s load=%5.0f  p50=%8.2fus  p99.9=%9.2fus  evictions=%d  \
             oom_stalls=%d\n"
            name load
            (Clock.to_us r.Runner.e2e.Summary.p50)
            (Clock.to_us r.Runner.e2e.Summary.p999)
            r.Runner.evictions r.Runner.frame_stalls)
        [ 1500.; 2000.; 2300. ])
    [ Adios_mem.Reclaimer.Proactive; Adios_mem.Reclaimer.Wakeup ]

let ablate_stack () =
  Report.header "Ablation A2: universal stack memory footprint (section 3.2)";
  List.iter
    (fun layout ->
      pf "%-34s %6d B/request  pool(131072) = %5d MB\n"
        layout.Buffer_pool.name
        (Buffer_pool.bytes_per_buffer layout)
        (131_072 * Buffer_pool.bytes_per_buffer layout / 1024 / 1024)
    )
    [ Buffer_pool.unithread_layout; Buffer_pool.shinjuku_layout ];
  let saved =
    131_072
    * (Buffer_pool.bytes_per_buffer Buffer_pool.shinjuku_layout
      - Buffer_pool.bytes_per_buffer Buffer_pool.unithread_layout)
  in
  pf "saved %d MB = %.1f%% of the 8 GB local DRAM cache\n"
    (saved / 1024 / 1024)
    (100. *. float_of_int saved /. (8. *. 1024. *. 1024. *. 1024.))

let prefetch_row name sys pf r scan issued useful wasted =
  Printf.printf
    "%-8s %-7s prefetch=%-10s p50=%8.2fus p99.9=%9.2fus scan_p50=%8.2fus \
     issued=%d useful=%d wasted=%d\n"
    name (Config.system_name sys) (Config.prefetch_name pf)
    (Clock.to_us r.Runner.e2e.Summary.p50)
    (Clock.to_us r.Runner.e2e.Summary.p999)
    scan issued useful wasted

let ablate_prefetch () =
  Report.header
    "Ablation A4: Leap-style stride prefetching (section 2.3 overlap)";
  let cases =
    [
      ("rocksdb", Adios_apps.Rocksdb.app (), 700.);
      ("array", Adios_apps.Array_bench.app (), 1300.);
    ]
  in
  List.iter
    (fun (name, app, load) ->
      List.iter
        (fun sys ->
          List.iter
            (fun pf ->
              let cfg = { (base_cfg sys) with Config.prefetch = pf } in
              let r =
                Runner.run cfg app ~offered_krps:load ~requests:(reqs 25_000) ()
              in
              let issued, useful, wasted = r.Runner.prefetches in
              let scan =
                match List.assoc_opt "SCAN" r.Runner.kind_summaries with
                | Some s -> Clock.to_us s.Summary.p50
                | None -> 0.
              in
              prefetch_row name sys pf r scan issued useful wasted)
            [ Config.No_prefetch; Config.Stride 8 ])
        [ Config.Dilos; Config.Adios ])
    cases

let ablate_dispatch () =
  Report.header
    "Ablation A5: queueing policy (single queue vs d-FCFS vs stealing, \
     section 3.4)";
  let app = Adios_apps.Rocksdb.app () in
  List.iter
    (fun sys ->
      List.iter
        (fun disp ->
          let cfg = { (base_cfg sys) with Config.dispatch = disp } in
          let r = Runner.run cfg app ~offered_krps:850. ~requests:(reqs 25_000) () in
          let get = List.assoc "GET" r.Runner.kind_summaries in
          pf "%-8s %-14s GET p50=%8.2fus  GET p99.9=%9.2fus  achieved=%5.0f\n"
            (Config.system_name sys)
            (Config.dispatch_name disp)
            (Clock.to_us get.Summary.p50)
            (Clock.to_us get.Summary.p999)
            r.Runner.achieved_krps)
        [ Config.Pf_aware; Config.Round_robin; Config.Work_stealing;
          Config.Partitioned ])
    [ Config.Dilos; Config.Adios ]

let ablate_workers () =
  Report.header
    "Ablation A6: single-queue scalability with worker count (section 6)";
  let app = micro_app () in
  List.iter
    (fun workers ->
      let cfg = { (base_cfg Config.Adios) with Config.workers } in
      (* drive each configuration well past its per-worker knee *)
      let load = 350. *. float_of_int workers in
      let r = Runner.run cfg app ~offered_krps:load ~requests:(reqs 40_000) () in
      pf "workers=%2d offered=%5.0f achieved=%5.0f krps  p99.9=%9.2fus\n"
        workers load r.Runner.achieved_krps
        (Clock.to_us r.Runner.e2e.Summary.p999))
    [ 2; 4; 8; 12; 16; 24 ]

let ablate_huge_pages () =
  Report.header
    "Ablation A7: 4KB vs 2MB compute-node pages (I/O amplification, \
     section 5.2 Silo)";
  (* the same array working set, but faulted in 2 MB units: each miss
     drags 512x the bytes over the wire *)
  List.iter
    (fun (label, page_size, pages, load) ->
      let app = Adios_apps.Array_bench.app ~pages ~page_size () in
      let app = { app with Adios_core.App.name = label } in
      let cfg = base_cfg Config.Adios in
      let r = Runner.run cfg app ~offered_krps:load ~requests:(reqs 20_000) () in
      pf "%-10s load=%5.0f achieved=%5.0f krps  p50=%9.2fus  p99.9=%10.2fus  util=%5.1f%%\n"
        label load r.Runner.achieved_krps
        (Clock.to_us r.Runner.e2e.Summary.p50)
        (Clock.to_us r.Runner.e2e.Summary.p999)
        (100. *. r.Runner.rdma_util))
    [
      ("4KB", 4096, 16_384, 800.);
      ("2MB", 2 * 1024 * 1024, 32, 800.);
      ("4KB", 4096, 16_384, 100.);
      ("2MB", 2 * 1024 * 1024, 32, 100.);
      (* the highest load 2 MB pages survive at all: the link carries
         512x the useful bytes *)
      ("2MB", 2 * 1024 * 1024, 32, 4.);
    ]

let ablate_qp_depth () =
  Report.header "Ablation A3: QP depth vs Adios saturation (section 5.2)";
  let app = micro_app () in
  List.iter
    (fun depth ->
      let cfg = { (base_cfg Config.Adios) with Config.qp_depth = depth } in
      let r = Runner.run cfg app ~offered_krps:2400. ~requests:(reqs 40_000) () in
      pf "qp_depth=%4d  achieved=%7.0f krps  p99.9=%9.2f us  qp_stalls=%d\n"
        depth r.Runner.achieved_krps
        (Clock.to_us r.Runner.e2e.Summary.p999)
        r.Runner.qp_stalls)
    [ 4; 16; 64; 128; 512 ]

(* ---- main ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig10e", fig10e);
    ("fig11", fig11);
    ("fig11e", fig11e);
    ("fig12", fig12);
    ("fig13", fig13);
    ("ablate-reclaimer", ablate_reclaimer);
    ("ablate-prefetch", ablate_prefetch);
    ("ablate-dispatch", ablate_dispatch);
    ("ablate-workers", ablate_workers);
    ("ablate-huge-pages", ablate_huge_pages);
    ("ablate-stack", ablate_stack);
    ("ablate-qp-depth", ablate_qp_depth);
  ]

let () =
  pf "Adios reproduction benchmark harness (scale=%.2f)\n" scale;
  Format.printf "%a@." Params.pp_table ();
  List.iter
    (fun (id, f) ->
      if want id then begin
        let t0 = Unix.gettimeofday () in
        f ();
        pf "[%s done in %.1fs]\n%!" id (Unix.gettimeofday () -. t0)
      end)
    experiments
