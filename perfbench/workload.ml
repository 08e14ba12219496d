(* The benchmark's workloads and the code that runs one repetition of
   each. Everything here goes through the simulator's public entry
   points: Registry (via Spec's app factories), Runner.run (whose first
   step is System.create), Sweep.run and Oracle.

   A workload is a list of simulation points drawn from one or more
   sweep specs. The single-point workloads run their points one after
   another in-process; sweep-reduced hands whole specs to Sweep.run at
   [jobs] workers. Every point injects open-loop Poisson arrivals
   (Runner.run, requests/10 warm-up, pre-warmed pager). *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module App = Adios_core.App
module Export = Adios_core.Export
module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Clock = Adios_engine.Clock
module Sink = Adios_trace.Sink
module Checker = Adios_trace.Checker
module Timeline = Adios_trace.Timeline
module Registry = Adios_obs.Registry
module Accountant = Adios_obs.Accountant
module Profiler = Adios_prof.Profiler
module Cluster = Adios_cluster.Cluster
module Injector = Adios_fault.Injector
module Summary = Adios_stats.Summary
module Spans = Perfbench.Spans

let now = Unix.gettimeofday

type t = {
  name : string;
  specs : Spec.t list;
  keep : Spec.point -> bool;  (** which grid points the workload runs *)
  fixed_load : float;
      (** the load the sim_* latency metrics are read at, on the first
          spec's Adios and DiLOS curves *)
  observed : bool;  (** every observability consumer attached *)
  sweep : bool;  (** run through Sweep.run at [jobs] *)
}

type point = { spec : Spec.t; p : Spec.point; pos : int }

let points w =
  List.concat_map
    (fun spec ->
      List.filter_map
        (fun p -> if w.keep p then Some (spec, p) else None)
        (Spec.points spec))
    w.specs
  |> List.mapi (fun pos (spec, p) -> { spec; p; pos })

(* --- the four workloads -------------------------------------------- *)

let names = [ "kv-read"; "tpcc-write-faulty"; "kv-observed"; "sweep-reduced" ]

(* The single-point workloads run one Adios curve and one DiLOS point.
   The Adios curve has a low base load (the reference P99.9 of the
   latency limit) and the fixed load; on the kv workloads it also has
   loads on either side of Adios's knee, so sim_capacity_krps reads a
   capacity the system reached. DiLOS runs at the fixed load only (the
   busy-waiting contrast). *)
let single_keep ~fixed (p : Spec.point) =
  p.Spec.system = Config.Adios || p.Spec.load = fixed

(* 40k arrivals leave 36k measured requests, so P99.9 has 36 samples
   beyond it. 1000 krps sits above DiLOS's knee (it saturates near
   910 krps, so its queue grows for the whole run) and below Adios's. A
   run this long is what keeps the DiLOS/Adios P99.9 ratio within about
   8% from seed to seed. Adios's P99.9 limit is about 97 us (3x its
   150-krps P99.9): it reads 60-68 us at 1100 krps and 180-210 us at
   1200 krps over seeds 1-3, so its capacity on this grid is 1100 krps.
   1150 krps is left out: it straddles the limit (88-130 us). *)
let kv_fixed = 1000.

let kv_spec ~seed =
  Spec.make ~name:"kv" ~systems:[ Config.Adios; Config.Dilos ]
    ~apps:[ "memcached" ] ~loads:[ 150.; kv_fixed; 1100.; 1200. ] ~requests:40_000 ~seed ()

(* Silo TPC-C on 2 memory nodes with every page replicated twice, a
   fabric that loses 0.1% of READ completions and delays 1% by a
   lognormal spike, and fetch timeout/retry armed. Local DRAM holds 15%
   of the working set rather than the paper's 20%: more dirty pages go
   back, and the P50 of the TPC-C mix sits inside the one-fault mode.
   At 20% it sits on the plateau between Payment and New-Order
   latencies and jumps between about 9.8 and 13 us from seed to seed.
   450 krps is past DiLOS's saturation (about 420 krps here), so its
   queue grows for the whole run, and clear of Adios's knee. That knee
   is a cliff into a timeout-and-retry storm (P99.9 past 10 ms) whose
   load moves with the seed between about 500 and 600 krps. A point
   past it (600 krps) costs some 400 MiB more heap and fails about 40%
   of its requests by a seed-dependent amount, so the Adios curve stops
   at the fixed load: sim_capacity_krps here only flags whether 450
   krps stays within the latency limit. *)
let tpcc_fixed = 450.

let tpcc_spec ~seed =
  Spec.make ~name:"tpcc-write-faulty" ~systems:[ Config.Adios; Config.Dilos ]
    ~apps:[ "silo" ] ~loads:[ 50.; tpcc_fixed ] ~requests:40_000 ~seed
    ~local_ratio:0.15
    ~fault:{ Injector.none with Injector.drop = 0.001; spike = 0.01; seed }
    ~fetch_timeout_us:50. ~fetch_retries:3
    ~clusters:[ { Cluster.default with Cluster.nodes = 2; replication = 2 } ]
    ()

let find ~seed name =
  match name with
  | "kv-read" | "kv-observed" ->
    Some
      {
        name;
        specs = [ kv_spec ~seed ];
        keep = single_keep ~fixed:kv_fixed;
        fixed_load = kv_fixed;
        observed = name = "kv-observed";
        sweep = false;
      }
  | "tpcc-write-faulty" ->
    Some
      {
        name;
        specs = [ tpcc_spec ~seed ];
        keep = single_keep ~fixed:tpcc_fixed;
        fixed_load = tpcc_fixed;
        observed = false;
        sweep = false;
      }
  | "sweep-reduced" ->
    (* the checked-in golden specs, seed included: the run regenerates
       the golden datasets and is held to them, so --seed does not
       apply here *)
    Some
      {
        name;
        specs = [ Spec.reduced_memcached; Spec.cluster_reduced ];
        keep = (fun _ -> true);
        fixed_load = 1000.;
        observed = false;
        sweep = true;
      }
  | _ -> None

(* --- one point ------------------------------------------------------ *)

type point_run = {
  pos : int;
  result : Runner.result;
  wall_s : float;  (** Runner.run, host seconds *)
  setup_s : float;  (** Runner.run entry to the first generated request *)
  sim_words : float;  (** minor words allocated after set-up *)
  trace_events : int;  (** events the trace sink saw (observed only) *)
  check_s : float;  (** trace Checker time (observed only) *)
  nic_posts : int;  (** NIC work requests (when metrics are attached) *)
  check_errors : string list;  (** trace Checker findings (trace on only) *)
  violations : string list;  (** profiler sum violations *)
}

(* Host-side marks the instrumented app sets while Runner.run runs. *)
type marks = { mutable started : bool; mutable t_first : float; mutable w_first : float }

(* Wrap the app's public closures: [build] gets an apps.build span and
   the first [gen] call marks the end of set-up (the load generator
   draws its first request only once simulated time runs). Neither
   wrapper changes what the app does. *)
let instrument spans marks (app : App.t) =
  {
    app with
    App.build =
      (fun view ->
        Spans.with_span spans "apps.build" (fun () -> app.App.build view));
    gen =
      (fun rng ->
        if not marks.started then begin
          marks.started <- true;
          marks.t_first <- now ();
          marks.w_first <- Gc.minor_words ();
          (* closes the core.setup span opened before Runner.run *)
          Spans.leave spans
        end;
        app.App.gen rng);
  }

(* Enough ring for every event of the busiest traced point: 40k Silo
   requests on the faulty fabric emit about 2.4M events. *)
let trace_capacity = 1 lsl 22

let counter_sum reg name =
  List.fold_left
    (fun acc (m : Registry.metric) ->
      match m.Registry.value with
      | Registry.Counter read when m.Registry.name = name -> acc + read ()
      | _ -> acc)
    0 (Registry.metrics reg)

let point_label (pt : point) = Sweep.point_label pt.p

(* The observability consumers kv-observed attaches; the traced run
   also turns each on alone to price it. *)
type observers = {
  trace : bool;  (** trace sink, checked by Checker after the run *)
  profile : bool;  (** critical-path profiler *)
  obs : bool;  (** metrics registry with gauge and snapshot timelines *)
}

let no_observers = { trace = false; profile = false; obs = false }
let all_observers = { trace = true; profile = true; obs = true }
let observers w = if w.observed then all_observers else no_observers

let run_point ?(spans = Spans.null) ?(metrics = false) ~observers:o pt =
  let marks = { started = false; t_first = 0.; w_first = 0. } in
  let app = instrument spans marks (pt.p.Spec.make_app ()) in
  let cfg = Spec.config pt.spec pt.p in
  let trace = if o.trace then Some (Sink.create ~capacity:trace_capacity) else None in
  let reg = if o.obs || metrics then Some (Registry.create ()) else None in
  let timeline = if o.obs then Some (Timeline.create ()) else None in
  let snapshot = if o.obs then Some (Timeline.create ()) else None in
  Spans.enter spans ~point:pt.pos "core.run";
  Spans.enter spans "core.setup";
  let t0 = now () in
  let result =
    Runner.run cfg app ~offered_krps:pt.p.Spec.load
      ~requests:pt.spec.Spec.requests ?trace ?timeline ?metrics:reg ?snapshot
      ~profile:o.profile ()
  in
  let t1 = now () and w1 = Gc.minor_words () in
  if not marks.started then begin
    marks.t_first <- t1;
    marks.w_first <- w1;
    Spans.leave spans
  end;
  Spans.leave spans;
  let check_s, trace_events, check_errors =
    match trace with
    | None -> (0., 0, [])
    | Some sink ->
      let tc = now () in
      let report =
        Spans.with_span spans ~point:pt.pos "trace.check" (fun () ->
            Checker.check
              ~strict:(not (Sink.truncated sink))
              ~spans_dropped:(Sink.dropped sink) (Sink.to_list sink))
      in
      let check_s = now () -. tc in
      let truncated =
        if Sink.truncated sink then
          [ Printf.sprintf "trace ring overflowed (%d dropped)" (Sink.dropped sink) ]
        else []
      in
      (check_s, Sink.length sink + Sink.dropped sink, report.Checker.errors @ truncated)
  in
  let prof =
    match result.Runner.prof with
    | Some s when s.Profiler.violations > 0 ->
      [ Printf.sprintf "%d profiler sum violations" s.Profiler.violations ]
    | None when o.profile -> [ "profile summary missing" ]
    | Some _ | None -> []
  in
  {
    pos = pt.pos;
    result;
    wall_s = t1 -. t0;
    setup_s = marks.t_first -. t0;
    sim_words = w1 -. marks.w_first;
    trace_events;
    check_s;
    nic_posts = (match reg with Some r -> counter_sum r "adios_nic_posted_total" | None -> 0);
    check_errors = List.map (fun v -> point_label pt ^ ": " ^ v) check_errors;
    violations = List.map (fun v -> point_label pt ^ ": " ^ v) prof;
  }

(* --- correctness gates --------------------------------------------- *)

(* A violation names the workload points whose requests it fails. *)
type violation = { at : int list; msg : string }

(* Per point, beside the Oracle's conservation identities. *)
let point_gates (pt : point) (r : Runner.result) =
  let v cond msg = if cond then [] else [ { at = [ pt.pos ]; msg = point_label pt ^ ": " ^ msg } ] in
  v (r.Runner.errored <= r.Runner.completed)
      (Printf.sprintf "errored %d > completed %d" r.Runner.errored r.Runner.completed)
  @ v (r.Runner.clamped_schedules = 0)
      (Printf.sprintf "%d clamped schedules" r.Runner.clamped_schedules)

let golden_path spec = Filename.concat "test/golden" (spec.Spec.name ^ ".csv")

(* Dataset-level gates over one spec's points: the Oracle bundles, and
   for the golden specs the golden tolerance bands. *)
let spec_gates w spec (pairs : (point * Runner.result) list) =
  let clustered = Spec.clustered spec in
  let ds = Dataset.of_run ~cluster:clustered (List.map (fun (pt, r) -> (pt.p, r)) pairs) in
  let oracle =
    if not w.sweep then Oracle.check_conservation ds @ Oracle.check_cpu_conservation ds
    else if clustered then Oracle.check_cluster ds
    else Oracle.check_all ds
  in
  let golden =
    if w.sweep then
      match Dataset.load ~path:(golden_path spec) with
      | Ok golden -> Oracle.compare_golden ~golden ds
      | Error e -> [ "golden unreadable: " ^ e ]
    else []
  in
  let at = List.map (fun ((pt : point), _) -> pt.pos) pairs in
  List.map (fun msg -> { at; msg = spec.Spec.name ^ ": " ^ msg }) (oracle @ golden)
  @ List.concat_map (fun (pt, r) -> point_gates pt r) pairs

let gates w pts (results : (int * Runner.result) list) =
  List.concat_map
    (fun spec ->
      let pairs =
        List.filter_map
          (fun pt ->
            if pt.spec == spec then Option.map (fun r -> (pt, r)) (List.assoc_opt pt.pos results)
            else None)
          pts
      in
      spec_gates w spec pairs)
    w.specs

(* --- one repetition ------------------------------------------------- *)

type rep = {
  results : (int * Runner.result) list;  (** by point position *)
  runs : point_run list;  (** per-point host data (in-process runs only) *)
  wall_s : float;  (** the whole repetition, checks included *)
  oracle_s : float;  (** time in the correctness gates *)
  top_heap_words : int;
  violations : violation list;
}

(* Every point in-process, one after another, then the gates. *)
let run_inline ?spans ?metrics w =
  let pts = points w in
  let t0 = now () in
  let runs = List.map (run_point ?spans ?metrics ~observers:(observers w)) pts in
  let results = List.map (fun r -> (r.pos, r.result)) runs in
  let tg = now () in
  let violations =
    Spans.with_span (Option.value spans ~default:Spans.null) "exp.oracle" (fun () ->
        gates w pts results)
  in
  let t1 = now () in
  let checker =
    List.concat_map
      (fun r -> List.map (fun msg -> { at = [ r.pos ]; msg }) (r.check_errors @ r.violations))
      runs
  in
  {
    results;
    runs;
    wall_s = t1 -. t0;
    oracle_s = t1 -. tg;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    violations = checker @ violations;
  }

(* The sweep as users run it: each spec through Sweep.run at [jobs]
   with its default (fork) backend, then the oracles and goldens. *)
let run_sweep ?(spans = Spans.null) ~jobs w =
  let pts = points w in
  let t0 = now () in
  let per_spec =
    Spans.with_span spans "exp.sweep" (fun () ->
        List.map (fun spec -> (spec, Sweep.run ~jobs spec)) w.specs)
  in
  (* Sweep.run returns points in Spec.points order, as [points] does *)
  let results =
    List.concat_map (fun (_, rs) -> List.map snd rs) per_spec
    |> List.mapi (fun i r -> (i, r))
  in
  let tg = now () in
  let violations = Spans.with_span spans "exp.oracle" (fun () -> gates w pts results) in
  let t1 = now () in
  {
    results;
    runs = [];
    wall_s = t1 -. t0;
    oracle_s = t1 -. tg;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    violations;
  }

(* --- reading the simulated metrics ---------------------------------- *)

let p999_us (r : Runner.result) = Clock.to_us r.Runner.e2e.Summary.p999
let p50_us (r : Runner.result) = Clock.to_us r.Runner.e2e.Summary.p50

(* Adios and DiLOS results at the fixed load, on the first spec. *)
let at_fixed w pts results system =
  let spec = List.hd w.specs in
  List.find_map
    (fun pt ->
      if pt.spec == spec && pt.p.Spec.system = system && pt.p.Spec.load = w.fixed_load
         && pt.p.Spec.cluster = List.hd spec.Spec.clusters
      then List.assoc_opt pt.pos results
      else None)
    pts

(* Highest load on the first spec's Adios curve whose P99.9 stays
   within Oracle.knee's limit (3x the lowest-load P99.9) with no
   drops. *)
let capacity w pts results =
  let spec = List.hd w.specs in
  let curve =
    List.filter_map
      (fun pt ->
        if pt.spec == spec && pt.p.Spec.system = Config.Adios
           && pt.p.Spec.cluster = List.hd spec.Spec.clusters
        then Option.map (fun r -> (pt.p, r)) (List.assoc_opt pt.pos results)
        else None)
      pts
    |> List.sort (fun (a, _) (b, _) -> compare a.Spec.load b.Spec.load)
  in
  match curve with
  | [] -> 0.
  | (_, r0) :: _ ->
    let ds = Dataset.of_run ~cluster:(Spec.clustered spec) curve in
    let knee = Oracle.knee ds ~system:"Adios" ~app:r0.Runner.app in
    let rec walk best = function
      | [] -> best
      | ((p : Spec.point), (r : Runner.result)) :: rest ->
        let beyond = match knee with Some k -> p.Spec.load >= k | None -> false in
        if beyond || r.Runner.dropped > 0 then best else walk p.Spec.load rest
    in
    walk 0. curve

(* What the determinism check compares between repetitions: every
   exported simulated column of every point, and the counts a point run
   measures beside them. *)
let fingerprint (r : Runner.result) = Export.csv_row r ^ "," ^ Export.cluster_csv_row r
let counts r = (r.sim_words, r.nic_posts, r.trace_events)

(* Worker-cycle share of one CPU state, weighted over all points. *)
let cpu_share results st =
  let num, den =
    List.fold_left
      (fun (n, d) (_, (r : Runner.result)) ->
        let snap = r.Runner.cpu in
        let workers = snap.Accountant.cpus - 1 in
        ( n + Accountant.state_cycles snap ~cpus:workers st,
          d + (snap.Accountant.duration * workers) ))
      (0, 0) results
  in
  if den = 0 then 0. else float_of_int num /. float_of_int den
