(* The benchmark's single command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]

   --trace 0 measures the end-to-end metrics with all benchmark tracing
   off; --trace 1 makes a separate traced run that reports the per-layer
   metrics. Either way the last line of standard output is one JSON
   object {correct, attempted, failed, metrics}, and the exit code is
   non-zero when any correctness gate failed. perfbench/README.md
   explains the workloads and metrics. *)

module W = Workload
module Runner = Adios_core.Runner
module Config = Adios_core.Config
module Spec = Adios_exp.Spec
module Json = Perfbench.Json
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Provenance = Perfbench.Provenance

let pf = Printf.printf

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* --- command line ---------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let jobs = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " W.names);
      ("--seed", Arg.Set_int seed, "N  workload seed (inputs derive from it)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time of a --trace 0 run");
      ("--trace", Arg.Set_int trace, "0|1  0: end-to-end metrics, 1: per-layer run");
      ("--jobs", Arg.Set_int jobs, "J  sweep workers (default: nproc; at most nproc)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let nproc = Provenance.nproc ()
let jobs = if !jobs = 0 then nproc else !jobs

let () =
  if jobs < 1 || jobs > nproc then
    die "--jobs %d refused: this host has %d CPUs (results are only \
         comparable at a stated job count no larger than nproc)" jobs nproc;
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seed < 0 then die "--seed must be non-negative";
  if not (Sys.file_exists "dune-project" && Sys.file_exists "test/golden") then
    die "run from the repository root (dune-project and test/golden not found)"

let w =
  match W.find ~seed:!seed !workload with
  | Some w -> w
  | None -> die "unknown --workload %S (valid: %s)" !workload (String.concat ", " W.names)

let provenance =
  {
    Provenance.workload = w.W.name;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    nproc;
    jobs = (if w.W.sweep then jobs else 1);
    backend = (if w.W.sweep then "fork" else "inline");
    ocaml = Sys.ocaml_version;
    word_size = Sys.word_size;
    commit = Provenance.commit ~root:".";
  }

let pts = W.points w
let requests_of pos = (List.nth pts pos : W.point).W.spec.Spec.requests
let injected = Stats.sum_int (List.map (fun (pt : W.point) -> pt.W.spec.Spec.requests) pts)

(* --- failures -------------------------------------------------------- *)

(* Every gate failure, and the workload points whose requests it fails. *)
let violations : W.violation list ref = ref []
let fail ?(at = List.map (fun (pt : W.point) -> pt.W.pos) pts) msg = violations := { W.at; msg } :: !violations
let failing () = List.sort_uniq compare (List.concat_map (fun v -> v.W.at) !violations)

let child what f =
  match Fork.run f with
  | Ok v -> Some v
  | Error e ->
    fail (what ^ " raised: " ^ e);
    None

let require what = function
  | Some v -> v
  | None -> die "%s failed: %s" what (String.concat "; " (List.map (fun v -> v.W.msg) !violations))

(* Runs of the same points must agree on every simulated column; drift
   is a failure, not noise. *)
let check_results what (a : W.rep) (b : W.rep) =
  List.iter2
    (fun (pos, ra) (_, rb) ->
      if W.fingerprint ra <> W.fingerprint rb then
        fail ~at:[ pos ] (Printf.sprintf "%s: point %d's simulated results differ" what pos))
    a.W.results b.W.results

(* Runs with the same observers must also agree on the words each point
   allocated and on its NIC and trace-event counts. *)
let check_counts what (x : W.point_run) (y : W.point_run) =
  if W.counts x <> W.counts y then
    let words, posts, events = W.counts x and words', posts', events' = W.counts y in
    fail ~at:[ x.W.pos ]
      (Printf.sprintf "%s: point %d counted (%.0f words, %d posts, %d trace events) then (%.0f, %d, %d)"
         what x.W.pos words posts events words' posts' events')

let check_same what (a : W.rep) (b : W.rep) =
  check_results what a b;
  List.iter2 (check_counts what) a.W.runs b.W.runs

let record_gates (rep : W.rep) = violations := rep.W.violations @ !violations

(* --- output ---------------------------------------------------------- *)

let print_result ~attempted metrics =
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> fail (name ^ " is not a finite number")) bad;
  let failed =
    attempted / max 1 injected * Stats.sum_int (List.map requests_of (failing ()))
  in
  pf "\n%-30s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun (name, v, unit) -> pf "%-30s %18.6g  %s\n" name v unit) metrics;
  List.iter (fun v -> pf "GATE FAILED: %s\n" v.W.msg) (List.rev !violations);
  let correct = !violations = [] in
  pf "correct: %b\n" correct;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)

let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.
let events (rep : W.rep) = Stats.sum_int (List.map (fun (_, r) -> r.Runner.sim_events) rep.W.results)
let fixed_adios rep = W.at_fixed w pts rep.W.results Config.Adios
let fixed_dilos rep = W.at_fixed w pts rep.W.results Config.Dilos

let run_rep () =
  if w.W.sweep then W.run_sweep ~jobs w else W.run_inline w

(* --- --trace 0: end-to-end metrics ------------------------------------ *)

let min_reps = if w.W.sweep then 2 else 3

let measure () =
  (* kv-observed is checked against the same points run unobserved.
     The sweep's forked workers are out of reach, so two in-process
     passes over its points give its set-up time, allocation and peak
     heap; they must match each other, and the forked sweep, bit for
     bit. *)
  let references =
    if w.W.observed then
      Option.to_list (child "unobserved reference" (fun () -> W.run_inline { w with W.observed = false }))
    else if w.W.sweep then
      List.filter_map (fun _ -> child "in-process sweep pass" (fun () -> W.run_inline w)) [ 1; 2 ]
    else []
  in
  List.iter record_gates references;
  let t0 = Unix.gettimeofday () in
  let rec loop acc =
    match child "repetition" run_rep with
    | None -> List.rev acc
    | Some rep ->
      let acc = rep :: acc in
      let n = List.length acc in
      let elapsed = Unix.gettimeofday () -. t0 in
      pf "rep %d: %.3f s\n%!" n rep.W.wall_s;
      if n >= min_reps && elapsed +. (elapsed /. float_of_int n) > float_of_int !seconds
      then List.rev acc
      else loop acc
  in
  let reps = loop [] in
  let first = require "measurement" (match reps with r :: _ -> Some r | [] -> None) in
  List.iter record_gates reps;
  List.iter (check_same "determinism across repetitions" first) reps;
  if w.W.observed then
    List.iter
      (fun (refr : W.rep) ->
        List.iter2
          (fun (pos, a) (_, b) ->
            if Adios_core.Export.csv_row a <> Adios_core.Export.csv_row b then
              fail ~at:[ pos ] (Printf.sprintf "observers changed point %d's simulated results" pos))
          first.W.results refr.W.results)
      references
  else if w.W.sweep then begin
    (match references with
    | a :: rest -> List.iter (check_same "determinism across in-process passes" a) rest
    | [] -> ());
    List.iter (check_results "forked sweep vs in-process pass" first) references
  end;
  let ev = float_of_int (events first) in
  let walls = List.map (fun (r : W.rep) -> r.W.wall_s) reps in
  pf "wall_s per rep: %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  let events_per_s =
    Stats.median
      (List.map
         (fun (rep : W.rep) ->
           if w.W.sweep then ev /. rep.W.wall_s
           else
             ev
             /. Stats.sum (List.map (fun (r : W.point_run) -> r.W.wall_s -. r.W.setup_s) rep.W.runs))
         reps)
  in
  (* the in-process runs: the repetitions, or the sweep's passes *)
  let inline = if w.W.sweep then references else reps in
  let base = require "in-process run" (List.nth_opt inline 0) in
  (* set-up of each point: Runner.run's entry to its first simulated
     request, the median over the in-process runs, summed over points *)
  let setup_s =
    Stats.sum
      (List.map
         (fun (pt : W.point) ->
           Stats.median
             (List.concat_map
                (fun (rep : W.rep) ->
                  List.filter_map
                    (fun (r : W.point_run) -> if r.W.pos = pt.W.pos then Some r.W.setup_s else None)
                    rep.W.runs)
                inline))
         pts)
  in
  let heap_words =
    Stats.median (List.map (fun (r : W.rep) -> float_of_int r.W.top_heap_words) inline)
  in
  (* words are gated identical across the in-process runs *)
  let alloc =
    Stats.sum (List.map (fun (r : W.point_run) -> r.W.sim_words) base.W.runs) /. ev
  in
  let adios = fixed_adios first and dilos = fixed_dilos first in
  let sim f = match adios with Some r -> f r | None -> Float.nan in
  let failing = failing () in
  let served =
    Stats.sum_int
      (List.map
         (fun (pos, (r : Runner.result)) ->
           if List.mem pos failing then 0 else r.Runner.completed - r.Runner.errored)
         first.W.results)
  in
  let metrics =
    [
      ("wall_s", Stats.median walls, "s");
      ("setup_s", setup_s, "s");
      ("events_per_s", events_per_s, "1/s");
      ("alloc_words_per_event", alloc, "words");
      ("peak_heap_mb", mib heap_words, "MiB");
      ("sim_p50_us", sim W.p50_us, "sim_us");
      ("sim_p999_us", sim W.p999_us, "sim_us");
      ("sim_goodput_krps", sim (fun r -> r.Runner.achieved_krps), "krps");
      ("sim_capacity_krps", W.capacity w pts first.W.results, "krps");
      ( "sim_p999_vs_dilos",
        (match (adios, dilos) with
        | Some a, Some d -> W.p999_us d /. W.p999_us a
        | _ -> Float.nan),
        "ratio" );
      ("served_share", float_of_int served /. float_of_int injected, "ratio");
    ]
  in
  print_result ~attempted:(injected * List.length reps) metrics

(* --- --trace 1: per-layer metrics ------------------------------------- *)

(* [check what a b] for every later run [b] against the first run [a]. *)
let check_all what check = function
  | a :: rest -> List.iter (check what a) rest
  | [] -> ()

let traced () =
  (* untraced and traced repetitions alternate, so their gap is not one
     host hiccup. A traced repetition records bench spans around every
     layer call and attaches the metrics registry for the NIC counters.
     The sweep's forked workers are out of reach, so a traced sweep
     repetition also makes an in-process pass over its points, which
     gives the per-point metrics. *)
  let pairs = 2 in
  let pair _ =
    let plain = require "untraced repetition" (child "untraced repetition" run_rep) in
    let traced =
      require "traced repetition"
        (child "traced repetition" (fun () ->
             let spans = Spans.create () in
             let seq = if w.W.sweep then Some (W.run_inline ~spans ~metrics:true w) else None in
             let rep =
               if w.W.sweep then W.run_sweep ~spans ~jobs w
               else W.run_inline ~spans ~metrics:true w
             in
             (Option.value seq ~default:rep, rep, Spans.spans spans)))
    in
    (plain, traced)
  in
  let runs = List.init pairs pair in
  let plains = List.map fst runs in
  let timed = List.map (fun (_, (_, rep, _)) -> rep) runs in
  let seqs = List.map (fun (_, (seq, _, _)) -> seq) runs in
  let _, (seq, first, spans) = List.hd runs in
  List.iter record_gates (plains @ timed);
  check_all "untraced repetitions" check_same plains;
  check_all "traced repetitions" check_same timed;
  (* a traced repetition attaches the metrics registry, so its counts
     differ from an untraced one's by design; its results may not *)
  List.iter2 (check_results "traced vs untraced repetition") plains timed;
  if w.W.sweep then begin
    List.iter record_gates seqs;
    check_all "traced in-process passes" check_same seqs;
    List.iter2 (check_results "forked sweep vs in-process pass") timed seqs
  end;
  let median_wall reps = Stats.median (List.map (fun (r : W.rep) -> r.W.wall_s) reps) in
  let plain_wall = median_wall plains in
  let timed_wall = median_wall timed in
  let oracle_s = Stats.median (List.map (fun (r : W.rep) -> r.W.oracle_s) timed) in
  (* each observability consumer alone, on the fixed-load Adios point *)
  let main_pt =
    List.find
      (fun pt -> pt.W.p.Spec.system = Config.Adios && pt.W.p.Spec.load = w.W.fixed_load)
      pts
  in
  let ablation name observers =
    match child ("ablation " ^ name) (fun () -> W.run_point ~observers main_pt) with
    | Some r ->
      List.iter (fun msg -> fail ~at:[ main_pt.W.pos ] msg) r.W.violations;
      r
    | None -> require "ablation" None
  in
  let configs =
    [
      ("plain", W.no_observers);
      ("trace", { W.no_observers with W.trace = true });
      ("profile", { W.no_observers with W.profile = true });
      ("obs", { W.no_observers with W.obs = true });
    ]
  in
  (* three interleaved rounds; each consumer's cost is its median wall
     time over the plain point's median. Each consumer's rounds must
     repeat exactly, and none may change the point's simulated results. *)
  let rounds = List.init 3 (fun _ -> List.map (fun (n, o) -> (n, ablation n o)) configs) in
  let abl name = List.map (List.assoc name) rounds in
  let as_rep (r : W.point_run) = { seq with W.results = [ (r.W.pos, r.W.result) ]; runs = [ r ] } in
  (* the gauge timelines add sampling events, so only the columns no
     observer may change are held to the workload's own point *)
  let point = Adios_core.Export.csv_row (List.assoc main_pt.W.pos seq.W.results) in
  List.iter
    (fun (name, _) ->
      let what = "ablation " ^ name in
      check_all what check_same (List.map as_rep (abl name));
      List.iter
        (fun (r : W.point_run) ->
          if Adios_core.Export.csv_row r.W.result <> point then
            fail ~at:[ r.W.pos ]
              (Printf.sprintf "%s: point %d's simulated results differ from the workload's" what r.W.pos))
        (abl name))
    configs;
  let wall name f = Stats.median (List.map f (abl name)) in
  let plain_s = wall "plain" (fun r -> r.W.wall_s) in
  let overhead name = wall name (fun r -> r.W.wall_s) -. plain_s in
  (* The Checker's verdict gates kv-observed, where it checks the
     workload's own runs. Here it checks a cost probe, so its findings
     are reported (trace.check_errors and the lines below), not gated. *)
  let tr = List.hd (abl "trace") in
  List.iter (pf "TRACE CHECKER: %s\n") tr.W.check_errors;
  let micro = require "microbenchmarks" (child "microbenchmarks" (fun () -> Micro.run ())) in
  let m name = List.assoc name micro in
  let results = seq.W.results and runs = seq.W.runs in
  let ev = float_of_int (events seq) in
  let sum_r f = float_of_int (Stats.sum_int (List.map (fun (_, r) -> f r) results)) in
  let sum_runs f = Stats.sum (List.map f runs) in
  let layers = Spans.by_name spans in
  let self name field =
    match List.find_opt (fun (l : Spans.layer) -> l.Spans.layer = name) layers with
    | Some l -> field l
    | None -> 0.
  in
  let point_walls = List.map (fun (r : W.point_run) -> r.W.wall_s) runs in
  let share st = W.cpu_share results st in
  let metrics =
    [
      ("apps.build_s", self "apps.build" (fun l -> l.Spans.self_s), "s");
      ("apps.build_words", self "apps.build" (fun l -> l.Spans.self_words), "words");
      ("apps.memcached.ns_per_get", m "apps.memcached.ns_per_get", "ns");
      ("apps.silo.ns_per_txn", m "apps.silo.ns_per_txn", "ns");
      ("engine.events", ev, "count");
      ("engine.ns_per_event", m "engine.ns_per_event", "ns");
      ("engine.ns_per_timer_cancel", m "engine.ns_per_timer_cancel", "ns");
      ("engine.words_per_event", m "engine.words_per_event", "words");
      ("rdma.posts", sum_runs (fun r -> float_of_int r.W.nic_posts), "count");
      ("rdma.qp_stalls", sum_r (fun r -> r.Runner.qp_stalls), "count");
      ("rdma.ns_per_post", m "rdma.ns_per_post", "ns");
      ("rdma.util", (match fixed_adios seq with Some r -> r.Runner.rdma_util | None -> Float.nan), "ratio");
      ("mem.faults", sum_r (fun r -> r.Runner.faults), "count");
      ("mem.evictions", sum_r (fun r -> r.Runner.evictions), "count");
      ("mem.writeback_stalls", sum_r (fun r -> r.Runner.writeback_stalls), "count");
      ("mem.ns_per_fault", m "mem.ns_per_fault", "ns");
      ("unithread.ns_per_switch", m "unithread.ns_per_switch", "ns");
      ( "unithread.buffer_hwm",
        float_of_int (List.fold_left (fun a (_, r) -> max a r.Runner.buffer_hwm) 0 results),
        "count" );
      ("core.setup_s", self "core.setup" (fun l -> l.Spans.self_s), "s");
      ("core.run_s", self "core.run" (fun l -> l.Spans.self_s), "s");
      ("core.ns_per_event", self "core.run" (fun l -> l.Spans.self_s) *. 1e9 /. ev, "ns");
      ("core.busy_wait_share", share Adios_obs.Accountant.Busy_wait, "ratio");
      ("core.pf_sw_share", share Adios_obs.Accountant.Pf_software, "ratio");
      ("core.idle_share", share Adios_obs.Accountant.Idle, "ratio");
      ("fault.injected", sum_r (fun r -> r.Runner.faults_injected), "count");
      ("fault.fetch_timeouts", sum_r (fun r -> r.Runner.fetch_timeouts), "count");
      ("fault.fetch_retries", sum_r (fun r -> r.Runner.fetch_retries), "count");
      ("cluster.failovers", sum_r (fun r -> r.Runner.failovers), "count");
      ("cluster.rereplicated", sum_r (fun r -> r.Runner.rereplicated), "count");
      ("trace.overhead_s", wall "trace" (fun r -> r.W.wall_s +. r.W.check_s) -. plain_s, "s");
      ("prof.overhead_s", overhead "profile", "s");
      ("obs.overhead_s", overhead "obs", "s");
      ("trace.ns_per_emit", m "trace.ns_per_emit", "ns");
      ("trace.events", float_of_int tr.W.trace_events, "count");
      ("trace.check_s", wall "trace" (fun r -> r.W.check_s), "s");
      ("trace.check_errors", float_of_int (List.length tr.W.check_errors), "count");
      ("prof.ns_per_switch", m "prof.ns_per_switch", "ns");
      ("obs.ns_per_acct_switch", m "obs.ns_per_acct_switch", "ns");
      ("exp.points", float_of_int (List.length pts), "count");
      ("exp.point_s_p50", Stats.median point_walls, "s");
      ("exp.point_s_max", Stats.max_list point_walls, "s");
      ("exp.setup_share", sum_runs (fun r -> r.W.setup_s) /. Stats.sum point_walls, "ratio");
      ( "exp.parallel_efficiency",
        Stats.sum point_walls /. (first.W.wall_s *. float_of_int provenance.Provenance.jobs),
        "ratio" );
      ("exp.oracle_s", oracle_s, "s");
      ("stats.ns_per_record", m "stats.ns_per_record", "ns");
      ("bench.trace_overhead_s", timed_wall -. plain_wall, "s");
    ]
  in
  pf "\n%-20s %6s %12s %14s\n" "span (self)" "count" "self_s" "self_words";
  List.iter
    (fun (l : Spans.layer) ->
      pf "%-20s %6d %12.4f %14.0f\n" l.Spans.layer l.Spans.count l.Spans.self_s l.Spans.self_words)
    layers;
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/spans-%s-seed%d.json" dir w.W.name !seed in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("provenance", Provenance.to_json provenance);
                ("spans", Spans.to_json spans);
              ])));
  pf "spans written to %s\n" path;
  print_result ~attempted:injected metrics

let () =
  pf "provenance: %s\n%!" (Json.to_string (Provenance.to_json provenance));
  if !trace = 1 then traced () else measure ()
