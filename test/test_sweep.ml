(* Golden-tier sweep tests: run the canonical reduced array spec once and
   hold it against every figure-shape oracle plus the checked-in golden
   CSV. Every checked-in spec, repeated through the forked runner, must
   reproduce its sequential dataset bit-for-bit — the determinism claim
   the whole golden tier rests on — and a point that raises or a worker
   that dies must surface as a [Failure] naming the point, with no
   worker left behind. The steal-reduced spec gets its own golden/oracle
   suite for the Adios-vs-work-stealing dispatch contrast. Synthetic
   datasets then exercise each oracle's failure direction, so a broken
   oracle (one that never fires) also fails here. *)

module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Config = Adios_core.Config

let check = Alcotest.check
let no_violations name vs = check Alcotest.(list string) name [] vs

(* One sequential run shared by every golden test below; a second run
   through the forked workers checks replay identity. The shared run is
   profiled: attribution is perturbation-free, so the main dataset must
   still match the unprofiled forked replay and the golden bytes — the
   replay test doubles as the sweep-scale proof of that claim. *)
let sequential = lazy (Sweep.run ~jobs:1 ~profile:true Spec.reduced_array)
let dataset = lazy (Dataset.of_run (Lazy.force sequential))
let phase_dataset = lazy (Dataset.phases_of_run (Lazy.force sequential))

(* The forked replay, shared with the all-goldens parallel test so the
   spec runs at jobs=2 once per process. *)
let forked = lazy (Sweep.run ~jobs:2 Spec.reduced_array)

(* --- the golden sweep --------------------------------------------------- *)

let test_replay_bit_identical () =
  check Alcotest.string
    "same seed, same bytes (jobs=1 profiled vs jobs=2 unprofiled)"
    (Dataset.to_csv (Lazy.force dataset))
    (Dataset.to_csv (Dataset.of_run (Lazy.force forked)))

let test_golden_match () =
  match Dataset.load ~path:"golden/array-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "within tolerance of golden"
      (Oracle.compare_golden ~golden (Lazy.force dataset))

let test_knees_detected () =
  let ds = Lazy.force dataset in
  no_violations "all four systems knee in-grid"
    (Oracle.check_knees_detected ds ~app:"array");
  List.iter
    (fun (system, knee) ->
      check Alcotest.bool
        (Printf.sprintf "%s knee is a grid load" system)
        true
        (match knee with
        | Some l -> List.mem l Spec.reduced_array.Spec.loads
        | None -> false))
    (Oracle.knees ds ~app:"array")

let test_adios_outlasts_baselines () =
  let ds = Lazy.force dataset in
  no_violations "Adios knee >= every baseline's"
    (Oracle.check_ranking ds ~app:"array");
  (* the ordering the oracle enforces, asserted directly *)
  let knee sys =
    match Oracle.knee ds ~system:sys ~app:"array" with
    | Some l -> l
    | None -> infinity
  in
  List.iter
    (fun baseline ->
      check Alcotest.bool
        (Printf.sprintf "Adios knee >= %s knee" baseline)
        true
        (knee "Adios" >= knee baseline))
    [ "Hermit"; "DiLOS"; "DiLOS-P" ]

let test_throughput_monotone () =
  no_violations "throughput climbs then plateaus"
    (Oracle.check_throughput_monotone (Lazy.force dataset))

let test_conservation () =
  no_violations "counters conserve requests"
    (Oracle.check_conservation (Lazy.force dataset))

let test_phase_golden_match () =
  match Dataset.load ~path:"golden/array-reduced-phases.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "within tolerance of the tail-forensics golden"
      (Oracle.compare_golden ~tolerance:Oracle.phase_tolerance ~golden
         (Lazy.force phase_dataset))

let test_phase_oracles () =
  no_violations "phase conservation + tail attribution"
    (Oracle.check_phases (Lazy.force phase_dataset))

let test_csv_round_trip () =
  let ds = Lazy.force dataset in
  match Dataset.of_csv (Dataset.to_csv ds) with
  | Error e -> Alcotest.fail e
  | Ok ds' ->
    check Alcotest.bool "parse . print = id" true (ds = ds');
    check Alcotest.int "rows" (Spec.point_count Spec.reduced_array)
      (Dataset.length ds')

(* --- the cluster golden -------------------------------------------------- *)

(* The topology-grid sweep: one sequential run shared by the golden,
   replay, oracle-bundle and parallel tests, and one forked replay
   shared by the replay and parallel tests. *)
let cluster_sequential = lazy (Sweep.run ~jobs:1 Spec.cluster_reduced)
let cluster_forked = lazy (Sweep.run ~jobs:2 Spec.cluster_reduced)

let cluster_dataset =
  lazy (Dataset.of_run ~cluster:true (Lazy.force cluster_sequential))

let test_cluster_replay_bit_identical () =
  check Alcotest.string
    "same seed, same bytes across crash schedules (jobs=1 vs jobs=2)"
    (Dataset.to_csv (Lazy.force cluster_dataset))
    (Dataset.to_csv (Dataset.of_run ~cluster:true (Lazy.force cluster_forked)))

let test_cluster_golden_match () =
  match Dataset.load ~path:"golden/cluster-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "within tolerance of the cluster golden"
      (Oracle.compare_golden ~golden (Lazy.force cluster_dataset))

let test_cluster_oracles () =
  let ds = Lazy.force cluster_dataset in
  no_violations "failover + replication-tail gates"
    (Oracle.check_cluster ds);
  (* the headline claims, asserted directly on the rows: a crash with
     R = 2 rides through error-free on failover reads; with R = 1 the
     dead primary's pages must error out *)
  List.iter
    (fun row ->
      if Dataset.geti ds row "crashes" > 0 then begin
        check Alcotest.int "the scheduled crash fired" 1
          (Dataset.geti ds row "nodes_failed");
        if Dataset.geti ds row "replication" >= 2 then begin
          check Alcotest.int "R=2: zero errored requests" 0
            (Dataset.geti ds row "errored");
          check Alcotest.bool "R=2: reads failed over" true
            (Dataset.geti ds row "failovers" > 0)
        end
        else
          check Alcotest.bool "R=1: errors surface" true
            (Dataset.geti ds row "errored" > 0)
      end)
    ds.Dataset.rows

(* --- the steal-dispatch golden ------------------------------------------- *)

(* The Adios-vs-Steal dispatch contrast at 16 workers: one sequential
   run shared by the golden, oracle-bundle and parallel tests. *)
let steal_sequential = lazy (Sweep.run ~jobs:1 Spec.steal_reduced)
let steal_dataset = lazy (Dataset.of_run (Lazy.force steal_sequential))

let test_steal_golden_match () =
  match Dataset.load ~path:"golden/steal-reduced.csv" with
  | Error e -> Alcotest.fail e
  | Ok golden ->
    no_violations "within tolerance of the steal golden"
      (Oracle.compare_golden ~golden (Lazy.force steal_dataset))

let test_steal_oracles () =
  let ds = Lazy.force steal_dataset in
  no_violations "steal-dispatch gates" (Oracle.check_steal ds);
  (* the dispatch split, asserted directly on the rows: only the
     work-stealing variant ever steals, and it must actually do so
     (otherwise it silently degenerated into plain d-FCFS and the
     contrast with single-queue PF-aware dispatch is vacuous) *)
  List.iter
    (fun row ->
      if not (String.equal (Dataset.get ds row "system") "Steal") then
        check Alcotest.int "single-queue rows never steal" 0
          (Dataset.geti ds row "steals"))
    ds.Dataset.rows;
  check Alcotest.bool "the work-stealing rows steal" true
    (List.exists
       (fun row ->
         String.equal (Dataset.get ds row "system") "Steal"
         && Dataset.geti ds row "steals" > 0)
       ds.Dataset.rows)

(* --- the parallel runner ------------------------------------------------- *)

(* Sequential baselines, reusing the shared lazy runs where one exists
   so each spec is simulated sequentially at most once per process. *)
let baseline spec =
  if spec == Spec.reduced_array then Lazy.force sequential
  else if spec == Spec.cluster_reduced then Lazy.force cluster_sequential
  else if spec == Spec.steal_reduced then Lazy.force steal_sequential
  else Sweep.run ~jobs:1 spec

(* Forked runs, reusing the replay tests' runs likewise. *)
let parallel spec =
  if spec == Spec.reduced_array then Lazy.force forked
  else if spec == Spec.cluster_reduced then Lazy.force cluster_forked
  else Sweep.run ~jobs:2 spec

let spec_csv spec run =
  Dataset.to_csv (Dataset.of_run ~cluster:(Spec.clustered spec) run)

(* The claim from sweep.mli, gated on every checked-in spec: two forked
   workers produce the same CSV bytes as the in-process sequential
   runner. The array baseline is profiled, so this also holds a
   profiled jobs=1 run to an unprofiled jobs=2 one. *)
let test_parallel_bit_identical () =
  List.iter
    (fun spec ->
      check Alcotest.string
        (spec.Spec.name ^ ": same bytes (jobs=1 vs jobs=2)")
        (spec_csv spec (baseline spec))
        (spec_csv spec (parallel spec)))
    Spec.all_goldens

(* A small sweep whose second point is sabotaged by [cfg_tweak], which
   runs inside the worker: the point is recognised by its seed. *)
let failure_spec =
  Spec.make ~name:"failure" ~systems:[ Config.Adios ] ~apps:[ "array" ]
    ~loads:[ 200.; 400.; 600.; 800. ] ~requests:200 ()

let sabotaged = List.nth (Spec.points failure_spec) 1

let sabotage f (c : Config.t) =
  if c.Config.seed = sabotaged.Spec.point_seed then f ();
  c

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* The run must raise [Failure] naming the sabotaged point and carrying
   [reason], after every worker has been killed and reaped. *)
let check_worker_failure ~reason f =
  (match Sweep.run ~jobs:2 ~cfg_tweak:(sabotage f) failure_spec with
  | _ -> Alcotest.fail "a failing point must fail the sweep"
  | exception Failure msg ->
    check Alcotest.bool
      (Printf.sprintf "%S names the point" msg)
      true
      (contains_sub msg (Sweep.point_label sabotaged));
    check Alcotest.bool
      (Printf.sprintf "%S carries %S" msg reason)
      true (contains_sub msg reason));
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | pid, _ -> Alcotest.failf "worker %d left behind" pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let test_point_raises () =
  check_worker_failure ~reason:"planted failure" (fun () ->
      failwith "planted failure")

let test_worker_killed () =
  check_worker_failure ~reason:"worker exited before reporting" (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigkill)

let test_jobs_rejected () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs = %d" jobs)
        (Invalid_argument "Sweep.run: jobs < 1")
        (fun () -> ignore (Sweep.run ~jobs failure_spec)))
    [ 0; -3 ]

(* --- spec --------------------------------------------------------------- *)

let test_point_seeds () =
  let points = Spec.points Spec.reduced_array in
  check Alcotest.int "point count"
    (Spec.point_count Spec.reduced_array)
    (List.length points);
  List.iteri
    (fun i (p : Spec.point) ->
      check Alcotest.int "indices are positional" i p.Spec.index;
      check Alcotest.int "seed is a pure function of (seed, index)"
        (Spec.point_seed ~seed:Spec.reduced_array.Spec.seed ~index:i)
        p.Spec.point_seed)
    points;
  let seeds = List.map (fun (p : Spec.point) -> p.Spec.point_seed) points in
  check Alcotest.int "per-point seeds are distinct"
    (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

let test_unknown_app_rejected () =
  Alcotest.check_raises "unknown app"
    (Invalid_argument
       ("Spec.make: " ^ Adios_apps.Registry.unknown "nope"))
    (fun () -> ignore (Spec.make ~apps:[ "nope" ] ~name:"x" ()))

(* A grid point with no arrivals or a non-positive load is no
   measurement: rejected when the spec is built, before any point runs. *)
let test_bad_grid_rejected () =
  let rejects name f =
    match f () with
    | (_ : Spec.t) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun requests ->
      rejects (Printf.sprintf "requests=%d" requests) (fun () ->
          Spec.make ~requests ~name:"x" ()))
    [ 0; -5 ];
  List.iter
    (fun loads ->
      rejects
        (String.concat "," (List.map string_of_float loads))
        (fun () -> Spec.make ~loads ~name:"x" ()))
    [ [ 0. ]; [ -100.; 0. ]; [ 500.; -1. ]; [ Float.nan ] ]

(* --- oracles on synthetic data ------------------------------------------ *)

(* A minimal dataset with just the columns a given oracle reads. *)
let synth header rows = { Dataset.header; rows }

let latency_header = [ "load"; "system"; "app"; "p999_us"; "achieved_krps" ]

let curve_rows sys rows =
  List.map
    (fun (load, p999, thr) ->
      [ string_of_float load; sys; "array"; string_of_float p999;
        string_of_float thr ])
    rows

let test_knee_synthetic () =
  let ds =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.); (200., 25., 180.); (300., 35., 250.) ])
  in
  check
    Alcotest.(option (float 1e-9))
    "first point past 3x baseline" (Some 300.)
    (Oracle.knee ds ~system:"A" ~app:"array");
  check
    Alcotest.(option (float 1e-9))
    "k=2 knees earlier" (Some 200.)
    (Oracle.knee ~k:2. ds ~system:"A" ~app:"array");
  let flat =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.); (200., 11., 180.); (300., 12., 250.) ])
  in
  check
    Alcotest.(option (float 1e-9))
    "flat curve never knees" None
    (Oracle.knee flat ~system:"A" ~app:"array");
  check Alcotest.int "missing knee reported" 1
    (List.length (Oracle.check_knees_detected flat ~app:"array"))

let test_ranking_synthetic () =
  let ds =
    synth latency_header
      (curve_rows "Adios" [ (100., 10., 90.); (200., 40., 170.) ]
      @ curve_rows "Base" [ (100., 10., 90.); (300., 40., 250.) ])
  in
  (* Adios knees at 200, Base survives to 300: the headline inverted *)
  check Alcotest.int "inverted ranking caught" 1
    (List.length (Oracle.check_ranking ds ~app:"array"));
  let ok =
    synth latency_header
      (curve_rows "Adios" [ (100., 10., 90.); (300., 40., 250.) ]
      @ curve_rows "Base" [ (100., 10., 90.); (300., 40., 250.) ])
  in
  no_violations "tie is acceptable" (Oracle.check_ranking ok ~app:"array")

let test_monotone_synthetic () =
  let collapsing =
    synth latency_header
      (curve_rows "A"
         [ (100., 10., 100.); (200., 12., 200.); (300., 14., 90.) ])
  in
  check Alcotest.int "collapse caught" 1
    (List.length (Oracle.check_throughput_monotone collapsing));
  no_violations "sag within slack passes"
    (Oracle.check_throughput_monotone
       (synth latency_header
          (curve_rows "A"
             [ (100., 10., 100.); (200., 12., 200.); (300., 14., 170.) ])))

let conservation_header =
  [
    "load"; "system"; "app"; "requests"; "completed"; "dropped"; "drops_queue";
    "drops_buffer"; "handled"; "errored"; "admitted"; "prefetch_issued";
    "prefetch_useful"; "prefetch_wasted";
  ]

let conservation_row ~requests ~completed ~dropped =
  [
    "100."; "A"; "array";
    string_of_int requests; string_of_int completed; string_of_int dropped;
    string_of_int dropped; "0"; string_of_int completed; "0";
    string_of_int completed; "4"; "2"; "1";
  ]

let test_conservation_synthetic () =
  no_violations "balanced row passes"
    (Oracle.check_conservation
       (synth conservation_header
          [ conservation_row ~requests:100 ~completed:90 ~dropped:10 ]));
  check Alcotest.int "lost request caught" 1
    (List.length
       (Oracle.check_conservation
          (synth conservation_header
             [ conservation_row ~requests:100 ~completed:90 ~dropped:5 ])))

let test_compare_golden_bands () =
  let mk p999 = synth latency_header (curve_rows "A" [ (100., p999, 90.) ]) in
  let golden = mk 10. in
  no_violations "identical matches" (Oracle.compare_golden ~golden (mk 10.));
  (* latency band is max(2us, 25%): 12.4 is inside, 13 is outside *)
  no_violations "drift within band tolerated"
    (Oracle.compare_golden ~golden (mk 12.4));
  check Alcotest.int "drift past band caught" 1
    (List.length (Oracle.compare_golden ~golden (mk 13.)));
  (* identity columns never drift *)
  let moved =
    synth latency_header
      [ [ "100."; "B"; "array"; "10."; "90." ] ]
  in
  check Alcotest.int "exact column mismatch caught" 1
    (List.length (Oracle.compare_golden ~golden moved));
  check Alcotest.int "row count change caught" 1
    (List.length
       (Oracle.compare_golden ~golden
          (synth latency_header
             (curve_rows "A" [ (100., 10., 90.); (200., 11., 150.) ]))))

let cluster_header =
  [
    "load"; "system"; "app"; "nodes"; "replication"; "crashes";
    "nodes_failed"; "failovers"; "errored"; "p999_us";
  ]

let cluster_row ?(nodes_failed = 0) ?(failovers = 0) ?(errored = 0)
    ~replication ~crashes ~p999 () =
  [
    "1000."; "Adios"; "array"; "2"; string_of_int replication;
    string_of_int crashes; string_of_int nodes_failed;
    string_of_int failovers; string_of_int errored; string_of_float p999;
  ]

let test_failover_synthetic () =
  let grid ?(r2_crash = cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                          ~failovers:40 ~p999:11. ())
      ?(r1_crash = cluster_row ~replication:1 ~crashes:1 ~nodes_failed:1
                     ~errored:50 ~p999:60. ()) () =
    synth cluster_header
      [
        cluster_row ~replication:1 ~crashes:0 ~p999:9. ();
        r1_crash;
        cluster_row ~replication:2 ~crashes:0 ~p999:10. ();
        r2_crash;
      ]
  in
  no_violations "the expected split passes" (Oracle.check_failover (grid ()));
  let fails label ds = check Alcotest.bool label true (Oracle.check_failover ds <> []) in
  fails "R=2 errors caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~failovers:40 ~errored:5 ~p999:11. ()) ());
  fails "missing failovers caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~p999:11. ()) ());
  fails "unbounded tail caught"
    (grid ~r2_crash:(cluster_row ~replication:2 ~crashes:1 ~nodes_failed:1
                       ~failovers:40 ~p999:200. ()) ());
  fails "unfired crash caught"
    (grid ~r1_crash:(cluster_row ~replication:1 ~crashes:1 ~errored:50
                       ~p999:60. ()) ());
  fails "silently-served R=1 crash caught"
    (grid ~r1_crash:(cluster_row ~replication:1 ~crashes:1 ~nodes_failed:1
                       ~p999:9. ()) ())

let test_replication_tail_synthetic () =
  let grid r2_p999 =
    synth cluster_header
      [
        cluster_row ~replication:1 ~crashes:0 ~p999:9. ();
        cluster_row ~replication:2 ~crashes:0 ~p999:r2_p999 ();
      ]
  in
  no_violations "modest replication overhead passes"
    (Oracle.check_replication_tail (grid 12.));
  check Alcotest.int "poisoned tail caught" 1
    (List.length (Oracle.check_replication_tail (grid 40.)))

let test_dataset_accessors () =
  let ds =
    synth latency_header
      (curve_rows "A" [ (100., 10., 90.) ] @ curve_rows "B" [ (100., 20., 80.) ])
  in
  check Alcotest.(list string) "systems" [ "A"; "B" ] (Dataset.systems ds);
  check Alcotest.(list string) "apps" [ "array" ] (Dataset.apps ds);
  check Alcotest.int "filter" 1
    (Dataset.length (Dataset.filter ds ~name:"system" ~value:"B"));
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Dataset.get: no column nope")
    (fun () ->
      ignore (Dataset.get ds (List.hd ds.Dataset.rows) "nope"))

let () =
  Alcotest.run "sweep"
    [
      ( "golden",
        [
          Alcotest.test_case "replay bit-identical" `Quick
            test_replay_bit_identical;
          Alcotest.test_case "matches checked-in golden" `Quick
            test_golden_match;
          Alcotest.test_case "knees detected" `Quick test_knees_detected;
          Alcotest.test_case "Adios outlasts baselines" `Quick
            test_adios_outlasts_baselines;
          Alcotest.test_case "throughput monotone" `Quick
            test_throughput_monotone;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "matches tail-forensics golden" `Quick
            test_phase_golden_match;
          Alcotest.test_case "phase oracles" `Quick test_phase_oracles;
          Alcotest.test_case "csv round-trip" `Quick test_csv_round_trip;
        ] );
      ( "cluster golden",
        [
          Alcotest.test_case "replay bit-identical" `Quick
            test_cluster_replay_bit_identical;
          Alcotest.test_case "matches checked-in golden" `Quick
            test_cluster_golden_match;
          Alcotest.test_case "failover split holds" `Quick
            test_cluster_oracles;
        ] );
      ( "steal golden",
        [
          Alcotest.test_case "matches checked-in golden" `Quick
            test_steal_golden_match;
          Alcotest.test_case "dispatch split holds" `Quick test_steal_oracles;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "every golden spec bit-identical" `Quick
            test_parallel_bit_identical;
          Alcotest.test_case "point failure names the point" `Quick
            test_point_raises;
          Alcotest.test_case "killed worker is reported" `Quick
            test_worker_killed;
          Alcotest.test_case "jobs < 1 rejected" `Quick test_jobs_rejected;
        ] );
      ( "spec",
        [
          Alcotest.test_case "point seeds" `Quick test_point_seeds;
          Alcotest.test_case "unknown app rejected" `Quick
            test_unknown_app_rejected;
          Alcotest.test_case "bad grid rejected" `Quick
            test_bad_grid_rejected;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "knee" `Quick test_knee_synthetic;
          Alcotest.test_case "ranking" `Quick test_ranking_synthetic;
          Alcotest.test_case "monotonicity" `Quick test_monotone_synthetic;
          Alcotest.test_case "conservation" `Quick
            test_conservation_synthetic;
          Alcotest.test_case "golden bands" `Quick test_compare_golden_bands;
          Alcotest.test_case "failover" `Quick test_failover_synthetic;
          Alcotest.test_case "replication tail" `Quick
            test_replication_tail_synthetic;
          Alcotest.test_case "dataset accessors" `Quick
            test_dataset_accessors;
        ] );
    ]
