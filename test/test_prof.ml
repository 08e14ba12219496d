(* Critical-path profiler tests: the phase-sum invariant across every
   system x fabric x topology combination (matrix + qcheck), the
   perturbation-freedom claim (profiling on/off yields byte-identical
   measurements), attribution direction on clean runs (yield systems
   never busy-wait; spinning baselines never enter the fetch-wire
   phase), marshal identity through forked sweep workers, folded-stack
   well-formedness, the percentile windows behind Figs. 2(c)/7(c) and
   their busy-wait cross-check against the CPU accountant, and the
   failure direction of the tail-forensics oracles on synthetic
   fixtures — including the busy-wait-in-the-tail fixture for a yield
   system that the acceptance criteria require to FAIL. *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Export = Adios_core.Export
module Phase = Adios_prof.Phase
module Profiler = Adios_prof.Profiler
module Injector = Adios_fault.Injector
module Cluster = Adios_cluster.Cluster
module Clock = Adios_engine.Clock
module Spec = Adios_exp.Spec
module Sweep = Adios_exp.Sweep
module Dataset = Adios_exp.Dataset
module Oracle = Adios_exp.Oracle
module Registry = Adios_obs.Registry

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let no_violations name vs = check Alcotest.(list string) name [] vs

(* Every preset, plus mechanism combinations no preset names: a kernel
   fault path under yield (the design point of lightweight-threading
   swap systems) and preemption under yield. *)
let all_configs =
  let adios = Config.default Config.Adios in
  List.map Config.default Config.all
  @ [
      { adios with Config.kernel_path = true; name = "Adios+kernel" };
      { adios with Config.preempt = true; name = "Adios+preempt" };
    ]

let spinning = List.filter (fun c -> c.Config.wait = Config.Spin) all_configs
let yielding = List.filter (fun c -> c.Config.wait = Config.Yield) all_configs

let small_array () = Adios_apps.Array_bench.app ~pages:2048 ()

(* The three fabrics of the invariant matrix: clean, anomalous (drops +
   spikes + stalls with recovery armed), and a 3-node R=2 cluster that
   loses a node mid-run. *)
let clean cfg = cfg

let faulty cfg =
  {
    cfg with
    Config.fault =
      {
        Injector.none with
        Injector.drop = 0.05;
        spike = 0.05;
        stall = 0.02;
        stall_cycles = Clock.of_us 20.;
        seed = 7;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

let clustered cfg =
  {
    cfg with
    Config.cluster =
      {
        Cluster.default with
        Cluster.nodes = 3;
        replication = 2;
        crashes = 1;
        crash_at_us = 2000.;
      };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

let tweaks = [ ("clean", clean); ("faulty", faulty); ("cluster", clustered) ]

let run_profiled ?(cfg_tweak = clean) ?(seed = 42) ?metrics base ~load
    ~requests =
  let cfg = cfg_tweak { base with Config.seed } in
  Runner.run cfg (small_array ()) ~offered_krps:load ~requests ?metrics
    ~profile:true ()

let summary_exn name (r : Runner.result) =
  match r.Runner.prof with
  | Some s -> s
  | None -> Alcotest.fail (name ^ ": profiled run carries no prof summary")

(* The invariant bundle every profiled run must satisfy: no per-request
   sum violations, every admitted request finalized, bands partitioning
   the measured population, and per-band and per-window cycle
   conservation (a window's slashed queue share never exceeds its queue
   phase). *)
let assert_invariants name (r : Runner.result) =
  let s = summary_exn name r in
  check_int (name ^ ": phase-sum violations") 0 s.Profiler.violations;
  check_int (name ^ ": profiled = admitted") r.Runner.admitted
    s.Profiler.profiled;
  let band_requests =
    Array.fold_left (fun acc b -> acc + b.Profiler.requests) 0 s.Profiler.bands
  in
  check_int (name ^ ": bands partition the measured population")
    s.Profiler.measured band_requests;
  Array.iter
    (fun b ->
      check_int
        (Printf.sprintf "%s: band %s cycles conserve" name b.Profiler.band)
        b.Profiler.e2e_cycles
        (Array.fold_left ( + ) 0 b.Profiler.phase_cycles))
    s.Profiler.bands;
  Array.iter
    (fun w ->
      let name = Printf.sprintf "%s: %s window" name w.Profiler.band in
      check_int (name ^ " cycles conserve") w.Profiler.e2e_cycles
        (Array.fold_left ( + ) 0 w.Profiler.phase_cycles);
      check_bool (name ^ " slashed share within the queue wait") true
        (w.Profiler.slashed_queue
        <= w.Profiler.phase_cycles.(Phase.index Phase.Queue)))
    s.Profiler.windows

let test_invariant_matrix () =
  List.iter
    (fun cfg ->
      List.iter
        (fun (tname, tweak) ->
          let name = Printf.sprintf "%s/%s" cfg.Config.name tname in
          let r =
            run_profiled ~cfg_tweak:tweak cfg ~load:800. ~requests:6000
          in
          assert_invariants name r)
        tweaks)
    all_configs

(* qcheck widens the matrix over seeds and loads: any (system, fabric,
   seed, load) draw must preserve the invariant — the per-request
   telescoping proof does not depend on the schedule. *)
let prop_phase_sum_invariant =
  QCheck.Test.make ~name:"phase cycles sum to e2e on any config" ~count:15
    QCheck.(
      quad
        (int_range 0 (List.length all_configs - 1))
        (int_range 0 2) (int_range 1 10_000) (int_range 2 16))
    (fun (cfgi, tweaki, seed, load_hundreds) ->
      let cfg = List.nth all_configs cfgi in
      let _, tweak = List.nth tweaks tweaki in
      let load = float_of_int (load_hundreds * 100) in
      let r =
        run_profiled ~cfg_tweak:tweak ~seed cfg ~load ~requests:3000
      in
      let s = summary_exn "qcheck" r in
      s.Profiler.violations = 0 && s.Profiler.profiled = r.Runner.admitted)

(* Perturbation freedom: the whole exported row — every measurement the
   repo reports anywhere — is byte-identical with profiling on or off. *)
let test_perturbation_free () =
  List.iter
    (fun cfg ->
      let go profile =
        Runner.run cfg (small_array ()) ~offered_krps:900. ~requests:5000
          ~profile ()
      in
      let off = go false and on = go true in
      check Alcotest.string
        (cfg.Config.name ^ ": csv row identical on/off")
        (Export.csv_row off) (Export.csv_row on);
      check_bool
        (cfg.Config.name ^ ": prof present iff profiled")
        true
        (off.Runner.prof = None && on.Runner.prof <> None))
    all_configs

let phase_total s p =
  Array.fold_left
    (fun acc b -> acc + b.Profiler.phase_cycles.(Phase.index p))
    0 s.Profiler.bands

(* Clean-fabric attribution direction, per system class: a yield system
   never charges a cycle to busy-wait (its waits are wire + ready
   queue); a spinning baseline never enters the fetch-wire phase (its
   waits are all on-CPU). *)
let test_attribution_direction () =
  List.iter
    (fun cfg ->
      let name = cfg.Config.name in
      let r = run_profiled cfg ~load:1000. ~requests:6000 in
      let s = summary_exn name r in
      let busy = phase_total s Phase.Busy_wait
      and wire = phase_total s Phase.Fetch_wire in
      match cfg.Config.wait with
      | Config.Yield ->
        check_int (name ^ ": yield system never busy-waits") 0 busy;
        check_bool (name ^ ": waits show up as fetch wire") true (wire > 0)
      | Config.Spin ->
        check_bool (name ^ ": baseline spins on its faults") true (busy > 0);
        check_int (name ^ ": baseline never yields to the wire") 0 wire)
    all_configs

(* --- percentile windows (Figs. 2(c)/7(c)) ---------------------------------- *)

(* The window rule on a synthetic population with e2e = 1..1000: each
   window averages the requests within +-0.25% of the ranks around its
   percentile. *)
let test_window_rule () =
  let p = Profiler.create () in
  for i = 1 to 1000 do
    let r = Profiler.attach p ~id:i ~tx_at:0 ~now:0 in
    Profiler.finalize p r ~done_at:i ~errored:false ~measured:true
  done;
  let s = Profiler.summary p in
  let mean name =
    match
      Array.find_opt (fun w -> String.equal w.Profiler.band name)
        s.Profiler.windows
    with
    | Some w -> w.Profiler.e2e_cycles / max 1 w.Profiler.requests
    | None -> Alcotest.fail ("no window " ^ name)
  in
  check_bool "p50 window near 500" true (abs (mean "P50" - 500) < 20);
  check_bool "p99.9 window above 950" true (mean "P99.9" > 950)

(* Sum of a counter family's series whose labels satisfy [keep]. *)
let counter_sum reg name keep =
  List.fold_left
    (fun acc (m : Registry.metric) ->
      match m.Registry.value with
      | Registry.Counter read
        when String.equal m.Registry.name name && keep m.Registry.labels ->
        acc + read ()
      | Registry.Counter _ | Registry.Gauge _ | Registry.Histogram _ -> acc)
    0 (Registry.metrics reg)

let has k v labels =
  match List.assoc_opt k labels with
  | Some x -> String.equal x v
  | None -> false

(* Busy-wait cycles as the two views export them: the request view
   (profiler phases) and the CPU view (accountant, worker CPUs only). *)
let busy_wait_views ?cfg_tweak cfg ~load =
  let reg = Registry.create () in
  let r = run_profiled ?cfg_tweak ~metrics:reg cfg ~load ~requests:6000 in
  ( r,
    counter_sum reg "adios_req_phase_cycles_total" (has "phase" "busy_wait"),
    counter_sum reg "adios_cpu_state_cycles_total" (fun l ->
        has "state" "busy_wait" l && not (has "cpu" "dispatcher" l)) )

let dropping cfg =
  {
    cfg with
    Config.fault =
      { Injector.none with Injector.drop = 0.01; spike = 0.02; seed = 3 };
    fetch_timeout = Clock.of_us 50.;
    fetch_retries = 3;
  }

(* Cross-view oracle: every busy-wait cycle a worker CPU burns is spent
   on exactly one request's critical path, so the two views agree to
   the cycle for the spinning baselines, on a clean fabric and with
   drops; the yield systems show none in either view. *)
let test_busy_wait_cross_view () =
  List.iter
    (fun cfg ->
      List.iter
        (fun (tname, cfg_tweak) ->
          let name = Printf.sprintf "%s/%s" cfg.Config.name tname in
          let _, req, cpu = busy_wait_views ~cfg_tweak cfg ~load:1000. in
          check_bool (name ^ ": spins") true (cpu > 0);
          check_int (name ^ ": request view = CPU view") cpu req)
        [ ("clean", clean); ("drops", dropping); ("faulty", faulty) ])
    spinning;
  List.iter
    (fun cfg ->
      let name = cfg.Config.name in
      let r, req, cpu = busy_wait_views cfg ~load:1000. in
      check_int (name ^ ": no busy-wait, request view") 0 req;
      check_int (name ^ ": no busy-wait, CPU view") 0 cpu;
      Array.iter
        (fun w ->
          check_int (name ^ ": window has no slashed queue") 0
            w.Profiler.slashed_queue)
        (summary_exn name r).Profiler.windows)
    yielding;
  (* a synchronous TX spin outlives the request: the profiler closes it
     at reply RX while the worker still spins on the TX CQE *)
  let _, req, cpu =
    busy_wait_views (Config.default Config.Adios) ~load:1000.
      ~cfg_tweak:(fun c ->
        { c with Config.tx_mode = Config.Tx_sync_spin })
  in
  check_bool "sync TX: request view spins" true (req > 0);
  check_bool "sync TX: request view <= CPU view" true (req <= cpu)

(* --- sweep integration --------------------------------------------------- *)

let tiny_spec =
  Spec.make ~name:"prof-tiny"
    ~systems:[ Config.Adios; Config.Dilos ]
    ~apps:[ "array" ] ~loads:[ 400.; 1200. ] ~requests:3000 ()

let test_sweep_phases () =
  let run = Sweep.run ~jobs:1 ~profile:true tiny_spec in
  let pds = Dataset.phases_of_run run in
  (* one row per (point, band) *)
  check_int "rows = points x bands"
    (Spec.point_count tiny_spec * Profiler.band_count)
    (Dataset.length pds);
  no_violations "phase conservation on the sweep dataset"
    (Oracle.check_phase_conservation pds);
  (* forked workers marshal Runner.result (prof summary included) back:
     the phase dataset must survive the round-trip byte-identically *)
  let forked = Sweep.run ~jobs:2 ~profile:true tiny_spec in
  check Alcotest.string "phases CSV identical through forked workers"
    (Dataset.to_csv pds)
    (Dataset.to_csv (Dataset.phases_of_run forked));
  (* and the unprofiled dataset is byte-identical to the profiled one *)
  check Alcotest.string "main CSV identical with profiling on"
    (Dataset.to_csv (Dataset.of_run (Sweep.run ~jobs:1 tiny_spec)))
    (Dataset.to_csv (Dataset.of_run run))

(* --- folded stacks ------------------------------------------------------- *)

let test_folded_stacks () =
  let r = run_profiled (Config.default Config.Adios) ~load:1000. ~requests:6000 in
  let s = summary_exn "folded" r in
  let lines = Profiler.folded ~root:"Adios/array" s in
  check_bool "nonempty" true (lines <> []);
  let phase_names = List.map Phase.name Phase.all in
  let band_names = Array.to_list Profiler.band_names in
  List.iter
    (fun line ->
      match String.split_on_char ';' line with
      | [ root; band; leaf ] -> (
        check Alcotest.string "root frame" "Adios/array" root;
        check_bool ("known band: " ^ band) true (List.mem band band_names);
        match String.split_on_char ' ' leaf with
        | [ phase; cycles ] ->
          check_bool ("known phase: " ^ phase) true
            (List.mem phase phase_names);
          check_bool "positive cycle count" true
            (match int_of_string_opt cycles with
            | Some c -> c > 0
            | None -> false)
        | _ -> Alcotest.fail ("malformed leaf: " ^ leaf))
      | _ -> Alcotest.fail ("malformed folded line: " ^ line))
    lines

(* --- oracle failure directions on synthetic fixtures --------------------- *)

(* A hand-written tail-forensics row: identity columns, band population,
   then the 12 phase columns with every unnamed phase at zero. *)
let fixture_row ~system ~band ~requests ~e2e cells =
  let cell name =
    string_of_int
      (match List.assoc_opt name cells with Some v -> v | None -> 0)
  in
  [ "200.0"; "1"; system; "array"; band; string_of_int requests;
    string_of_int e2e ]
  @ List.map cell Export.phase_column_names

let fixture rows = { Dataset.header = Dataset.phase_columns; rows }

(* Healthy rows: an Adios tail dominated by irreducible wire time, a
   DiLOS tail dominated by spinning + queueing. *)
let healthy =
  fixture
    [
      fixture_row ~system:"Adios" ~band:"p99_p999" ~requests:40 ~e2e:1_000_000
        [ ("fetch_wire_cycles", 700_000); ("req_wire_cycles", 100_000);
          ("app_compute_cycles", 100_000); ("tx_cycles", 100_000) ];
      fixture_row ~system:"DiLOS" ~band:"p999_max" ~requests:4 ~e2e:1_000_000
        [ ("busy_wait_cycles", 500_000); ("queue_cycles", 300_000);
          ("app_compute_cycles", 200_000) ];
    ]

(* The acceptance fixture: a yield system whose tail is secretly
   busy-waiting. Attribution must call this out. *)
let busywait_in_tail =
  fixture
    [
      fixture_row ~system:"Adios" ~band:"p999_max" ~requests:10 ~e2e:1_000_000
        [ ("busy_wait_cycles", 600_000); ("app_compute_cycles", 200_000);
          ("pf_software_cycles", 200_000) ];
    ]

let test_tail_attribution_passes_healthy () =
  no_violations "healthy tails pass" (Oracle.check_phases healthy)

let test_tail_attribution_fails_busywait () =
  check_bool "busy-wait in a yield system's tail is flagged" true
    (Oracle.check_tail_attribution busywait_in_tail <> []);
  (* the fixture conserves cycles — only attribution fires *)
  no_violations "fixture conserves cycles"
    (Oracle.check_phase_conservation busywait_in_tail)

let test_conservation_fails_on_gap () =
  let broken =
    fixture
      [
        fixture_row ~system:"Adios" ~band:"p0_p50" ~requests:100 ~e2e:500_000
          [ ("fetch_wire_cycles", 400_000) ];
      ]
  in
  check_bool "a cycle gap is flagged" true
    (Oracle.check_phase_conservation broken <> [])

(* Empty bands (no tail population) must not divide by zero or fire. *)
let test_tail_attribution_skips_empty_bands () =
  let empty_tail =
    fixture
      [ fixture_row ~system:"Adios" ~band:"p999_max" ~requests:0 ~e2e:0 [] ]
  in
  no_violations "empty band rows are skipped"
    (Oracle.check_phases empty_tail)

let () =
  Alcotest.run "prof"
    [
      ( "invariant",
        [
          Alcotest.test_case "system x fabric matrix" `Quick
            test_invariant_matrix;
          QCheck_alcotest.to_alcotest prop_phase_sum_invariant;
        ] );
      ( "breakdown",
        [
          Alcotest.test_case "at_percentile" `Quick test_window_rule;
          Alcotest.test_case "busy-wait cross-view oracle" `Quick
            test_busy_wait_cross_view;
        ] );
      ( "perturbation",
        [ Alcotest.test_case "csv identical on/off" `Quick
            test_perturbation_free ] );
      ( "attribution",
        [
          Alcotest.test_case "yield vs spin direction" `Quick
            test_attribution_direction;
        ] );
      ( "sweep",
        [ Alcotest.test_case "phase dataset + fork replay" `Quick
            test_sweep_phases ] );
      ( "folded",
        [ Alcotest.test_case "well-formed stacks" `Quick test_folded_stacks ]
      );
      ( "oracle",
        [
          Alcotest.test_case "healthy tails pass" `Quick
            test_tail_attribution_passes_healthy;
          Alcotest.test_case "busy-wait tail fails" `Quick
            test_tail_attribution_fails_busywait;
          Alcotest.test_case "conservation gap fails" `Quick
            test_conservation_fails_on_gap;
          Alcotest.test_case "empty bands skipped" `Quick
            test_tail_attribution_skips_empty_bands;
        ] );
    ]
