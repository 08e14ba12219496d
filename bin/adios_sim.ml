(* Command-line front end: run a single experiment point on any
   (system, application, load) combination and print the measurements.

     adios_sim --system adios --app array --load 1300 --requests 60000
     adios_sim --system dilos --app rocksdb --load 500 --cdf
     adios_sim --system dilos --app array --load 1300 --breakdown *)

module Config = Adios_core.Config
module Runner = Adios_core.Runner
module Report = Adios_core.Report
module Summary = Adios_stats.Summary
module Profiler = Adios_prof.Profiler
module Clock = Adios_engine.Clock
module Sink = Adios_trace.Sink
module Chrome = Adios_trace.Chrome
module Timeline = Adios_trace.Timeline
module Checker = Adios_trace.Checker
module Registry = Adios_obs.Registry
module Openmetrics = Adios_obs.Openmetrics

let system_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Config.of_name s) in
  let print ppf s = Format.pp_print_string ppf (Config.system_name s) in
  Cmdliner.Arg.conv (parse, print)

let app_of_name s =
  match Adios_apps.Registry.find s with
  | Some make -> Ok (make ())
  | None -> Error (`Msg (Adios_apps.Registry.unknown s))

let app_conv =
  let print ppf (a : Adios_core.App.t) =
    Format.pp_print_string ppf a.Adios_core.App.name
  in
  Cmdliner.Arg.conv (app_of_name, print)

let dispatch_conv =
  let parse = function
    | "pf-aware" -> Ok Config.Pf_aware
    | "rr" | "round-robin" -> Ok Config.Round_robin
    | "partitioned" -> Ok Config.Partitioned
    | "stealing" | "work-stealing" -> Ok Config.Work_stealing
    | s -> Error (`Msg ("unknown dispatch policy: " ^ s))
  in
  let print ppf d = Format.pp_print_string ppf (Config.dispatch_name d) in
  Cmdliner.Arg.conv (parse, print)

let run system app load requests local_ratio dispatch prefetch no_delegation
    seed show_cdf show_breakdown trace_file timeseries_file trace_cap
    metrics_file metrics_csv_file metrics_interval_us fault_drop fault_spike
    fault_stall fault_throttle fault_seed fetch_timeout_us fetch_retries
    profile profile_out =
  let cfg = Config.default system in
  let fault =
    {
      Adios_fault.Injector.none with
      Adios_fault.Injector.drop = fault_drop;
      spike = fault_spike;
      stall = fault_stall;
      stall_cycles = (if fault_stall > 0. then Clock.of_us 20. else 0);
      throttle = fault_throttle;
      seed = fault_seed;
    }
  in
  let faulty = Adios_fault.Injector.enabled fault in
  let cfg =
    {
      cfg with
      Config.local_ratio;
      seed;
      dispatch = (match dispatch with Some d -> d | None -> cfg.Config.dispatch);
      prefetch =
        (if prefetch > 0 then Config.Stride prefetch else Config.No_prefetch);
      tx_mode =
        (if no_delegation then Config.Tx_sync_spin else cfg.Config.tx_mode);
      fault;
      (* recovery is armed only on a faulty fabric, keeping clean runs
         byte-identical to builds without the injector *)
      fetch_timeout =
        (if faulty then Clock.of_us fetch_timeout_us else 0);
      fetch_retries;
    }
  in
  let trace =
    match trace_file with
    | None -> Sink.null
    | Some _ -> Sink.create ~capacity:trace_cap
  in
  let timeline =
    match timeseries_file with None -> None | Some _ -> Some (Timeline.create ())
  in
  let metrics =
    match (metrics_file, metrics_csv_file) with
    | None, None -> None
    | _ -> Some (Registry.create ())
  in
  let snapshot =
    match metrics_csv_file with None -> None | Some _ -> Some (Timeline.create ())
  in
  let profile = profile || show_breakdown || profile_out <> None in
  let r =
    Runner.run cfg app ~offered_krps:load ~requests ~trace ?timeline ?metrics
      ?snapshot
      ~sample_period:(Clock.of_us metrics_interval_us)
      ~profile ()
  in
  Report.result_line r;
  Report.cpu_efficiency ~title:"CPU efficiency" [ (r.Runner.system, r) ];
  List.iter
    (fun (k, s) -> Format.printf "%-6s %a@." k Summary.pp s)
    r.Runner.kind_summaries;
  if show_cdf then Report.cdf ~title:"latency CDF" r;
  let write path f =
    try f () with
    | Sys_error msg ->
      Format.eprintf "adios_sim: cannot write %s: %s@." path msg;
      exit 1
  in
  (match r.Runner.prof with
  | None -> ()
  | Some s ->
    Report.phase_breakdown ~title:"critical-path phases"
      [ (r.Runner.system, r) ];
    Report.breakdown ~title:"latency breakdown by percentile window" r;
    Report.phase_bands ~title:"tail forensics (mean cycles/request per band)" r;
    Report.slowest_requests ~title:"slowest requests" r;
    (match profile_out with
    | None -> ()
    | Some path ->
      let root = Printf.sprintf "%s/%s" r.Runner.system r.Runner.app in
      let lines = Profiler.folded ~root s in
      write path (fun () ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              List.iter
                (fun l ->
                  output_string oc l;
                  output_char oc '\n')
                lines));
      Format.printf "profile: %d folded stacks -> %s@." (List.length lines)
        path);
    (* the per-request invariant is a correctness gate, not a warning:
       a nonzero count means a probe is misplaced *)
    if s.Profiler.violations > 0 then begin
      Format.eprintf "adios_sim: %d requests violated the phase-sum invariant@."
        s.Profiler.violations;
      exit 1
    end);
  (match (timeseries_file, timeline) with
  | Some path, Some tl ->
    write path (fun () -> Timeline.write_csv ~path tl);
    Format.printf "timeseries: %d samples x %d series -> %s@." (Timeline.length tl)
      (List.length (Timeline.names tl))
      path
  | _ -> ());
  (match (metrics_csv_file, snapshot) with
  | Some path, Some snap ->
    write path (fun () -> Timeline.write_csv ~path snap);
    Format.printf "metrics csv: %d samples x %d series -> %s@."
      (Timeline.length snap)
      (List.length (Timeline.names snap))
      path
  | _ -> ());
  (match (metrics_file, metrics) with
  | Some path, Some reg ->
    let text = Openmetrics.render reg in
    write path (fun () ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text));
    (* feed the exposition back through the validator: a malformed
       export is a bug, not a warning (the CI metrics-smoke gate) *)
    (match Openmetrics.validate text with
    | Ok () ->
      Format.printf "metrics: %d series -> %s@."
        (List.length (Registry.metrics reg))
        path
    | Error msg ->
      Format.eprintf "adios_sim: malformed OpenMetrics output: %s@." msg;
      exit 1)
  | _ -> ());
  match trace_file with
  | None -> ()
  | Some path ->
    let events = Sink.to_list trace in
    write path (fun () -> Chrome.write ~path events);
    Format.printf "trace: %d events -> %s%s@." (List.length events) path
      (if Sink.truncated trace then
         Printf.sprintf " (ring full: %d oldest events dropped)"
           (Sink.dropped trace)
       else "");
    (* a truncated ring loses span openings, so only a complete trace is
       held to the strict invariants *)
    let report =
      Checker.check
        ~strict:(not (Sink.truncated trace))
        ~spans_dropped:(Sink.dropped trace) events
    in
    Format.printf "%a@." Checker.pp report;
    if not (Checker.ok report) then exit 1

open Cmdliner

(* Range-checked converters: an out-of-range value is a usage error
   (exit 124), never a silently nonsensical run or an uncaught
   exception deep in the simulator. *)
let ranged ~kind of_string ~ok ~range print =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | Some _ -> Error (`Msg ("must be " ^ range))
    | None -> Error (`Msg (Printf.sprintf "not %s: %s" kind s))
  in
  Arg.conv (parse, print)

let int_conv = ranged ~kind:"an integer" int_of_string_opt Format.pp_print_int
let float_conv = ranged ~kind:"a number" float_of_string_opt Format.pp_print_float
let positive_int = int_conv ~ok:(fun n -> n > 0) ~range:"positive"
let non_negative_int = int_conv ~ok:(fun n -> n >= 0) ~range:"non-negative"

let positive_float =
  float_conv ~ok:(fun x -> Float.is_finite x && x > 0.) ~range:"positive"

let non_negative_float =
  float_conv ~ok:(fun x -> Float.is_finite x && x >= 0.) ~range:"non-negative"

let probability = float_conv ~ok:(fun p -> p >= 0. && p <= 1.) ~range:"in [0, 1]"

(* a simulated duration must last at least one cycle *)
let duration_us =
  float_conv
    ~ok:(fun x -> Float.is_finite x && Clock.of_us x > 0)
    ~range:(Printf.sprintf "at least one cycle (%gus)" (Clock.to_us 1))

let system_arg =
  Arg.(
    value
    & opt system_conv Config.Adios
    & info [ "system"; "s" ] ~docv:"SYSTEM"
        ~doc:"System under test: adios, dilos, dilos-p, hermit or steal.")

let app_arg =
  Arg.(
    value
    & opt app_conv (Adios_apps.Array_bench.app ())
    & info [ "app"; "a" ] ~docv:"APP"
        ~doc:
          "Application: array, memcached, memcached-1024, rocksdb, silo or \
           faiss.")

let load_arg =
  Arg.(
    value & opt positive_float 1000.
    & info [ "load"; "l" ] ~docv:"KRPS" ~doc:"Offered load in KRPS.")

let requests_arg =
  Arg.(
    value & opt positive_int 40_000
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Requests to inject.")

let ratio_arg =
  Arg.(
    value & opt probability 0.2
    & info [ "local-ratio" ] ~docv:"F"
        ~doc:"Local DRAM as a fraction of the working set (default 0.2).")

let dispatch_arg =
  Arg.(
    value
    & opt (some dispatch_conv) None
    & info [ "dispatch" ] ~docv:"POLICY"
        ~doc:
          "Queueing policy: pf-aware, rr, partitioned or stealing (default: \
           the system's own).")

let prefetch_arg =
  Arg.(
    value & opt non_negative_int 0
    & info [ "prefetch" ] ~docv:"DEGREE"
        ~doc:"Stride-prefetch up to DEGREE pages per detected stride (0 = off).")

let no_delegation_arg =
  Arg.(
    value & flag
    & info [ "no-delegation" ]
        ~doc:"Disable polling delegation: workers busy-wait on reply TX.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let cdf_arg =
  Arg.(value & flag & info [ "cdf" ] ~doc:"Print the latency CDF.")

let breakdown_arg =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:
          "Alias of --profile. Its output includes the latency breakdown \
           of Figs. 2(c)/7(c): mean phase cycles of the requests around \
           P10/P50/P99/P99.9 of end-to-end latency.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the whole run and write it to FILE in \
           Chrome trace_event JSON (load in Perfetto or chrome://tracing). \
           The trace-derived invariant checker runs on the recorded events; \
           violations are printed and make the run exit non-zero.")

let timeseries_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample queue depths, in-flight faults, free frames and link \
           utilization every 5us and write the series to FILE as CSV.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the full metrics registry (system counters, NIC / pager / \
           reclaimer metrics, per-CPU time-in-state accounting) to FILE in \
           OpenMetrics text exposition at the end of the run. The output is \
           re-validated with the built-in parser; a malformed exposition \
           makes the run exit non-zero.")

let metrics_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-csv" ] ~docv:"FILE"
        ~doc:
          "Sample every scalar metric periodically (see \
           --metrics-interval-us) and write the series to FILE as CSV. \
           Shares its sampling clock with --timeseries, so rows of the two \
           files align 1:1.")

let metrics_interval_arg =
  Arg.(
    value & opt duration_us 5.
    & info [ "metrics-interval-us" ] ~docv:"US"
        ~doc:
          "Sampling period in microseconds for --metrics-csv and \
           --timeseries (default 5).")

let trace_cap_arg =
  Arg.(
    value & opt positive_int 1_048_576
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:
          "Trace ring-buffer capacity in events; when full the oldest \
           events are overwritten (the trace is truncated, not the run \
           aborted).")

let fault_drop_arg =
  Arg.(
    value & opt probability 0.
    & info [ "fault-drop" ] ~docv:"P"
        ~doc:
          "Drop each READ completion with probability P (the fetch is \
           recovered by timeout + repost; see --fetch-timeout-us).")

let fault_spike_arg =
  Arg.(
    value & opt probability 0.
    & info [ "fault-spike" ] ~docv:"P"
        ~doc:
          "Inflate each NIC completion's latency with probability P by a \
           lognormal extra delay.")

let fault_stall_arg =
  Arg.(
    value & opt probability 0.
    & info [ "fault-stall" ] ~docv:"P"
        ~doc:
          "On each completion, with probability P stall that QP: its \
           completions are delayed until the stall window passes.")

let fault_throttle_arg =
  Arg.(
    value & opt non_negative_float 0.
    & info [ "fault-throttle" ] ~docv:"F"
        ~doc:
          "Slow the memory node: stretch every fetch-direction \
           serialization by a factor of (1 + F).")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the injector's private RNG; the same seed and schedule \
           replay the same faults byte-identically, independent of the \
           workload seed.")

let fetch_timeout_arg =
  Arg.(
    value & opt duration_us 50.
    & info [ "fetch-timeout-us" ] ~docv:"US"
        ~doc:
          "Declare a page fetch lost after US microseconds without a \
           completion and repost it (doubling per retry). Armed only when \
           a fault flag is set.")

let fetch_retries_arg =
  Arg.(
    value & opt non_negative_int 3
    & info [ "fetch-retries" ] ~docv:"N"
        ~doc:
          "Reposts allowed per fetch before the request gives up and \
           replies with an error status.")

let profile_flag_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the streaming critical-path profiler and print the \
           per-phase breakdown, the P10/P50/P99/P99.9 latency breakdown, \
           the per-latency-band tail forensics and the slowest-requests \
           digest. Profiling is perturbation-free: \
           every measurement is byte-identical with or without it. The \
           run exits non-zero if any request's phase cycles fail to sum \
           to its end-to-end latency.")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write folded flamegraph stacks (one \
           'system/app;band;phase cycles' line per nonzero band x phase; \
           feed to flamegraph.pl) to FILE. Implies --profile.")

let cmd =
  let doc =
    "run one memory-disaggregation experiment point (Adios reproduction)"
  in
  Cmd.v
    (Cmd.info "adios_sim" ~doc)
    Term.(
      const run $ system_arg $ app_arg $ load_arg $ requests_arg $ ratio_arg
      $ dispatch_arg $ prefetch_arg $ no_delegation_arg $ seed_arg $ cdf_arg
      $ breakdown_arg $ trace_arg $ timeseries_arg $ trace_cap_arg
      $ metrics_out_arg $ metrics_csv_arg $ metrics_interval_arg
      $ fault_drop_arg $ fault_spike_arg $ fault_stall_arg
      $ fault_throttle_arg $ fault_seed_arg $ fetch_timeout_arg
      $ fetch_retries_arg $ profile_flag_arg $ profile_out_arg)

let () = exit (Cmd.eval cmd)
