module Summary = Adios_stats.Summary
module Clock = Adios_engine.Clock
module Accountant = Adios_obs.Accountant
module Phase = Adios_prof.Phase
module Profiler = Adios_prof.Profiler

let pf = Printf.printf

let header title =
  pf "\n==== %s ====\n" title

let pick_percentile (s : Summary.t) = function
  | "p50" -> s.Summary.p50
  | "p99" -> s.Summary.p99
  | "p99.9" -> s.Summary.p999
  | "p10" -> s.Summary.p10
  | p -> invalid_arg ("Report: unknown percentile " ^ p)

let us v = Clock.to_us v

let series_table ~title ~ylabel ~rows systems =
  pf "\n-- %s --\n" title;
  pf "%-14s" "offered_krps";
  List.iter (fun (name, _) -> pf "%14s" name) systems;
  pf "    (%s)\n" ylabel;
  rows ()

let latency_of_result ~kind ~percentile (r : Runner.result) =
  match kind with
  | None -> pick_percentile r.Runner.e2e percentile
  | Some k -> (
    match List.assoc_opt k r.Runner.kind_summaries with
    | Some s -> pick_percentile s percentile
    | None -> 0)

let latency_table ~title ~kind ~percentile systems =
  let points =
    match systems with [] -> 0 | (_, rs) :: _ -> List.length rs
  in
  series_table ~title ~ylabel:(percentile ^ " latency, us")
    ~rows:(fun () ->
      for i = 0 to points - 1 do
        let offered =
          (List.nth (snd (List.hd systems)) i).Runner.offered_krps
        in
        pf "%-14.0f" offered;
        List.iter
          (fun (_, rs) ->
            let r = List.nth rs i in
            pf "%14.2f" (us (latency_of_result ~kind ~percentile r)))
          systems;
        pf "\n"
      done)
    systems

let latency_vs_load ~title ~percentile systems =
  latency_table ~title ~kind:None ~percentile systems

let kind_latency_vs_load ~title ~kind ~percentile systems =
  latency_table ~title ~kind:(Some kind) ~percentile systems

let throughput_vs_load ~title systems =
  let points =
    match systems with [] -> 0 | (_, rs) :: _ -> List.length rs
  in
  series_table ~title ~ylabel:"achieved krps" ~rows:(fun () ->
      for i = 0 to points - 1 do
        let offered =
          (List.nth (snd (List.hd systems)) i).Runner.offered_krps
        in
        pf "%-14.0f" offered;
        List.iter
          (fun (_, rs) ->
            pf "%14.0f" (List.nth rs i).Runner.achieved_krps)
          systems;
        pf "\n"
      done)
    systems

let util_vs_load ~title systems =
  let points =
    match systems with [] -> 0 | (_, rs) :: _ -> List.length rs
  in
  series_table ~title ~ylabel:"rdma wire util %" ~rows:(fun () ->
      for i = 0 to points - 1 do
        let offered =
          (List.nth (snd (List.hd systems)) i).Runner.offered_krps
        in
        pf "%-14.0f" offered;
        List.iter
          (fun (_, rs) ->
            pf "%14.1f" (100. *. (List.nth rs i).Runner.rdma_util))
          systems;
        pf "\n"
      done)
    systems

let cdf ~title (r : Runner.result) =
  pf "\n-- %s --\n" title;
  pf "%-14s %s\n" "latency_us" "cdf";
  List.iter
    (fun (v, frac) -> pf "%-14.2f %.5f\n" (us v) frac)
    (Adios_stats.Histogram.cdf r.Runner.e2e_hist ~points:40 ())

let peak_throughput systems =
  List.map
    (fun (name, rs) ->
      ( name,
        List.fold_left
          (fun acc (r : Runner.result) -> Float.max acc r.Runner.achieved_krps)
          0. rs ))
    systems

(* largest per-load-point P99.9 improvement over the baseline — the
   paper's "up to N x better P99.9" metric *)
let max_tail_ratio base_rs rs =
  List.fold_left2
    (fun acc (b : Runner.result) (r : Runner.result) ->
      let bt = b.Runner.e2e.Summary.p999
      and rt = r.Runner.e2e.Summary.p999 in
      if bt > 0 && rt > 0 then Float.max acc (float_of_int bt /. float_of_int rt)
      else acc)
    0. base_rs rs

let summary_speedups ~baseline systems =
  match List.assoc_opt baseline systems with
  | None -> pf "summary: baseline %s missing\n" baseline
  | Some base_rs ->
    let peaks = peak_throughput systems in
    let base_peak = List.assoc baseline peaks in
    pf "\n-- speedups vs %s --\n" baseline;
    List.iter
      (fun (name, rs) ->
        if name <> baseline && List.length rs = List.length base_rs then begin
          let peak = List.assoc name peaks in
          pf "%-10s peak throughput x%.2f   P99.9 up to x%.2f\n" name
            (peak /. base_peak) (max_tail_ratio base_rs rs)
        end)
      systems

(* The paper's busy-wait-elimination evidence (Fig. 2): where did each
   worker cycle go. One row per accounting state, one column pair per
   system: cycles burned per completed request, and the fraction of all
   worker cycles (dispatcher excluded; shares sum to ~100%). *)
let cpu_efficiency ~title systems =
  pf "\n-- %s --\n" title;
  pf "%-14s" "state";
  List.iter (fun (name, _) -> pf "%15s %7s" name "share") systems;
  pf "    (cycles/request, worker-cycle %%)\n";
  List.iter
    (fun st ->
      pf "%-14s" (Accountant.state_name st);
      List.iter
        (fun (_, (r : Runner.result)) ->
          let workers = max 1 (r.Runner.cpu.Accountant.cpus - 1) in
          let cycles = Accountant.state_cycles r.Runner.cpu ~cpus:workers st in
          let per_req =
            float_of_int cycles /. float_of_int (max 1 r.Runner.completed)
          in
          let share = Accountant.share r.Runner.cpu ~cpus:workers st in
          pf "%15.0f %6.1f%%" per_req (100. *. share))
        systems;
      pf "\n")
    Accountant.states

(* Display label of a request phase. An explicit per-constructor match,
   like {!Export.phase_column} — the phase-wiring lint holds it against
   [Phase.all] so new phases cannot be silently invisible in reports. *)
let phase_label = function
  | Phase.Req_wire -> "req wire+rx"
  | Phase.Queue -> "queue wait"
  | Phase.Ctx_switch -> "ctx switch"
  | Phase.App_compute -> "app compute"
  | Phase.Pf_software -> "pf software"
  | Phase.Busy_wait -> "busy-wait"
  | Phase.Fetch_wire -> "fetch wire"
  | Phase.Retry_backoff -> "retry backoff"
  | Phase.Failover_wait -> "failover wait"
  | Phase.Steal_wait -> "ready wait"
  | Phase.Cq_poll -> "cq poll"
  | Phase.Tx -> "tx+reply wire"

let prof_phase_cycles (s : Profiler.summary) p =
  Array.fold_left
    (fun acc (b : Profiler.band_stats) ->
      acc + b.Profiler.phase_cycles.(Phase.index p))
    0 s.Profiler.bands

let prof_e2e_cycles (s : Profiler.summary) =
  Array.fold_left
    (fun acc (b : Profiler.band_stats) -> acc + b.Profiler.e2e_cycles)
    0 s.Profiler.bands

(* The request-side twin of {!cpu_efficiency}: where did each *request*
   cycle go, end to end — one row per attribution phase, one column
   pair per system (cycles per measured request, share of total e2e
   cycles; shares sum to exactly 100% by the conservation invariant).
   Unlike the CPU table this includes off-CPU time: wire, queueing,
   ready waits. Systems run without profiling print dashes. *)
let phase_breakdown ~title systems =
  pf "\n-- %s --\n" title;
  pf "%-14s" "phase";
  List.iter (fun (name, _) -> pf "%15s %7s" name "share") systems;
  pf "    (cycles/measured request, e2e-cycle %%)\n";
  List.iter
    (fun p ->
      pf "%-14s" (phase_label p);
      List.iter
        (fun (_, (r : Runner.result)) ->
          match r.Runner.prof with
          | None -> pf "%15s %7s" "-" "-"
          | Some s ->
            let cycles = prof_phase_cycles s p in
            let e2e = max 1 (prof_e2e_cycles s) in
            let per_req =
              float_of_int cycles
              /. float_of_int (max 1 s.Profiler.measured)
            in
            pf "%15.0f %6.1f%%" per_req
              (100. *. float_of_int cycles /. float_of_int e2e))
        systems;
      pf "\n")
    Phase.all

(* One row per request population — a latency band or a percentile
   window: mean cycles per request in each phase (they sum exactly to
   the total), with the busy-wait share of the queue wait (Fig. 2(c)'s
   slashed area) beside the queue column. *)
let population_table ~title ~what (r : Runner.result) pick =
  match r.Runner.prof with
  | None -> ()
  | Some s ->
    pf "\n-- %s --\n" title;
    pf "%-10s %9s" what "requests";
    List.iter
      (fun p ->
        pf "%14s" (phase_label p);
        if p = Phase.Queue then pf "%14s" "(busy-wait)")
      Phase.all;
    pf "%14s    (mean cycles/request)\n" "total";
    Array.iter
      (fun (b : Profiler.band_stats) ->
        let n = float_of_int (max 1 b.Profiler.requests) in
        let mean c = float_of_int c /. n in
        pf "%-10s %9d" b.Profiler.band b.Profiler.requests;
        List.iter
          (fun p ->
            pf "%14.0f" (mean b.Profiler.phase_cycles.(Phase.index p));
            if p = Phase.Queue then pf "%14.0f" (mean b.Profiler.slashed_queue))
          Phase.all;
        pf "%14.0f\n" (mean b.Profiler.e2e_cycles))
      (pick s)

(* Figs. 2(c)/7(c): where a request's time goes near P10/P50/P99/P99.9
   of end-to-end latency. *)
let breakdown ~title r =
  population_table ~title ~what:"pctile" r (fun s -> s.Profiler.windows)

(* Tail forensics: "what do the p99.9 stragglers wait on that the median
   does not", read directly off one run. *)
let phase_bands ~title r =
  population_table ~title ~what:"band" r (fun s -> s.Profiler.bands)

(* Top-K digest: the slowest measured requests with their three biggest
   phases, each with its share of that request's end-to-end latency. *)
let slowest_requests ~title ?(top = 10) (r : Runner.result) =
  match r.Runner.prof with
  | None -> ()
  | Some s ->
    pf "\n-- %s --\n" title;
    let k = min top (Array.length s.Profiler.slowest) in
    for i = 0 to k - 1 do
      let sl = s.Profiler.slowest.(i) in
      let ranked =
        List.sort
          (fun a b -> Int.compare (snd b) (snd a))
          (List.map
             (fun p -> (p, sl.Profiler.cycles.(Phase.index p)))
             Phase.all)
      in
      let e2e = max 1 sl.Profiler.e2e in
      pf "#%-3d req=%-8d e2e=%9.2fus " (i + 1) sl.Profiler.id
        (us sl.Profiler.e2e);
      List.iteri
        (fun j (p, c) ->
          if j < 3 && c > 0 then
            pf " %s=%.2fus (%.0f%%)" (Phase.name p) (us c)
              (100. *. float_of_int c /. float_of_int e2e))
        ranked;
      pf "\n"
    done

let result_line (r : Runner.result) =
  pf
    "%s/%s offered=%.0fkrps achieved=%.0fkrps drop=%.3f p50=%.2fus \
     p99=%.2fus p99.9=%.2fus util=%.1f%% faults=%d evict=%d preempt=%d \
     qp_stalls=%d\n"
    r.Runner.system r.Runner.app r.Runner.offered_krps r.Runner.achieved_krps
    r.Runner.drop_fraction
    (us r.Runner.e2e.Summary.p50)
    (us r.Runner.e2e.Summary.p99)
    (us r.Runner.e2e.Summary.p999)
    (100. *. r.Runner.rdma_util)
    r.Runner.faults r.Runner.evictions r.Runner.preemptions r.Runner.qp_stalls;
  if r.Runner.faults_injected > 0 || r.Runner.fetch_timeouts > 0 then
    pf
      "  faults: injected=%d timeouts=%d retries=%d (max/fetch %d) \
       errored=%d qp_drops=%d\n"
      r.Runner.faults_injected r.Runner.fetch_timeouts r.Runner.fetch_retries
      r.Runner.retries_hwm r.Runner.errored r.Runner.drops_qp;
  if r.Runner.nodes > 1 || r.Runner.nodes_failed > 0 then
    pf
      "  cluster: nodes=%d R=%d failed=%d failovers=%d rereplicated=%d \
       lost_writes=%d dead_reads=%d\n"
      r.Runner.nodes r.Runner.replication r.Runner.nodes_failed
      r.Runner.failovers r.Runner.rereplicated r.Runner.lost_writes
      r.Runner.dead_reads
