(* Streaming critical-path profiler: one tiny mutable record per
   admitted request, advanced by lib/core/system.ml's [enter] probe,
   the same call that moves the per-CPU accountant's state. A switch
   closes the current segment at [Sim.now] and
   opens the next, so the per-phase cycle array telescopes from the
   client TX timestamp to the reply RX timestamp: phase cycles sum
   EXACTLY to end-to-end latency, by construction, for every request —
   the invariant [finalize] re-checks and test_prof qchecks across all
   five systems, fault configs and cluster topologies.

   Like the accountant and the trace sink, the profiler is
   perturbation-free: probes only read [Sim.now] and mutate arrays,
   never schedule events or consult the RNG, so enabling profiling
   cannot change a run's results (gated by a byte-identity test). All
   aggregation state is plain data — safe to Marshal across forked
   sweep workers. *)

module Registry = Adios_obs.Registry

type req = {
  id : int;
  tx_at : int;
  cycles : int array;  (* Phase.count slots, cycles per phase *)
  mutable phase : Phase.t;
  mutable entered_at : int;
  mutable closed : bool;
      (* set by [finalize]: under [Tx_sync_spin] the reply can land at
         the client while the worker is still spinning on the TX CQE,
         so probes after finalization must be no-ops — those cycles are
         outside the request's end-to-end window by definition *)
  mutable queued_busy : int;
      (* the worker CPUs' busy-wait cycles when it last entered a queue *)
  mutable slashed : int;
      (* busy-wait share of its queue waits: Fig. 2(c)'s slashed area *)
}

(* One finalized measured request, retained for band and window
   aggregation and the top-K digest. *)
type sample = { sid : int; e2e : int; scycles : int array; sslashed : int }

type t = {
  mutable attached : int;
  mutable finalized : int;
  mutable errored : int;
  mutable sum_violations : int;
  live_cycles : int array;
      (* accumulated over every finalized request (warmup and errors
         included): the monotone series behind adios_req_phase_* *)
  mutable samples : sample array;
  mutable len : int;
}

let none : sample = { sid = -1; e2e = 0; scycles = [||]; sslashed = 0 }

let create () =
  {
    attached = 0;
    finalized = 0;
    errored = 0;
    sum_violations = 0;
    live_cycles = Array.make Phase.count 0;
    samples = Array.make 1024 none;
    len = 0;
  }

let attach t ~id ~tx_at ~now =
  t.attached <- t.attached + 1;
  let r =
    {
      id;
      tx_at;
      cycles = Array.make Phase.count 0;
      phase = Phase.Req_wire;
      entered_at = tx_at;
      closed = false;
      queued_busy = 0;
      slashed = 0;
    }
  in
  (* admission closes the wire+RX segment and opens the queue wait *)
  r.cycles.(Phase.index Phase.Req_wire) <- now - tx_at;
  r.phase <- Phase.Queue;
  r.entered_at <- now;
  r

let switch r ~now p =
  if (not r.closed) && Phase.index p <> Phase.index r.phase then begin
    let i = Phase.index r.phase in
    r.cycles.(i) <- r.cycles.(i) + (now - r.entered_at);
    r.phase <- p;
    r.entered_at <- now
  end

(* Is the request currently parked on an in-flight fetch? Only then do
   retry and failover transitions apply; a busy-waiting baseline stays
   in [Busy_wait] through its reposts (the CPU never stops spinning,
   which is precisely the pathology under measurement). *)
let waiting_on_fetch r =
  match r.phase with
  | Phase.Fetch_wire | Phase.Retry_backoff | Phase.Failover_wait -> true
  | Phase.Req_wire | Phase.Queue | Phase.Ctx_switch | Phase.App_compute
  | Phase.Pf_software | Phase.Busy_wait | Phase.Steal_wait | Phase.Cq_poll
  | Phase.Tx ->
    false

let note_retry r ~now =
  if (not r.closed) && waiting_on_fetch r then switch r ~now Phase.Retry_backoff

let note_failover r ~now =
  if (not r.closed) && waiting_on_fetch r then
    switch r ~now Phase.Failover_wait

let enqueued r ~busy_wait = r.queued_busy <- busy_wait

let dequeued r ~busy_wait ~workers =
  r.slashed <- r.slashed + ((busy_wait - r.queued_busy) / max 1 workers)

let push t s =
  if t.len = Array.length t.samples then begin
    let grown = Array.make (2 * t.len) none in
    Array.blit t.samples 0 grown 0 t.len;
    t.samples <- grown
  end;
  t.samples.(t.len) <- s;
  t.len <- t.len + 1

let finalize t r ~done_at ~errored ~measured =
  if not r.closed then begin
    let i = Phase.index r.phase in
    r.cycles.(i) <- r.cycles.(i) + (done_at - r.entered_at);
    r.closed <- true;
    t.finalized <- t.finalized + 1;
    if errored then t.errored <- t.errored + 1;
    let sum = ref 0 in
    for p = 0 to Phase.count - 1 do
      t.live_cycles.(p) <- t.live_cycles.(p) + r.cycles.(p);
      sum := !sum + r.cycles.(p)
    done;
    if !sum <> done_at - r.tx_at then
      t.sum_violations <- t.sum_violations + 1;
    if measured && not errored then
      push t
        {
          sid = r.id;
          e2e = done_at - r.tx_at;
          scycles = r.cycles;
          sslashed = r.slashed;
        }
  end

let attached t = t.attached
let finalized t = t.finalized
let sum_violations t = t.sum_violations

(* --- aggregation --------------------------------------------------------- *)

let band_count = 4
let band_names = [| "p0_p50"; "p50_p99"; "p99_p999"; "p999_max" |]
let window_percentiles = [| 10.; 50.; 99.; 99.9 |]

type band_stats = {
  band : string;
  requests : int;
  e2e_cycles : int;  (* total end-to-end cycles over the population *)
  phase_cycles : int array;  (* per-phase totals; sums to [e2e_cycles] *)
  slashed_queue : int;  (* busy-wait share of the queue phase *)
}

type slow = { id : int; e2e : int; cycles : int array }

type summary = {
  profiled : int;  (* requests finalized (warmup + errors included) *)
  measured : int;  (* post-warmup, non-errored: the banded population *)
  errored : int;
  violations : int;  (* requests whose phases failed to sum to e2e *)
  bands : band_stats array;  (* length [band_count], band_names order *)
  windows : band_stats array;  (* one per [window_percentiles] entry *)
  slowest : slow array;  (* top-K by e2e, descending *)
}

(* Order statistic with Histogram.percentile's convention: the value at
   rank max(1, ceil(p/100 * n)) of the ascending sample. *)
let rank_of ~n p =
  let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  if r < 1 then 1 else if r > n then n else r

let summary ?(top_k = 32) t =
  let n = t.len in
  (* measured samples by descending e2e (ties by id): ascending rank [r]
     is [ranked (n - 1 - r)] *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Int.compare t.samples.(b).e2e t.samples.(a).e2e in
      if c <> 0 then c else Int.compare t.samples.(a).sid t.samples.(b).sid)
    order;
  let ranked i = t.samples.(order.(i)) in
  (* one population's totals over the ascending ranks [lo, hi] *)
  let aggregate band ~lo ~hi =
    let e2e = ref 0 and slashed = ref 0 in
    let phase_cycles = Array.make Phase.count 0 in
    for r = lo to hi do
      let s = ranked (n - 1 - r) in
      e2e := !e2e + s.e2e;
      slashed := !slashed + s.sslashed;
      for p = 0 to Phase.count - 1 do
        phase_cycles.(p) <- phase_cycles.(p) + s.scycles.(p)
      done
    done;
    {
      band;
      requests = max 0 (hi - lo + 1);
      e2e_cycles = !e2e;
      phase_cycles;
      slashed_queue = !slashed;
    }
  in
  let thr p = if n = 0 then 0 else (ranked (n - rank_of ~n p)).e2e in
  let p50 = thr 50. and p99 = thr 99. and p999 = thr 99.9 in
  let band_of e2e =
    if e2e <= p50 then 0
    else if e2e <= p99 then 1
    else if e2e <= p999 then 2
    else 3
  in
  (* a band is a run of consecutive ranks: band_of is monotone in e2e *)
  let sizes = Array.make band_count 0 in
  for i = 0 to n - 1 do
    let b = band_of t.samples.(i).e2e in
    sizes.(b) <- sizes.(b) + 1
  done;
  let bands =
    Array.init band_count (fun b ->
        let lo = ref 0 in
        for b' = 0 to b - 1 do
          lo := !lo + sizes.(b')
        done;
        aggregate band_names.(b) ~lo:!lo ~hi:(!lo + sizes.(b) - 1))
  in
  (* Each window spans +-0.25% of the ranks (at least one either side)
     around its percentile, the averaging rule of Figs. 2(c)/7(c). *)
  let window p =
    let rank = int_of_float (p /. 100. *. float_of_int (n - 1)) in
    let half = max 1 (n / 400) in
    aggregate (Printf.sprintf "P%g" p) ~lo:(max 0 (rank - half))
      ~hi:(min (n - 1) (rank + half))
  in
  let k = if top_k < n then top_k else n in
  let slowest =
    Array.init k (fun i ->
        let s = ranked i in
        { id = s.sid; e2e = s.e2e; cycles = Array.copy s.scycles })
  in
  {
    profiled = t.finalized;
    measured = n;
    errored = t.errored;
    violations = t.sum_violations;
    bands;
    windows = Array.map window window_percentiles;
    slowest;
  }

(* --- folded flamegraph stacks ------------------------------------------- *)

(* flamegraph.pl / speedscope folded format: one `frame;frame count`
   line per (band, phase) with nonzero cycles, rooted at [root]
   (typically "system/app"). Bands nest under the root so the graph
   reads "where do tail requests spend their cycles" at a glance. *)
let folded ~root s =
  let lines = ref [] in
  for b = band_count - 1 downto 0 do
    let st = s.bands.(b) in
    List.iter
      (fun p ->
        let c = st.phase_cycles.(Phase.index p) in
        if c > 0 then
          lines :=
            Printf.sprintf "%s;%s;%s %d" root st.band (Phase.name p) c
            :: !lines)
      Phase.all
  done;
  !lines

(* --- OpenMetrics -------------------------------------------------------- *)

let register_metrics t reg ~labels =
  List.iter
    (fun p ->
      Registry.counter reg ~name:"adios_req_phase_cycles_total"
        ~help:
          "critical-path cycles attributed to each request phase, summed \
           over finalized requests"
        ~labels:(labels @ [ ("phase", Phase.name p) ])
        (fun () -> t.live_cycles.(Phase.index p)))
    Phase.all;
  Registry.counter reg ~name:"adios_req_profiled_total"
    ~help:"requests whose phase segmentation was finalized" ~labels
    (fun () -> t.finalized);
  Registry.counter reg ~name:"adios_req_phase_sum_violations_total"
    ~help:
      "finalized requests whose phase cycles failed to sum to their \
       end-to-end latency (always 0 unless the profiler itself is broken)"
    ~labels
    (fun () -> t.sum_violations)
