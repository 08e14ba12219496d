module Sim = Adios_engine.Sim
module Proc = Adios_engine.Proc
module Clock = Adios_engine.Clock
module Rng = Adios_engine.Rng
module Raw_eth = Adios_rdma.Raw_eth
module Link = Adios_rdma.Link
module Histogram = Adios_stats.Histogram
module Summary = Adios_stats.Summary
module Timeline = Adios_trace.Timeline
module Trace_sink = Adios_trace.Sink
module Profiler = Adios_prof.Profiler
module Accountant = Adios_obs.Accountant
module Registry = Adios_obs.Registry
module Sampler = Adios_obs.Sampler
module Cluster = Adios_cluster.Cluster

type result = {
  system : string;
  app : string;
  requests : int;
  offered_krps : float;
  achieved_krps : float;
  drop_fraction : float;
  e2e : Summary.t;
  kind_summaries : (string * Summary.t) list;
  e2e_hist : Histogram.t;
  rdma_util : float;
  faults : int;
  coalesced : int;
  evictions : int;
  preemptions : int;
  qp_stalls : int;
  frame_stalls : int;
  writeback_stalls : int;
  drops_queue : int;
  drops_buffer : int;
  prefetches : int * int * int;
  admitted : int;
  handled : int;
  completed : int;
  dropped : int;
  buffer_hwm : int;
  errored : int;
  fetch_timeouts : int;
  fetch_retries : int;
  retries_hwm : int;
  faults_injected : int;
  drops_qp : int;
  steals : int;
  spans_dropped : int;
  nodes : int;
  replication : int;
  crashes : int;
  nodes_failed : int;
  failovers : int;
  rereplicated : int;
  lost_writes : int;
  dead_reads : int;
  sim_events : int;
  clamped_schedules : int;
  cpu : Accountant.snapshot;
  cpu_app_share : float;
  cpu_pf_sw_share : float;
  cpu_busy_wait_share : float;
  cpu_cq_poll_share : float;
  cpu_ctx_switch_share : float;
  cpu_dispatch_share : float;
  cpu_tx_share : float;
  cpu_idle_share : float;
  prof : Profiler.summary option;
      (* per-request phase attribution, present when the run profiled *)
}

(* The standard gauge set every time-series run records (DESIGN.md's
   occupancy signals): queue depths, fault pipeline, memory pressure and
   fetch-link utilization over the sampling window. *)
let register_gauges timeline system =
  let pager = System.pager system in
  Timeline.add_gauge timeline ~name:"queue_depth" (fun () ->
      float_of_int (System.pending_depth system));
  Timeline.add_gauge timeline ~name:"ready_backlog" (fun () ->
      float_of_int (System.ready_backlog system));
  Timeline.add_gauge timeline ~name:"busy_workers" (fun () ->
      float_of_int (System.busy_workers system));
  Timeline.add_gauge timeline ~name:"inflight_faults" (fun () ->
      float_of_int (Adios_mem.Pager.inflight pager));
  Timeline.add_gauge timeline ~name:"free_frames" (fun () ->
      float_of_int (Adios_mem.Pager.free_frames pager));
  Timeline.add_gauge timeline ~name:"buffers_in_use" (fun () ->
      float_of_int
        (Adios_unithread.Buffer_pool.in_use (System.buffers system)));
  let link = System.rdma_rx_link system in
  let last = ref (Link.snapshot link) in
  Timeline.add_gauge timeline ~name:"rdma_rx_util" (fun () ->
      let u = Link.utilization_since link ~snapshot:!last in
      last := Link.snapshot link;
      u)

let run cfg app ~offered_krps ~requests ?warmup ?(max_seconds = 30.) ?trace
    ?timeline ?metrics ?snapshot ?(sample_period = Clock.of_us 5.)
    ?(profile = false) () =
  Config.validate cfg;
  let warmup = match warmup with Some w -> w | None -> requests / 10 in
  let sim = Sim.create () in
  let prof = if profile then Some (Profiler.create ()) else None in
  let e2e_hist = Histogram.create () in
  let kind_hists =
    Array.init (Array.length app.App.kinds) (fun _ -> Histogram.create ())
  in
  let replies = ref 0 and recorded = ref 0 in
  let on_reply (req : Request.t) =
    incr replies;
    (match (prof, req.Request.prof) with
    | Some p, Some r ->
      (* warmup and errored requests are finalized (the sum invariant
         holds for them too) but kept out of the banded population,
         mirroring the e2e histogram's filter below *)
      Profiler.finalize p r ~done_at:req.Request.done_at
        ~errored:req.Request.errored
        ~measured:(req.Request.id > warmup)
    | (Some _ | None), _ -> ());
    (* error replies count toward conservation but would poison the
       latency statistics: they return early, after the retry budget *)
    if req.Request.id > warmup && not req.Request.errored then begin
      incr recorded;
      Histogram.record e2e_hist (Request.e2e_latency req);
      let kind = req.Request.spec.Request.kind in
      if kind >= 0 && kind < Array.length kind_hists then
        Histogram.record kind_hists.(kind) (Request.e2e_latency req)
    end
  in
  let system = System.create ?trace ?prof sim cfg app ~on_reply in
  let labels = [ ("system", cfg.Config.name) ] in
  (match metrics with
  | Some reg -> System.register_metrics system reg ~labels
  | None -> ());
  (match (metrics, prof) with
  | Some reg, Some p -> Profiler.register_metrics p reg ~labels
  | (Some _ | None), _ -> ());
  (* one shared sampling clock drives both periodic consumers, so the
     gauge timeline and the metrics snapshot CSV have aligned rows. The
     sampler is a plain process: it shifts spawn sequence numbers but
     emits no events into the datapath, so enabling it only adds rows
     to the CSVs (which is why sweeps run without it). *)
  let sampler = Sampler.create sim ~period:sample_period in
  (match timeline with
  | Some tl ->
    register_gauges tl system;
    Sampler.on_tick sampler (fun ~ts -> Timeline.sample tl ~ts)
  | None -> ());
  (match snapshot with
  | Some snap ->
    let reg =
      match metrics with
      | Some reg -> reg
      | None ->
        let reg = Registry.create () in
        System.register_metrics system reg ~labels;
        reg
    in
    Registry.attach_timeline reg snap;
    Sampler.on_tick sampler (fun ~ts -> Timeline.sample snap ~ts)
  | None -> ());
  Sampler.start sampler;
  let client_link =
    Link.create sim ~gbps:Params.link_gbps ~wire_overhead:Params.wire_overhead
      ()
  in
  let to_compute =
    Raw_eth.create sim ~link:client_link
      ~latency_cycles:Params.eth_latency_cycles
      ~deliver:(fun ~rx_at:_ req -> System.receive system req)
  in
  (* measurement window bookkeeping, armed when the warmup ends *)
  let window_start = ref 0 in
  let fetch_snapshot = ref 0 in
  let drops_at_start = ref 0 in
  let counters = System.counters system in
  let drops () =
    counters.System.drops_queue + counters.System.drops_buffer
  in
  let loadgen_rng = Rng.create (cfg.Config.seed + 1) in
  let mean_gap =
    float_of_int Clock.cycles_per_sec /. (offered_krps *. 1000.)
  in
  Proc.spawn sim (fun () ->
      for i = 1 to requests do
        Proc.wait
          (int_of_float (Rng.exponential loadgen_rng ~mean:mean_gap));
        if i = warmup + 1 then begin
          window_start := Sim.now sim;
          fetch_snapshot := Cluster.total_rx_bytes (System.cluster system);
          drops_at_start := drops ()
        end;
        let spec = app.App.gen loadgen_rng in
        let req = Request.make ~id:i ~spec ~tx_at:(Sim.now sim) in
        Raw_eth.send to_compute ~bytes:spec.Request.req_bytes req
      done);
  let horizon = Clock.of_sec max_seconds in
  let finished () = !replies + drops () >= requests in
  while (not (finished ())) && Sim.now sim < horizon && Sim.step sim do
    ()
  done;
  Adios_mem.Reclaimer.stop (System.reclaimer system);
  let window = max 1 (Sim.now sim - !window_start) in
  let window_sec = Clock.to_sec window in
  let recorded_drops = drops () - !drops_at_start in
  let offered_window =
    float_of_int (requests - warmup) /. window_sec /. 1000.
  in
  let cluster = System.cluster system in
  let fetched_bytes =
    Cluster.total_rx_bytes cluster - !fetch_snapshot
  in
  (* utilization over the aggregate fetch capacity: one link per memory
     node (node_count = 1 divides by exactly 1.0, bit-for-bit) *)
  let rdma_util =
    float_of_int fetched_bytes
    *. (1. +. Params.wire_overhead)
    *. 8.
    /. (Params.link_gbps *. 1e9 *. window_sec
        *. float_of_int (Cluster.node_count cluster))
  in
  let kind_summaries =
    Array.to_list
      (Array.mapi
         (fun i h -> (app.App.kinds.(i), Summary.of_histogram h))
         kind_hists)
  in
  let cpu = Accountant.snapshot (System.accountant system) in
  (* shares over worker slots only: the dispatcher is a separate CPU
     and would dilute the per-worker picture *)
  let share st = Accountant.share cpu ~cpus:cfg.Config.workers st in
  {
    system = cfg.Config.name;
    app = app.App.name;
    requests;
    offered_krps = offered_window;
    achieved_krps = float_of_int !recorded /. window_sec /. 1000.;
    drop_fraction =
      float_of_int recorded_drops /. float_of_int (max 1 (requests - warmup));
    e2e = Summary.of_histogram e2e_hist;
    kind_summaries;
    e2e_hist;
    rdma_util;
    faults = counters.System.faults;
    coalesced = counters.System.coalesced;
    evictions = Adios_mem.Reclaimer.evictions (System.reclaimer system);
    preemptions = counters.System.preemptions;
    qp_stalls = counters.System.qp_stalls;
    frame_stalls = counters.System.frame_stalls;
    writeback_stalls = counters.System.writeback_stalls;
    drops_queue = counters.System.drops_queue;
    drops_buffer = counters.System.drops_buffer;
    prefetches =
      (let ps = System.prefetch_stats system in
       ( ps.Adios_mem.Prefetcher.issued,
         ps.Adios_mem.Prefetcher.useful,
         ps.Adios_mem.Prefetcher.wasted ));
    admitted = counters.System.admitted;
    handled = counters.System.handled;
    completed = !replies;
    dropped = drops ();
    buffer_hwm =
      Adios_unithread.Buffer_pool.high_watermark (System.buffers system);
    errored = counters.System.errored;
    fetch_timeouts = counters.System.fetch_timeouts;
    fetch_retries = counters.System.fetch_retries;
    retries_hwm = counters.System.retries_hwm;
    faults_injected = System.faults_injected system;
    drops_qp = counters.System.drops_qp;
    steals = counters.System.steals;
    spans_dropped =
      (match trace with Some tr -> Trace_sink.dropped tr | None -> 0);
    nodes = Cluster.node_count cluster;
    replication = (Cluster.config cluster).Cluster.replication;
    crashes = (Cluster.config cluster).Cluster.crashes;
    nodes_failed = Cluster.nodes_failed cluster;
    failovers = Cluster.failovers cluster;
    rereplicated = Cluster.rereplicated cluster;
    lost_writes = Cluster.lost_writes cluster;
    dead_reads = Cluster.dead_reads cluster;
    sim_events = Sim.events_processed sim;
    clamped_schedules = Sim.clamped_schedules sim;
    cpu;
    cpu_app_share = share Accountant.App_compute;
    cpu_pf_sw_share = share Accountant.Pf_software;
    cpu_busy_wait_share = share Accountant.Busy_wait;
    cpu_cq_poll_share = share Accountant.Cq_poll;
    cpu_ctx_switch_share = share Accountant.Ctx_switch;
    cpu_dispatch_share = share Accountant.Dispatch;
    cpu_tx_share = share Accountant.Tx;
    cpu_idle_share = share Accountant.Idle;
    prof = Option.map (fun p -> Profiler.summary p) prof;
  }
