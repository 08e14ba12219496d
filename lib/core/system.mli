(** The simulated compute node: dispatcher, workers, page-fault handling
    and reply transmission. Behaviour follows the mechanism fields of
    {!Config.t}, never a system name; the five systems under test are
    presets over them ({!Config.default}).

    Datapath (Figs. 1, 3, 5): client packets arrive through
    {!receive}, are admitted into the bounded single queue, dispatched to
    idle workers (Algorithm 1 or round-robin), and served inside
    unithreads whose paged memory accesses fault through the configured
    mechanisms:

    - [wait = Spin]: the fault busy-waits on the completion (DiLOS).
    - [wait = Yield]: the fault posts a one-sided READ and the unithread
      yields; the worker resumes it when the completion is polled
      (Adios).
    - [preempt]: 5 us cooperative preemption at the application's
      checkpoint probes (DiLOS-P).
    - [kernel_path]: kernel-path fault costs, per-request kernel entry
      and kernel jitter (Hermit).
    - [dispatch = Work_stealing]: arrivals are sprayed round-robin over
      per-CPU run queues, and an idle worker steals queued arrivals from
      siblings' local queues, then blocked-then-resumed requests from
      their ready queues (re-homing the request onto its own QPs). *)

type t

type counters = {
  mutable admitted : int;
  mutable drops_queue : int;  (** central queue full *)
  mutable drops_buffer : int;  (** buffer pool exhausted *)
  mutable handled : int;  (** request handlers run to completion *)
  mutable errored : int;
      (** handlers aborted by fetch-retry exhaustion; their replies carry
          an error status but still count toward conservation *)
  mutable faults : int;  (** page faults taken (fetches issued) *)
  mutable coalesced : int;  (** faults absorbed by an in-flight fetch *)
  mutable qp_stalls : int;  (** fault handler pauses on a full QP *)
  mutable preemptions : int;  (** quantum expirations under [preempt] *)
  mutable writeback_stalls : int;  (** reclaimer pauses on a full QP *)
  mutable frame_stalls : int;
      (** faults that found no free frame and had to wait for the
          reclaimer — the out-of-memory stalls section 3.3 eliminates *)
  mutable fetch_timeouts : int;
      (** page fetches declared lost after [Config.fetch_timeout] cycles
          without a completion *)
  mutable fetch_retries : int;  (** fetches reposted after a timeout *)
  mutable retries_hwm : int;
      (** most reposts any single fetch needed (bounded by
          [Config.fetch_retries]) *)
  mutable drops_qp : int;
      (** posts refused by a full QP on the prefetch path (the prefetch
          is abandoned, never silently lost) *)
  mutable steals : int;
      (** requests taken from a sibling worker's queue under
          [Work_stealing] dispatch: queued arrivals from local queues
          and blocked-then-resumed requests from ready queues *)
}

val create :
  ?trace:Adios_trace.Sink.t ->
  ?prof:Adios_prof.Profiler.t ->
  Adios_engine.Sim.t ->
  Config.t ->
  App.t ->
  on_reply:(Request.t -> unit) ->
  t
(** Build the node: arena (populated via the app's [build]), pager warmed
    to steady state, NICs and links, buffer pool, reclaimer, dispatcher
    and worker processes. [on_reply] fires at the load generator when a
    reply packet lands (its hardware RX timestamp is [Request.done_at]).

    [trace] (default {!Adios_trace.Sink.null}, which records nothing and
    costs one branch per probe) receives the full span stream: request
    admission/dispatch/run, fault and RDMA intervals, TX, reclaim and
    stall events. Recording never blocks or consults the RNG, so enabling
    it does not perturb the simulation.

    [prof] (off by default) attaches critical-path attribution to every
    admitted request: phase-switch probes planted beside the
    accountant's state switches decompose each request's end-to-end
    latency into the exact {!Adios_prof.Phase} segmentation. Like the
    trace sink and the accountant, the probes are perturbation-free —
    the caller finalizes each request from [on_reply]. *)

val receive : t -> Request.t -> unit
(** Deliver a client request packet (wired to the inbound raw-Ethernet
    channel by the runner). *)

val counters : t -> counters

val faults_injected : t -> int
(** Completions suppressed or delayed by the fault injector so far
    (0 on a clean fabric). *)


val pager : t -> Adios_mem.Pager.t
val reclaimer : t -> Adios_mem.Reclaimer.t
val buffers : t -> Adios_unithread.Buffer_pool.t

val rdma_rx_link : t -> Adios_rdma.Link.t
(** Node 0's memory-to-compute link carrying page fetches (the
    utilization plotted in Figs. 2(e)/7(e)); see
    {!Adios_cluster.Cluster.total_rx_bytes} for the whole topology. *)

val cluster : t -> Adios_cluster.Cluster.t
(** The memory-node topology: placement directory, per-node links and
    NICs, failover and re-replication state. *)

val prefetch_stats : t -> Adios_mem.Prefetcher.stats
(** Prefetch engine accounting (issued / useful / wasted). *)

val pending_depth : t -> int
(** Requests sitting in the central queue right now (gauge). *)

val ready_backlog : t -> int
(** Entries across all per-worker ready + local queues (gauge). *)

val busy_workers : t -> int
(** Workers currently not idle (gauge). *)

val accountant : t -> Adios_obs.Accountant.t
(** Per-CPU time-in-state accounting: slots [0 .. workers-1] are the
    workers, the last slot the dispatcher. Always on — the switches only
    settle integrators and cannot perturb the run. *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Register every counter this module owns, the occupancy gauges, the
    NIC / pager / reclaimer metrics and the CPU-state accounting into
    [reg] under [labels]. The single registration point the
    [metric-registry] lint rule checks the [counters] record against. *)
