(** Table rendering for experiment results — each function prints one
    paper figure/table as rows on stdout so EXPERIMENTS.md can quote
    bench output verbatim. *)

val header : string -> unit
(** Banner line for an experiment section. *)

val latency_vs_load :
  title:string -> percentile:string -> (string * Runner.result list) list -> unit
(** One row per offered-load point, one column per system:
    [percentile] is ["p50"], ["p99"] or ["p99.9"]. *)

val kind_latency_vs_load :
  title:string ->
  kind:string ->
  percentile:string ->
  (string * Runner.result list) list ->
  unit
(** Like {!latency_vs_load} but for one request class (GET or SCAN). *)

val throughput_vs_load : title:string -> (string * Runner.result list) list -> unit
(** Offered vs achieved KRPS per system (Figs. 2(d)/7(d)). *)

val util_vs_load : title:string -> (string * Runner.result list) list -> unit
(** Offered load vs RDMA wire utilization (Figs. 2(e)/7(e)). *)

val cdf : title:string -> Runner.result -> unit
(** Latency CDF of one run (Fig. 2(b)). *)

val peak_throughput : (string * Runner.result list) list -> (string * float) list
(** Highest achieved KRPS per system across a sweep. *)

val summary_speedups :
  baseline:string -> (string * Runner.result list) list -> unit
(** Print, against [baseline], each system's peak-throughput ratio and
    its largest per-load-point P99.9 improvement — the conclusion's
    "up to N x" headline numbers. *)

val cpu_efficiency : title:string -> (string * Runner.result) list -> unit
(** CPU-efficiency table (the paper's busy-wait-elimination evidence):
    one row per accounting state, one column pair per system — cycles
    per completed request and the fraction of worker cycles (dispatcher
    excluded). *)

val phase_label : Adios_prof.Phase.t -> string
(** Human-readable label of an attribution phase (explicit
    per-constructor match, checked by the phase-wiring lint). *)

val breakdown : title:string -> Runner.result -> unit
(** Figs. 2(c)/7(c): mean per-request phase cycles in the profiler's
    P10/P50/P99/P99.9 windows (requests ranked by end-to-end latency),
    with the busy-wait share of the queue wait beside the queue column.
    No output when the run did not profile. *)

val phase_breakdown : title:string -> (string * Runner.result) list -> unit
(** Request-side twin of {!cpu_efficiency}: one row per critical-path
    phase, one column pair per system — cycles per measured request and
    the share of total end-to-end cycles (shares sum to 100% by the
    phase-conservation invariant). Includes off-CPU time (wire, queue,
    ready waits), which the CPU table cannot see. Dashes for systems
    run without [~profile:true]. *)

val phase_bands : title:string -> Runner.result -> unit
(** Tail forensics for one run: mean per-request phase cycles in each
    latency band (p0–p50, p50–p99, p99–p99.9, >p99.9). No output when
    the run did not profile. *)

val slowest_requests : title:string -> ?top:int -> Runner.result -> unit
(** Top-K digest (default 10): the slowest measured requests with their
    three dominant phases and per-phase shares of that request's
    end-to-end latency. No output when the run did not profile. *)

val result_line : Runner.result -> unit
(** One-line dump of a single run (diagnostics). *)
