(** Streaming critical-path profiler: decomposes each admitted request's
    end-to-end latency into an exact, non-overlapping {!Phase}
    segmentation, then aggregates per-phase HDR histograms conditioned
    on the request's latency band (p0–p50, p50–p99, p99–p99.9,
    >p99.9) — so "what do tail requests spend their time on" is a
    first-class query.

    Invariant: for every finalized request, phase cycles sum exactly to
    end-to-end latency (reply RX − client TX). The probes guarantee it
    by telescoping — each switch closes the current segment at the
    switch instant — and {!finalize} re-checks it per request, counting
    failures into {!sum_violations}.

    Probes are perturbation-free (they read [Sim.now] and mutate
    arrays; no events, no RNG): enabling profiling cannot change a
    run's results. All state is plain data, safe to Marshal across
    forked sweep workers. *)

type req
(** Per-request attribution state, held on [Request.t]. *)

type t
(** A profiler instance: one per run. *)

val create : unit -> t

val attach : t -> id:int -> tx_at:int -> now:int -> req
(** Open attribution for an admitted request: the [tx_at, now) wire+RX
    segment is charged to [Req_wire] and the request enters [Queue].
    Called once per admission, so attached = admitted. *)

val switch : req -> now:int -> Phase.t -> unit
(** Close the current segment at [now] and enter the given phase.
    No-op when the phase is unchanged or the request is finalized. *)

val note_retry : req -> now:int -> unit
(** The in-flight fetch timed out and was reposted: subsequent wait is
    [Retry_backoff]. No-op unless the request is parked on a fetch —
    a busy-waiting baseline stays in [Busy_wait] through its reposts. *)

val note_failover : req -> now:int -> unit
(** The fetch was rerouted to a surviving replica: subsequent wait is
    [Failover_wait]. Same parked-on-fetch guard as {!note_retry}. *)

val enqueued : req -> busy_wait:int -> unit
(** The request entered (or re-entered) a queue while the worker CPUs
    had accrued [busy_wait] busy-wait cycles in total. *)

val dequeued : req -> busy_wait:int -> workers:int -> unit
(** A worker took the request: the busy-wait cycles the worker CPUs
    accrued since {!enqueued}, divided by [workers], add to the
    request's slashed queue share — the part of its queue wait the
    paper's Fig. 2(c) attributes to busy-waiting workers. *)

val finalize :
  t -> req -> done_at:int -> errored:bool -> measured:bool -> unit
(** Close the open segment at [done_at] (the reply's client RX stamp),
    verify the sum invariant, and fold the request into the aggregate.
    Only [measured] (post-warmup) non-errored requests enter the banded
    population; every request feeds the live metric counters. Probes
    arriving after finalization are no-ops (under [Tx_sync_spin] the
    reply can land while the worker still spins on the TX CQE). *)

val attached : t -> int
val finalized : t -> int

val sum_violations : t -> int
(** Requests whose phase cycles failed to sum to end-to-end latency;
    0 unless the probe placement itself is broken (CI gates on it). *)

(** {1 Aggregation} *)

val band_count : int
val band_names : string array
(** ["p0_p50"; "p50_p99"; "p99_p999"; "p999_max"] — latency bands by
    end-to-end percentile of the measured population. *)

val window_percentiles : float array
(** [[|10.; 50.; 99.; 99.9|]]: the rows of Figs. 2(c)/7(c). A window
    holds the measured requests within +-0.25% of the ranks (at least
    one either side) around a percentile of end-to-end latency. *)

type band_stats = {
  band : string;
      (** the population: a band name, or ["P10"] ... ["P99.9"] for a
          percentile window *)
  requests : int;
  e2e_cycles : int;  (** total end-to-end cycles over the population *)
  phase_cycles : int array;
      (** per-phase totals, {!Phase.index} order; sums to [e2e_cycles]
          exactly (the conservation oracle re-checks this per band) *)
  slashed_queue : int;
      (** busy-wait share of the queue waits (see {!dequeued}), at most
          the [Queue] total: the slashed area of Fig. 2(c) *)
}

type slow = { id : int; e2e : int; cycles : int array }

type summary = {
  profiled : int;  (** requests finalized (warmup + errors included) *)
  measured : int;  (** post-warmup non-errored: the banded population *)
  errored : int;
  violations : int;
  bands : band_stats array;  (** length {!band_count} *)
  windows : band_stats array;  (** one per {!window_percentiles} entry *)
  slowest : slow array;  (** top-K requests by e2e, descending *)
}

val summary : ?top_k:int -> t -> summary
(** Band thresholds are computed over the measured population at call
    time (default [top_k] 32). Plain data, marshal-safe. *)

val folded : root:string -> summary -> string list
(** flamegraph.pl-style folded stacks, one
    ["root;band;phase cycles"] line per nonzero (band, phase). *)

val register_metrics :
  t -> Adios_obs.Registry.t -> labels:(string * string) list -> unit
(** Register [adios_req_phase_cycles_total] (one series per phase,
    labelled [phase=<name>]), [adios_req_profiled_total] and
    [adios_req_phase_sum_violations_total] under [labels]. *)
