(** Figure-shape oracles over sweep datasets: knee detection, cross-system
    ranking, throughput monotonicity, request-conservation checks tying
    rows back to the exported counters, and golden comparison with
    absolute tolerance bands. Each check returns human-readable
    violations; an empty list is a pass. *)

type violation = string

val curve : Dataset.t -> system:string -> app:string -> string list list
(** Rows of one (system, app) series, ascending by nominal load. *)

val knee : ?k:float -> Dataset.t -> system:string -> app:string -> float option
(** First load whose P99.9 exceeds [k] (default 3) times the lowest-load
    baseline P99.9; [None] if the curve never collapses in-grid. *)

val knees : ?k:float -> Dataset.t -> app:string -> (string * float option) list
(** {!knee} for every system present in the dataset. *)

val check_knees_detected : ?k:float -> Dataset.t -> app:string -> violation list
(** Every system's knee must fall inside the load grid. *)

val check_ranking :
  ?k:float -> ?best:string -> Dataset.t -> app:string -> violation list
(** [best] (default ["Adios"]) must knee at a load at least as high as
    every other system's; a missing knee counts as beyond-the-grid. *)

val check_throughput_monotone : ?slack:float -> Dataset.t -> violation list
(** Achieved throughput may climb and plateau but never fall below
    [1 - slack] (default [slack = 0.2]) of the best rate seen earlier in
    the curve. *)

val check_conservation : Dataset.t -> violation list
(** Per-row counter identities: completed + dropped = requests,
    dropped = drops_queue + drops_buffer, handled + errored = completed,
    completed = admitted, prefetch useful + wasted <= issued. *)

val cpu_share_columns : string list
(** The eight worker-cycle-share columns, in export order. *)

val check_cpu_conservation : ?tol:float -> Dataset.t -> violation list
(** Per-row conservation of worker cycles: the eight state shares must
    sum to 1 within [tol] (default 0.01, covering CSV rounding). A gap
    or double-count in the accounting instrumentation fails here. *)

val yield_systems : string list
(** Labels of the presets whose faults yield instead of spinning
    ([wait = Yield]: Adios and Steal); {!check_busywait_elimination}
    holds these to the near-zero bound and everything else to the
    spinning floor. *)

val check_busywait_elimination :
  ?adios_max:float -> ?spin_min:float -> Dataset.t -> violation list
(** The paper's headline direction: every yield-based system's busy-wait
    share stays below [adios_max] (default 0.02) at every point, while
    every spinning baseline's peak busy-wait share reaches at least
    [spin_min] (default 0.3) somewhere in its curve. *)

val check_phase_conservation : Dataset.t -> violation list
(** Tail-forensics rows (see {!Dataset.phases_of_run}): the per-phase
    cycle columns must sum EXACTLY — integer equality, no tolerance —
    to [e2e_cycles] on every band row. The profiler's per-request
    invariant, re-proved from the CSV after aggregation and parsing. *)

val tail_bands : string list
(** The band labels making up the tail: ["p99_p999"; "p999_max"]. *)

val check_tail_attribution :
  ?busy_max:float ->
  ?spin_min:float ->
  ?wire_min:float ->
  Dataset.t ->
  violation list
(** The attribution direction on populated tail-band rows. Per row:
    yield systems spend at most [busy_max] (default 0.02) of band
    latency busy-waiting — the yield path never spins, at any load.
    Per (system, app) curve: the peak tail share of the class's
    signature wait must reach the floor somewhere — busy-wait + queue
    at [spin_min] (default 0.25) for spinning baselines, wire + queue
    + ready waits at [wire_min] (default 0.25) for yield systems —
    because at low load a heavy-tailed app's compute legitimately owns
    the tail. Fails (by design) on a synthetic busy-wait-in-the-tail
    fixture for a yield system. *)

val check_phases :
  ?busy_max:float ->
  ?spin_min:float ->
  ?wire_min:float ->
  Dataset.t ->
  violation list
(** The bundle for a phase dataset: {!check_phase_conservation} plus
    {!check_tail_attribution}. *)

val check_steal_activity : Dataset.t -> violation list
(** Steal rows must record at least one sibling-queue steal somewhere in
    the curve, and every single-queue system's steals column must be
    identically zero. *)

val check_steal_tail : ?factor:float -> Dataset.t -> violation list
(** Below Adios's knee, Steal's P99.9 must stay within [factor]
    (default 5) of Adios's at the same load — distributed dispatch with
    stealing stays in the centralized queue's latency regime. *)

val check_failover : ?tail_factor:float -> Dataset.t -> violation list
(** Cluster crash rows (requires the cluster columns): the scheduled
    crash must fire; R >= 2 rows must ride through with zero errored
    requests, at least one failover read, and a P99.9 within
    [tail_factor] (default 10) of the no-crash twin; R = 1 rows must
    surface errors for the dead primary's pages. *)

val check_replication_tail : ?factor:float -> Dataset.t -> violation list
(** On healthy (no-crash) rows, the R = 2 P99.9 must stay within
    [factor] (default 3) of the R = 1 twin at the same (nodes, load) —
    replicated write-backs must not poison the read tail. *)

type tolerance = Exact | Band of { abs : float; rel : float }

val default_tolerance : string -> tolerance
(** Per-column bands: identity columns exact; latencies 2 us or 25%;
    rates 10 krps or 5%; fractions absolute; counters 50 or 25%. *)

val phase_tolerance : string -> tolerance
(** Bands for the phase goldens: identity and band columns exact,
    band populations near-exact, cycle totals 50k cycles or 35%. *)

val compare_golden :
  ?tolerance:(string -> tolerance) ->
  golden:Dataset.t ->
  Dataset.t ->
  violation list
(** Column-by-column comparison against a golden dataset. The simulator
    is deterministic, so an unchanged tree matches bit-for-bit; the
    bands bound how far an intentional model change may shift each
    measurement before the golden must be regenerated. *)

val check_all : ?k:float -> Dataset.t -> violation list
(** The standard bundle: knees detected and ranked per app, throughput
    monotone, request conservation, worker-cycle-share conservation,
    busy-wait elimination direction. *)

val check_cluster :
  ?tail_factor:float -> ?factor:float -> Dataset.t -> violation list
(** The bundle for a clustered sweep: conservation identities plus
    {!check_failover} and {!check_replication_tail}. (Knee and ranking
    shapes need multi-system load curves, which a topology-grid sweep
    does not carry.) *)

val check_steal : ?k:float -> ?factor:float -> Dataset.t -> violation list
(** The bundle for the steal-reduced golden (Adios vs Steal): knees
    detected, throughput monotone, conservation, cycle-share
    conservation, busy-wait elimination, {!check_steal_activity} and
    {!check_steal_tail}. Ranking is deliberately not gated — which
    dispatch knees first at high core count is the measurement, not an
    invariant. *)
