(** Declarative sweep specification: systems x apps x load grid x fault
    config x seed. A spec expands to a list of {!point}s, each with a
    deterministic per-point seed, so a sweep is replayable point-by-point
    in any order and across worker processes. *)

type t = {
  name : string;  (** dataset label, e.g. ["array-reduced"] *)
  systems : Adios_core.Config.system list;
  apps : (string * (unit -> Adios_core.App.t)) list;
      (** name + factory; a fresh [App.t] is built per point so no
          mutable state leaks between points *)
  loads : float list;  (** offered-load grid, KRPS, ascending *)
  requests : int;  (** arrivals injected per point *)
  seed : int;  (** sweep master seed; per-point seeds derive from it *)
  fault : Adios_fault.Injector.config;
  fetch_timeout_us : float;
      (** armed only when [fault] injects or a cluster point crashes *)
  fetch_retries : int;
  local_ratio : float option;  (** [None] keeps each system's default *)
  workers : int option;
      (** worker (CPU) count; [None] keeps the paper's standard 8 —
          the steal spec raises it to stress dispatch at scale *)
  clusters : Adios_cluster.Cluster.config list;
      (** memory-node topology axis; default [[Cluster.default]] (one
          node, R = 1) keeps every existing spec byte-identical *)
}

type point = {
  index : int;  (** position in {!points} order *)
  system : Adios_core.Config.system;
  app_name : string;
  make_app : unit -> Adios_core.App.t;
  load : float;
  point_seed : int;
  cluster : Adios_cluster.Cluster.config;
}

val point_seed : seed:int -> index:int -> int
(** Deterministic per-point seed, a pure function of the sweep seed and
    the point index (not of execution order). *)

val make :
  ?systems:Adios_core.Config.system list ->
  ?apps:string list ->
  ?loads:float list ->
  ?requests:int ->
  ?seed:int ->
  ?fault:Adios_fault.Injector.config ->
  ?fetch_timeout_us:float ->
  ?fetch_retries:int ->
  ?local_ratio:float ->
  ?workers:int ->
  ?clusters:Adios_cluster.Cluster.config list ->
  name:string ->
  unit ->
  t
(** Build a spec, resolving app names through
    {!Adios_apps.Registry}. Defaults: all four systems, the array app,
    4000 requests, seed 42, clean fabric.

    @raise Invalid_argument on an unknown app name, [requests] below 1
    or a load that is not positive. *)

val clustered : t -> bool
(** Any non-trivial topology on the cluster axis? (Drives whether
    datasets carry the cluster columns.) *)

val points : t -> point list
(** Grid expansion, app-major then system then cluster then load: each
    (app, system, cluster) series is a contiguous ascending-load
    block. *)

val config : t -> point -> Adios_core.Config.t
(** The per-point run configuration: the system's default, with the
    spec's fault fabric, local ratio and the point seed applied. *)

val point_count : t -> int

(** {2 Canonical reduced-scale specs (the golden tier)}

    The grids bracket every system's P99.9 knee at 4000 requests.
    [test/golden/<name>.csv] is regenerated from these exact specs by
    [adios_sweep --regen-golden]; change them only together. *)

val reduced_array : t
val reduced_memcached : t
val reduced_rocksdb_scan : t

val reduced : t list
(** The canonical single-node reduced specs, in golden-directory order. *)

val cluster_reduced : t
(** Adios over the nodes x replication x crashes topology grid at one
    sub-knee load; its golden carries the cluster columns and is gated
    by the failover + replication-tail oracles. *)

val steal_reduced : t
(** Adios vs the Steal per-CPU work-stealing variant on the array app at
    16 workers: the centralized-vs-distributed dispatch contrast, gated
    by {!Oracle.check_steal}. *)

val all_goldens : t list
(** Every spec with a checked-in golden: {!reduced} plus
    {!cluster_reduced} and {!steal_reduced}. *)

val reduced_by_name : string -> t option
(** Lookup over {!all_goldens}. *)
