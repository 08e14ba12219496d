(** Sweep execution: expand a {!Spec.t} into points and run them —
    in-process ([jobs = 1]) or as up to [jobs] parallel forked worker
    processes ([jobs > 1]). Results are bit-identical either way: every
    point builds a fresh simulator, app and RNG from its own
    deterministic seed, and forked workers marshal the plain-data
    {!Adios_core.Runner.result} back unchanged. test/test_sweep.ml
    gates the byte-equality of the resulting CSVs on every golden
    spec. *)

val run_point :
  ?cfg_tweak:(Adios_core.Config.t -> Adios_core.Config.t) ->
  ?profile:bool ->
  Spec.t ->
  Spec.point ->
  Adios_core.Runner.result
(** Run one point inline. [cfg_tweak] rewrites the configuration after
    the spec is applied (bench variants: sync-TX, dispatch policy,
    pinned seeds). [profile] (default false) attaches the critical-path
    profiler — perturbation-free, so every non-[prof] result field is
    byte-identical either way. *)

val point_label : Spec.point -> string
(** Human-readable point identifier for progress and error messages. *)

val run :
  ?jobs:int ->
  ?cfg_tweak:(Adios_core.Config.t -> Adios_core.Config.t) ->
  ?profile:bool ->
  ?progress:(Spec.point -> Adios_core.Runner.result -> unit) ->
  Spec.t ->
  (Spec.point * Adios_core.Runner.result) list
(** Run the whole sweep. [jobs = 1] (default) runs sequentially
    in-process; [jobs > 1] keeps up to [jobs] forked worker processes
    busy, one point each. Results are returned in {!Spec.points} order
    and are byte-identical either way; [progress] fires once per point,
    in points order (workers are drained in spawn order).

    @raise Invalid_argument if [jobs < 1].
    @raise Failure if a worker process dies before reporting or a point
    raises; the message names the point ({!point_label}). The remaining
    workers are killed and reaped first. *)
