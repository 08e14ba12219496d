(** Time-weighted integral of a piecewise-constant quantity.

    Used for the RDMA link busy-time (utilization of Figs. 2(e)/7(e)) and
    for the accountant's per-CPU time in each state. *)

type t

val create : Adios_engine.Sim.t -> t
(** Integrator starting at value 0 at the current simulated time. *)

val value : t -> int
(** Current level. *)

val set : t -> int -> unit
(** Change the level at the current simulated time. *)

val add : t -> int -> unit
(** [add t d] is [set t (value t + d)]. *)

val integral : t -> int
(** Integral of the level from creation up to now (level x cycles). *)

val mean_over : t -> since_integral:int -> since_time:int -> float
(** Average level over the window since a previous snapshot
    [(since_integral, since_time)] taken with {!integral} and the
    simulation clock. 0 for an empty window. *)
