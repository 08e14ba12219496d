(** A networked request flowing through the system, with its timestamp
    chain and (when profiling) its phase attribution attached. *)

type spec = {
  kind : int;  (** application opcode class (e.g. 0 = GET, 1 = SCAN) *)
  key : int;  (** application argument *)
  req_bytes : int;  (** request packet payload *)
  reply_bytes : int;  (** reply packet payload *)
}

type t = {
  id : int;
  spec : spec;
  tx_at : int;  (** load-generator hardware TX timestamp *)
  mutable done_at : int;  (** reply delivered back to the load generator *)
  mutable buffer : int;  (** unithread buffer id, -1 before admission *)
  mutable errored : bool;
      (** the handler was aborted (fetch retries exhausted); the reply
          carries an error status instead of a result *)
  mutable prof : Adios_prof.Profiler.req option;
      (** critical-path attribution state, attached at admission when
          the run profiles ([None] otherwise, costing one word) *)
}

val make : id:int -> spec:spec -> tx_at:int -> t
(** Fresh request stamped with its generation time. *)

val e2e_latency : t -> int
(** [done_at - tx_at]; meaningful once completed. *)
