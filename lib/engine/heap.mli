(** Binary min-heap keyed by [(time, sequence)], flat-array edition.

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order, which keeps the simulation
    deterministic (FIFO semantics for zero-delay wakeups).

    Entries live in three parallel arrays (time, seq, payload) instead of
    boxed records, and the {!pop_into} protocol dequeues without
    allocating an option or a tuple — the hot path of a simulation run
    performs no allocation at steady state. The original boxed
    implementation survives as [test/heap_reference.ml]; the differential
    suite in [test_engine_diff] proves both produce identical pop
    streams. *)

type 'a t
(** Heap of payloads ordered by ascending key. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. It starts with no backing storage
    ([[||]]) and grows geometrically on first use. *)

val length : 'a t -> int
(** Number of stored entries. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] inserts [v] with key [(time, seq)]. *)

val pop_into : 'a t -> bool
(** [pop_into h] removes the minimum entry, exposing it through
    {!popped_time}, {!popped_seq} and {!popped_value}; [false] if the
    heap was empty. Allocation-free. *)

val popped_time : 'a t -> int
(** Key time of the last successful {!pop_into}. Only valid after a
    [pop_into] that returned [true] and before the next [push]/[pop_into]. *)

val popped_seq : 'a t -> int
(** Key sequence of the last successful {!pop_into}; same validity window
    as {!popped_time}. *)

val popped_value : 'a t -> 'a
(** Payload of the last successful {!pop_into}; same validity window as
    {!popped_time}. *)

val top_time : 'a t -> int
(** Key time of the minimum entry without removal; [max_int] when empty
    (a sentinel that lets schedulers merge heap and wheel heads with a
    plain integer compare). *)

val top_seq : 'a t -> int
(** Key sequence of the minimum entry without removal; [max_int] when
    empty. *)

val peek_time : 'a t -> int option
(** [peek_time h] is the key time of the minimum entry without removal. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum entry, or [None] if empty.
    Convenience wrapper over {!pop_into} for tests and cold paths; it
    allocates, so the simulator core uses [pop_into] instead. *)
