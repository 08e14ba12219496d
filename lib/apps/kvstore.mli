(** Open-addressing hash-table key-value store laid out in paged memory —
    the substrate under the Memcached adapter.

    Layout: a power-of-two bucket array of 8-byte entry pointers at the
    base of the arena, then a bump-allocated entry heap. Each entry holds
    [key_len | key bytes | value_len | value bytes]. A GET therefore
    touches the bucket page, the entry header/key page(s), and the value
    page(s) — the access pattern that makes Memcached's fault rate a
    multiple of the microbenchmark's. *)

type t

val create :
  Adios_mem.View.t ->
  keys:int ->
  key_bytes:int ->
  value_bytes:int ->
  t
(** Build the table and populate it with the canonical keys of indices
    [0, keys). Entries are written straight into the view's arena with
    no touches, so the view should be a direct one (build time). Raises
    [Invalid_argument] when [key_bytes < 16]: shorter keys would
    truncate the 12-digit index and collide. *)

val pages_needed : keys:int -> key_bytes:int -> value_bytes:int -> int
(** Arena pages the store requires; callers size the arena with this.
    Rejects the same shapes as {!create}. *)

val key_string : t -> int -> string
(** The canonical key for index [i]: ["key-"], [i] as 12 zero-padded
    digits, then ['k'] padding up to [key_bytes]. The stored value for
    [i] is ["value-"], the same 12 digits, ["-"], then a fill letter. *)

val get : t -> Adios_mem.View.t -> string -> string option
(** Probe the table through the given (possibly faulting) view. *)

val get_index : t -> Adios_mem.View.t -> int -> int
(** [get_index t view i] is the stored value length of [key_string t i],
    or [-1] when absent. It makes exactly the touches
    [get t view (key_string t i)] makes, in the same order, but builds
    no key and copies no value: it allocates nothing. *)

val put : t -> Adios_mem.View.t -> string -> string -> bool
(** Overwrite an existing key's value in place; [false] if absent or the
    new value is longer than the stored one. *)

val keys : t -> int
(** Number of keys inserted at build time. *)
