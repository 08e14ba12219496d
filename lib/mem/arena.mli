(** Backing store for application data.

    One contiguous byte arena stands in for the application's
    mmap-ed address space. The paging layer ({!Pager}) decides *when* an
    access may proceed (hit, fault, fetch); the arena holds the actual
    bytes so applications compute real answers regardless of residency.
    Addresses are byte offsets from 0. *)

type t

val create : pages:int -> page_size:int -> t
(** Arena of [pages * page_size] zeroed bytes. *)

val pages : t -> int
val page_size : t -> int
val size_bytes : t -> int

val page_of_addr : t -> int -> int
(** Page index containing a byte address. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u64 : t -> int -> int64
(** Little-endian load; [addr] need not be aligned. *)

val set_u64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** [get_u64] narrowed to int (our values fit 63 bits). *)

val set_int : t -> int -> int -> unit

val read_blob : t -> int -> int -> bytes
(** [read_blob t addr len] copies [len] bytes out. *)

val write_blob : t -> int -> bytes -> unit
(** [write_blob t addr b] copies [b] in at [addr]. *)

val blit_string : t -> int -> string -> unit
(** Write a string at [addr]. *)

val read_string : t -> int -> int -> string

val equal_string : t -> int -> string -> bool
(** [equal_string t addr s]: the bytes at [addr] spell [s]. Compares in
    place, copying nothing. *)
