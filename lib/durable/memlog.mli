(** In-memory durable device (one per replica core) for the
    deterministic sim backend: the same {!Walcodec} bytes as the
    on-disk files, surviving a simulated [Replica.crash] instead of a
    SIGKILL. No randomness, no clock, no I/O — golden suites stay
    bit-identical. *)

type t

val create : unit -> t
val append_frame : t -> Walcodec.framer -> unit
(** Append the framer's current frame ({!Walcodec.encode_record_into}). *)

val log_contents : t -> string
(** Feed to {!Walcodec.read_records}. *)

val log_length : t -> int
(** The [wal_cut] a snapshot taken now should carry. *)

val set_snapshot : t -> string -> unit
val snapshot : t -> string option
val reset : t -> unit
