(** Per-core append-only write-ahead log over a Unix file.

    One file per (replica, core), appended only by the owner of that
    core's trecord partition — per-core durability with no shared
    fsync point (the ZCP argument; DESIGN.md §12). Framing and replay
    live in {!Walcodec}; this module only moves bytes and schedules
    fsyncs. *)

(** When the log reaches the platter: [Always] fsyncs every append
    (durable on ack), [Every n] is group commit (fsync every [n]
    appends — at most [n-1] acked transactions in the unsynced
    window), [Never] leaves flushing to the OS (crash-consistent but
    not crash-durable; the CRC framing still bounds the damage to the
    torn tail). *)
type policy = Always | Every of int | Never

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** ["always"], ["never"], or ["every=N"] with [N > 0]. *)

type t

val open_log : path:string -> policy:policy -> t
(** Open (creating if absent) for appending; existing bytes are kept
    and counted in {!length}. *)

val append_frame : t -> Walcodec.framer -> [ `Synced | `Buffered ]
(** Append the framer's current frame ({!Walcodec.encode_record_into})
    straight from its buffer and apply the fsync policy; says whether
    this append carried an fsync (for the [wal.fsyncs] counter). *)

val append : t -> string -> [ `Synced | `Buffered ]
(** {!append_frame} for a frame already in a string
    ({!Walcodec.encode_record}). *)

val sync : t -> unit
(** Flush the unsynced window now (end of run, or pre-snapshot). *)

val length : t -> int
(** Bytes appended so far — the [wal_cut] token a snapshot taken now
    should carry. *)

val truncate : t -> len:int -> unit
(** Reboot-time compaction only: drop the log beyond [len] (the
    replayed prefix) once a fresh snapshot covers it. Never called
    while cores are running. *)

val close : t -> unit
(** {!sync} then close the fd. *)

val read_file : string -> string
(** The raw log image for {!Walcodec.read_records}. Total: a missing
    or unreadable file is an empty log. *)
