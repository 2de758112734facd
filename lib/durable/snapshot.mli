(** Atomic snapshot file I/O: tmp-write, fsync, rename — the rename
    is the commit point, so recovery sees either the old snapshot or
    the new one, never a torn mix. Content is an opaque
    {!Walcodec.encode_snapshot} frame. *)

val write : path:string -> string -> unit
(** Returns once the new image is durable under [path]: the file is
    fsynced before the rename and the parent directory after it, so
    no [.tmp] sibling remains and a log truncate issued next cannot
    reach the disk ahead of the rename. *)

val read : path:string -> string option
(** Total: missing, unreadable, or empty means [None] (recovery then
    replays the full log). *)
