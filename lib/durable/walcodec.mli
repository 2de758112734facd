(** On-disk formats: CRC32-framed WAL records and snapshot files,
    byte-compatible with the cluster wire encoding (the component
    codecs of {!Mk_wire.Codec}).

    Pure and total (lint rules Z6/Z7): encoding is deterministic, and
    the readers turn a torn tail, a flipped bit, or garbage into the
    longest valid prefix ({!read_records}) or [None]
    ({!read_snapshot}) — never an exception. *)

type record = { core : int; view : Mk_meerkat.Replica.record_view }
(** One WAL entry: a finalized (or installed) trecord view, tagged
    with the core whose partition owns it. *)

type framer
(** A reused frame buffer, one per WAL writer: {!encode_record_into}
    stages the payload once, checksums it where it lands and leaves
    [[crc][len][payload]] at the front of {!frame_bytes}. Not shared
    between threads. *)

val framer : unit -> framer

val encode_record_into : framer -> record -> unit
(** Frame one log entry into the framer, replacing its previous frame;
    the same bytes as {!encode_record}. Append it with
    {!Wal.append_frame} or {!Memlog.append_frame}. *)

val frame_bytes : framer -> Bytes.t
(** The framer's buffer; its first {!frame_length} bytes are the last
    frame encoded into it, valid until the next {!encode_record_into}. *)

val frame_length : framer -> int

val encode_record : record -> string
(** One framed log entry, ready to append: {!encode_record_into} on a
    fresh framer, copied out. *)

type replay = {
  records : record list;  (** The longest valid prefix, append order. *)
  valid_bytes : int;
      (** Bytes of the input covered by that prefix — where a
          compacting writer may safely truncate to. *)
  decode_errors : int;
      (** 1 if a torn or corrupt tail stopped the replay, else 0. *)
}

val read_records : ?from:int -> string -> replay
(** Replay a raw log image from byte [from] (a snapshot's [wal_cut]
    token; default 0). Total: any [from], including one landing
    mid-frame or outside the image, yields a well-formed {!replay}. *)

type snapshot = {
  core : int;
  epoch : int;  (** Installed epoch at snapshot time. *)
  wal_cut : int;
      (** Log length at snapshot time: replay only the suffix from
          this byte — everything before it is folded into the rows
          and views below. *)
  views : Mk_meerkat.Replica.record_view list;
      (** This core's trecord partition. *)
  rows : Mk_meerkat.Replica.store_row list;
      (** The vstore rows owned by this core. *)
}

val encode_snapshot : snapshot -> string
(** A whole snapshot file: one CRC frame (written atomically via
    {!Snapshot.write}'s tmp-and-rename). The staged payload is copied
    once, into the returned string. *)

val read_snapshot : string -> snapshot option
(** Total; [None] on any corruption — recovery then falls back to
    replaying the full log from byte 0. *)
