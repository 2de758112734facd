(** Byte-level wire primitives (DESIGN.md §11).

    Deterministic little-endian writers over a [Buffer.t], and a
    bounds-checked, sticky-error reader cursor whose every operation
    is {e total}: a truncated, oversized, or garbage input ends in
    [Error _], never an exception. {!Codec} builds every cross-process message from these;
    the framing (magic ["MK"], version, kind tag, payload length) is
    here so a future TCP transport can reuse it unchanged. *)

type error =
  | Truncated of { need : int; have : int }
      (** The input ends before [need] more bytes were available. *)
  | Bad_magic  (** Not a Meerkat frame at all. *)
  | Bad_version of int
  | Unknown_kind of int  (** Frame header carries an unassigned tag. *)
  | Trailing of int  (** Well-formed frame followed by junk bytes. *)
  | Malformed of string
      (** Structurally impossible payload: hostile sequence count, bad
          bool/option tag, negative cursor position. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** {2 Writers} *)

val w_u8 : Buffer.t -> int -> unit
val w_u16 : Buffer.t -> int -> unit

val w_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [0, 2^32): lengths and counts
    must never truncate into a frame that decodes wrongly. Encoding
    runs on the local, trusted side, so this is a programming error,
    not a wire condition. *)

val w_i64 : Buffer.t -> int -> unit
(** Full OCaml int as 64-bit two's complement. *)

val w_f64 : Buffer.t -> float -> unit
(** IEEE-754 bits: exact round-trip for every float, NaN included. *)

val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val w_array : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a array -> unit

(** {2 Reader cursor} *)

type cursor
(** A read position over a string slice [\[pos, limit)], with a
    sticky error: every reader checks its bytes against [limit] and
    returns a plain value. The first failure (too few bytes, a bad
    tag, a hostile count) marks the cursor bad and is kept; every
    later read returns a dummy and records nothing. A decoder reads a
    whole frame and then asks {!finish} once. Bytes past [limit] are
    never read, so the string may be a reused receive buffer holding
    stale bytes. *)

val cursor : ?pos:int -> ?limit:int -> string -> cursor
(** [limit] defaults to, and is clamped to, the string's length. *)

val reset : cursor -> pos:int -> limit:int -> unit
(** Re-aim the cursor at [\[pos, limit)] of the same string and clear
    its error ([limit] clamped as in {!cursor}): one cursor serves every
    frame of every datagram a reused receive buffer holds. *)

val remaining : cursor -> int

val position : cursor -> int
(** The offset of the next byte to read. *)

val seek : cursor -> int -> unit
(** Move back to an earlier {!position} (to re-read a field); any
    other offset marks the cursor bad. *)

val skip : cursor -> int -> int
(** Consume [n] bytes without reading them and return their offset,
    or -1 (the cursor marked bad) if fewer remain. *)

val i64_at : cursor -> int -> int
val f64_at : cursor -> int -> float
(** Read at an offset {!skip} returned; an offset outside the cursor's
    window reads as 0, never raises. *)

val failed : cursor -> error option
(** The first failure, if the cursor is bad. *)

val fail : cursor -> error -> unit
(** Mark the cursor bad with [e], unless it already is. *)

val finish : cursor -> 'a -> ('a, error) result
(** [Ok v] iff the cursor never failed and sits exactly at its limit;
    the first failure otherwise, or [Trailing] for unread bytes. *)

val r_u8 : cursor -> int
val r_u32 : cursor -> int
val r_i64 : cursor -> int
val r_f64 : cursor -> float
val r_bool : cursor -> bool
val r_string : cursor -> string
val r_option : (cursor -> 'a) -> cursor -> 'a option

val r_list : elt_min:int -> (cursor -> 'a) -> cursor -> 'a list
(** [elt_min] is the smallest possible encoding of one element; a
    count claiming more elements than the remaining bytes could hold
    fails as [Malformed] {e before} any allocation, so a hostile
    4-billion-element header cannot balloon memory. *)

val r_array : elt_min:int -> (cursor -> 'a) -> cursor -> 'a array
(** {!r_list} read straight into an array. *)

val r_count : elt_min:int -> cursor -> int
(** The element count that opens an {!r_list} or {!r_array}, with the
    same hostile-count check: a count the remaining bytes cannot hold
    at [elt_min] each marks the cursor bad and reads as 0. *)

(** {2 Framing} *)

val version : int
(** Current wire version, stamped into every frame header. Version 2
    added the shard-group id; version 3 added the view to the
    view-change replies; version 4 added the multi-key read kinds.
    Frames of any other version are rejected. *)

val header_bytes : int
(** Frame header size: magic (2) + version (1) + kind (1) +
    shard (2, LE) + payload length (4, LE). *)

val max_shard : int
(** Largest shard-group id the u16 header field can carry. *)

val frame : ?shard:int -> kind:int -> string -> string
(** Wrap an encoded payload into one frame, stamped with the sender's
    shard group ([0] by default — a single-group deployment).
    Raises [Invalid_argument] outside [0, {!max_shard}]. *)

val frame_into :
  ?shard:int ->
  kind:int ->
  scratch:Buffer.t ->
  out:Buffer.t ->
  (Buffer.t -> unit) ->
  unit
(** Allocation-free framing over reused buffers: the payload writer
    fills [scratch] (cleared here first), and the complete frame —
    header then payload — is {e appended} to [out], which is never
    cleared, so successive calls coalesce several frames into one
    datagram. Same shard validation as {!frame}. *)

val unframe : cursor -> int * int
(** Validate the frame header at the cursor (magic, version), and
    return [(kind, shard)] with the cursor narrowed to exactly the
    payload. The input must end with this frame: bytes after it are
    [Trailing] (a UDP datagram carries one frame). On a bad header the
    cursor is bad and the result is [(0, 0)]. *)

val unframe_at : cursor -> int * int
(** {!unframe} for one frame of a multi-frame datagram: bytes after
    the frame are the next frame, never [Trailing]. *)

val unframe_kind_at : cursor -> int
(** {!unframe_at} without the pair (no allocation): the kind, with the
    shard stamp left for {!frame_shard}. *)

val frame_shard : cursor -> int
(** The shard stamp of the frame header the cursor last read (0 after
    a bad one). *)

val frame_end : cursor -> int
(** After {!unframe_at}: the offset just past the frame (always past
    the frame's start, so a burst-decode loop over hostile input
    terminates). *)
