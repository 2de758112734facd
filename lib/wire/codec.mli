(** Versioned binary codec for every message that crosses a process
    boundary in the cluster backend (DESIGN.md §11).

    One constructor per wire message: the transaction fast path
    (execute-phase {!t.Get} and {!t.Reads}, {!t.Validate}, slow-path {!t.Accept},
    asynchronous {!t.Write_back} — §5.2), the failure detector's
    {!t.Heartbeat} (§5.3), the backup-coordinator view change
    ({!t.Coord_change} / {!t.Vc_accept} and their replies — §5.3.2),
    the epoch change ({!t.Epoch_change} / {!t.Epoch_records} /
    {!t.Epoch_install} / {!t.Epoch_installed} — §5.3.1; driven by the
    nodes since the WAL work gave a killed node a reboot path), and
    deployment control ({!t.Shutdown}).

    {!encode} is deterministic — the same message always yields the
    same bytes. {!decode} is total — truncated, trailing, hostile, or
    garbage input yields [Error _] and never raises, and hostile
    sequence counts fail before any allocation.

    Requests do not name a target replica: the destination address
    {e is} the replica (as in Verdi's shims). Replies carry the
    replying replica's id because {!Mk_meerkat.Protocol} counts
    quorums by replica. *)

type decision = [ `Commit | `Abort ]

type accept_reply =
  [ `Accepted | `Stale of int | `Finalized of Mk_storage.Txn.status ]
(** = {!Mk_meerkat.Protocol.accept_reply}. *)

type coord_reply =
  [ `View_ok of Mk_meerkat.Replica.record_view option | `Stale of int ]
(** = the reply type of {!Mk_meerkat.Replica.handle_coord_change}. *)

type store_row = Mk_meerkat.Replica.store_row = {
  key : int;
  value : int;
  wts : Mk_clock.Timestamp.t;
  rts : Mk_clock.Timestamp.t;
}
(** = {!Mk_meerkat.Replica.store_row}: state transfer to a recovering
    replica and snapshot files carry the store's own rows. *)

type t =
  | Get of { coord : int; slot : int; seq : int; key : int }
      (** Execute-phase versioned read. [coord]/[slot]/[seq] route and
          deduplicate the reply exactly as in the live runtime. *)
  | Validate of {
      coord : int;
      slot : int;
      seq : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
    }
  | Accept of {
      coord : int;
      slot : int;
      seq : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      decision : decision;
      view : int;
    }
  | Write_back of {
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      commit : bool;
    }
  | Reads of { coord : int; slot : int; seq : int; keys : int array }
      (** Execute-phase versioned reads of several keys of one group,
          all of one transaction, answered by one {!t.Read_replies}:
          the client's read path (a [Get] per key is still answered,
          for single-key probes). *)
  | Get_reply of {
      slot : int;
      seq : int;
      replica : int;
      key : int;
      value : int;
      wts : Mk_clock.Timestamp.t;
    }
  | Validated of {
      slot : int;
      seq : int;
      replica : int;
      status : Mk_storage.Txn.status;
    }
  | Accepted of { slot : int; seq : int; replica : int; reply : accept_reply }
  | Read_replies of {
      slot : int;
      seq : int;
      replica : int;
      values : int array;
      wts : Mk_clock.Timestamp.t array;
    }
      (** The answer to a {!t.Reads}: [values.(i)] and [wts.(i)] are
          the version of its [keys.(i)]. *)
  | Heartbeat of { from_ : int; paused : bool }
  | Coord_change of {
      observer : int;
      tid : Mk_clock.Timestamp.Tid.t;
      view : int;
    }
  | Coord_reply of {
      observer : int;
      replica : int;
      tid : Mk_clock.Timestamp.Tid.t;
      view : int;  (** The [Coord_change] view this answers. *)
      reply : coord_reply;
    }
  | Vc_accept of {
      observer : int;
      txn : Mk_storage.Txn.t;
      ts : Mk_clock.Timestamp.t;
      decision : decision;
      view : int;
    }
  | Vc_accept_reply of {
      observer : int;
      replica : int;
      tid : Mk_clock.Timestamp.Tid.t;
      view : int;  (** The [Vc_accept] view this answers. *)
      reply : accept_reply;
    }
  | Epoch_change of { initiator : int; epoch : int }
  | Epoch_records of {
      replica : int;
      epoch : int;
      records : (int * Mk_meerkat.Replica.record_view) list;
    }
  | Epoch_install of {
      epoch : int;
      records : (int * Mk_meerkat.Replica.record_view) list;
      store : store_row list option;
    }
  | Epoch_installed of { replica : int; epoch : int }
      (** Ack for {!t.Epoch_install}: the initiator retransmits the
          install until every target has confirmed. *)
  | Shutdown

val kind : t -> int
(** Stable frame tag (1–19); new kinds append, old tags never move. *)

val kind_name : t -> string

val encode : t -> string
(** One complete frame (header + payload), ready for [sendto] —
    stamped shard group 0 (a single-group deployment). *)

val encode_shard : shard:int -> t -> string
(** {!encode} stamped with the sender's shard group (multi-group
    deployments; see {!Wire.frame}). *)

val encode_shard_into : scratch:Buffer.t -> out:Buffer.t -> shard:int -> t -> unit
(** Append one complete frame to [out] through the reused [scratch]
    payload buffer, with no intermediate strings (see
    {!Wire.frame_into}). [out] is not cleared: successive calls
    coalesce frames into one datagram. *)

val decode : string -> (t, Wire.error) result
(** Decode exactly one frame, discarding its shard id. Total: never
    raises. *)

val decode_shard : string -> (int * t, Wire.error) result
(** Decode exactly one frame, returning [(shard, msg)] so a node can
    refuse traffic addressed to another shard group. Total: never
    raises. *)

val decode_shard_at :
  ?limit:int -> string -> pos:int -> ((int * t) * int, Wire.error) result
(** Decode one frame of a multi-frame datagram starting at [pos],
    returning the message and the offset just past its frame (always
    [> pos]). The datagram ends at [limit] (default: the string's
    end): the socket shim decodes in place from its reused receive
    buffer, and no byte past [limit] is read. Total: never raises. *)

(** {2 Hot kinds, straight from the cursor}

    A receiver that handles one frame per call on a reused cursor
    (the socket shim's) need not build a message for the frames it
    sees most: {!dispatch} reads the header and payload off the cursor
    and hands the fields of a [Validated], [Accepted], [Reads] or
    [Read_replies] frame straight to a handler, arrays by index
    through a view; a [Write_back] for a record the receiver already
    holds arrives as its tid alone. Every other kind is built as a
    message for [other]. The checks are {!decode_shard_at}'s, through
    the same field readers — a handler runs only for a frame that
    decodes to its last byte, and a frame that does not leaves the
    cursor bad or short of its end, as {!decode_shard_at} would have
    reported. *)

type keys
(** A [Reads] frame's keys, valid only while its handler runs. *)

val keys_count : keys -> int
val key_at : keys -> int -> int

type replies
(** A [Read_replies] frame's two arrays, valid only while its handler
    runs. *)

val replies_count : replies -> int
(** Elements of the values array. *)

val replies_wts_count : replies -> int
(** Elements of the [wts] array (a well-formed reply has as many). *)

val reply_value : replies -> int -> int
val reply_wts : replies -> int -> Mk_clock.Timestamp.t
(** Element [i] (0 outside the array, never a raise). *)

type 'a visitor = {
  validated :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> Mk_storage.Txn.status -> unit;
  accepted :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> accept_reply -> unit;
  read_replies :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> replies -> unit;
  reads : 'a -> shard:int -> coord:int -> slot:int -> seq:int -> keys -> unit;
  held : 'a -> Mk_clock.Timestamp.Tid.t -> bool;
      (** Asked of a [Write_back] before its transaction is read: whether
          the receiver holds the record, so that the frame may arrive
          as {!write_back_held}. No side effects: the frame may still
          turn out malformed. *)
  write_back_held :
    'a -> shard:int -> Mk_clock.Timestamp.Tid.t -> commit:bool -> unit;
  other : 'a -> shard:int -> t -> unit;
}
(** One handler per hot kind (each with the frame's shard stamp), and
    [other] for every frame built as a message. *)

type 'a dispatcher
(** A visitor with its reusable array views. One owner at a time. *)

val dispatcher : 'a visitor -> 'a dispatcher

val dispatch : 'a dispatcher -> 'a -> Wire.cursor -> unit
(** Decode the frame at the cursor and run at most one handler on it,
    with [x] as its first argument. Afterwards the frame decoded iff
    the cursor is not {!Wire.failed} and has no {!Wire.remaining}
    bytes; {!Wire.frame_end} is then the offset past it. Allocates
    nothing beyond what [other]'s messages and the handlers do. Total:
    never raises on its own account. *)

val equal : t -> t -> bool
(** Structural equality via the dedicated [Timestamp]/[Tid]
    comparators (Z2-clean); the round-trip property in tests is
    [equal (decode (encode m)) m]. *)

val pp : Format.formatter -> t -> unit

(** {2 Component codecs}

    The building blocks of the payloads above, exported for other
    on-disk or on-wire formats that must stay byte-compatible with the
    cluster frames — the durable layer's WAL records and snapshot
    files ({!Mk_durable.Walcodec}) reuse them so a record view is the
    same bytes on disk as inside an [Epoch_records] frame. Writers
    append to a [Buffer.t]; readers run on a {!Wire.cursor}, returning
    a dummy once it is bad (a bad tag marks it). *)

val w_record_view : Buffer.t -> Mk_meerkat.Replica.record_view -> unit
val r_record_view : Wire.cursor -> Mk_meerkat.Replica.record_view

val record_view_min : int
(** Minimum encoded size of a record view (bounds hostile counts). *)

val w_store_row : Buffer.t -> store_row -> unit
val r_store_row : Wire.cursor -> store_row

val store_row_bytes : int
(** Encoded size of a store row (48). *)
