(* The cross-process message set and its binary codec.

   One constructor per message that crosses a process boundary in the
   cluster backend: the transaction fast path (execute-phase reads —
   one [Get] per key, or one [Reads] per transaction and group —
   validate, slow-path accept, write-back), the failure detector's
   heartbeats, the §5.3.2 backup-coordinator view change, the §5.3.1
   epoch change (driven by the nodes since the WAL work gave a killed
   node a reboot path), and deployment control.

   Encoding is deterministic (same message, same bytes — fixed-width
   integers, no maps); decoding is total and returns [Error] on any
   truncated, hostile, or garbage input. Replies carry the replying
   replica's id because the protocol counts quorums by replica;
   requests do not name their target — the destination address is the
   replica, exactly as in Verdi's shims. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Replica = Mk_meerkat.Replica
open Wire

type decision = [ `Commit | `Abort ]

type accept_reply =
  [ `Accepted | `Stale of int | `Finalized of Mk_storage.Txn.status ]

type coord_reply = [ `View_ok of Replica.record_view option | `Stale of int ]

type store_row = Mk_meerkat.Replica.store_row = {
  key : int;
  value : int;
  wts : Timestamp.t;
  rts : Timestamp.t;
}

type t =
  (* client -> server: transaction fast path *)
  | Get of { coord : int; slot : int; seq : int; key : int }
  | Validate of {
      coord : int;
      slot : int;
      seq : int;
      txn : Txn.t;
      ts : Timestamp.t;
    }
  | Accept of {
      coord : int;
      slot : int;
      seq : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : decision;
      view : int;
    }
  | Write_back of { txn : Txn.t; ts : Timestamp.t; commit : bool }
  | Reads of { coord : int; slot : int; seq : int; keys : int array }
  (* server -> client *)
  | Get_reply of {
      slot : int;
      seq : int;
      replica : int;
      key : int;
      value : int;
      wts : Timestamp.t;
    }
  | Validated of { slot : int; seq : int; replica : int; status : Txn.status }
  | Accepted of { slot : int; seq : int; replica : int; reply : accept_reply }
  | Read_replies of {
      slot : int;
      seq : int;
      replica : int;
      values : int array;
      wts : Timestamp.t array;
    }
  (* server <-> server: failure detector *)
  | Heartbeat of { from_ : int; paused : bool }
  (* server <-> server: §5.3.2 view change *)
  | Coord_change of { observer : int; tid : Tid.t; view : int }
  | Coord_reply of {
      observer : int;
      replica : int;
      tid : Tid.t;
      view : int;
      reply : coord_reply;
    }
  | Vc_accept of {
      observer : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : decision;
      view : int;
    }
  | Vc_accept_reply of {
      observer : int;
      replica : int;
      tid : Tid.t;
      view : int;
      reply : accept_reply;
    }
  (* server <-> server: §5.3.1 epoch change. [Epoch_installed] is the
     ack closing the three-step exchange: the initiator retransmits
     [Epoch_install] until every target confirmed. *)
  | Epoch_change of { initiator : int; epoch : int }
  | Epoch_records of {
      replica : int;
      epoch : int;
      records : (int * Replica.record_view) list;
    }
  | Epoch_install of {
      epoch : int;
      records : (int * Replica.record_view) list;
      store : store_row list option;
    }
  | Epoch_installed of { replica : int; epoch : int }
  (* deployment control *)
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Kind tags (stable across versions: new kinds append)                *)
(* ------------------------------------------------------------------ *)

let kind = function
  | Get _ -> 1
  | Get_reply _ -> 2
  | Validate _ -> 3
  | Validated _ -> 4
  | Accept _ -> 5
  | Accepted _ -> 6
  | Write_back _ -> 7
  | Heartbeat _ -> 8
  | Coord_change _ -> 9
  | Coord_reply _ -> 10
  | Vc_accept _ -> 11
  | Vc_accept_reply _ -> 12
  | Epoch_change _ -> 13
  | Epoch_records _ -> 14
  | Epoch_install _ -> 15
  | Shutdown -> 16
  | Epoch_installed _ -> 17
  | Reads _ -> 18
  | Read_replies _ -> 19

let kind_name = function
  | Get _ -> "get"
  | Get_reply _ -> "get_reply"
  | Validate _ -> "validate"
  | Validated _ -> "validated"
  | Accept _ -> "accept"
  | Accepted _ -> "accepted"
  | Write_back _ -> "write_back"
  | Heartbeat _ -> "heartbeat"
  | Coord_change _ -> "coord_change"
  | Coord_reply _ -> "coord_reply"
  | Vc_accept _ -> "vc_accept"
  | Vc_accept_reply _ -> "vc_accept_reply"
  | Epoch_change _ -> "epoch_change"
  | Epoch_records _ -> "epoch_records"
  | Epoch_install _ -> "epoch_install"
  | Shutdown -> "shutdown"
  | Epoch_installed _ -> "epoch_installed"
  | Reads _ -> "reads"
  | Read_replies _ -> "read_replies"

(* ------------------------------------------------------------------ *)
(* Component codecs                                                    *)
(* ------------------------------------------------------------------ *)

(* Readers run on a sticky-error cursor (see {!Wire.cursor}): each
   returns a plain value, a dummy once the cursor is bad, and a bad tag
   marks the cursor. [let] sequences the reads in wire order. *)

let w_ts b (ts : Timestamp.t) =
  w_f64 b ts.time;
  w_i64 b ts.client_id

let r_ts c =
  let time = r_f64 c in
  let client_id = r_i64 c in
  Timestamp.make ~time ~client_id

let ts_bytes = 16

let w_tid b (tid : Tid.t) =
  w_i64 b tid.seq;
  w_i64 b tid.client_id

let r_tid c =
  let seq = r_i64 c in
  let client_id = r_i64 c in
  Tid.make ~seq ~client_id

let w_read_entry b (e : Txn.read_entry) =
  w_i64 b e.key;
  w_ts b e.wts

let r_read_entry c =
  let key = r_i64 c in
  let wts = r_ts c in
  ({ key; wts } : Txn.read_entry)

let w_write_entry b (e : Txn.write_entry) =
  w_i64 b e.key;
  w_i64 b e.value

let r_write_entry c =
  let key = r_i64 c in
  let value = r_i64 c in
  ({ key; value } : Txn.write_entry)

let w_txn b (t : Txn.t) =
  w_tid b t.tid;
  w_array w_read_entry b t.read_set;
  w_array w_write_entry b t.write_set

let r_txn c =
  let tid = r_tid c in
  let read_set = r_array ~elt_min:(8 + ts_bytes) r_read_entry c in
  let write_set = r_array ~elt_min:16 r_write_entry c in
  { Txn.tid; read_set; write_set }

let status_tag = function
  | Txn.Validated_ok -> 0
  | Txn.Validated_abort -> 1
  | Txn.Accepted_commit -> 2
  | Txn.Accepted_abort -> 3
  | Txn.Committed -> 4
  | Txn.Aborted -> 5

let w_status b st = w_u8 b (status_tag st)

(* A bad tag marks the cursor and reads as [dummy]. *)
let bad_tag c what n dummy =
  fail c (Malformed (Printf.sprintf "%s tag %d" what n));
  dummy

let r_status c =
  match r_u8 c with
  | 0 -> Txn.Validated_ok
  | 1 -> Txn.Validated_abort
  | 2 -> Txn.Accepted_commit
  | 3 -> Txn.Accepted_abort
  | 4 -> Txn.Committed
  | 5 -> Txn.Aborted
  | n -> bad_tag c "status" n Txn.Aborted

let w_decision b (d : decision) = w_u8 b (match d with `Commit -> 0 | `Abort -> 1)

let r_decision c : decision =
  match r_u8 c with
  | 0 -> `Commit
  | 1 -> `Abort
  | n -> bad_tag c "decision" n `Abort

let w_accept_reply b (r : accept_reply) =
  match r with
  | `Accepted -> w_u8 b 0
  | `Stale view ->
      w_u8 b 1;
      w_i64 b view
  | `Finalized st ->
      w_u8 b 2;
      w_status b st

let r_accept_reply c : accept_reply =
  match r_u8 c with
  | 0 -> `Accepted
  | 1 -> `Stale (r_i64 c)
  | 2 -> `Finalized (r_status c)
  | n -> bad_tag c "accept-reply" n `Accepted

let w_record_view b (v : Replica.record_view) =
  w_txn b v.txn;
  w_ts b v.ts;
  w_status b v.status;
  w_i64 b v.view;
  w_option w_i64 b v.accept_view

let r_record_view c =
  let txn = r_txn c in
  let ts = r_ts c in
  let status = r_status c in
  let view = r_i64 c in
  let accept_view = r_option r_i64 c in
  { Replica.txn; ts; status; view; accept_view }

(* tid (16) + empty sets (8) + ts (16) + status (1) + view (8) +
   option tag (1) *)
let record_view_min = 50

let w_core_record b (core, v) =
  w_i64 b core;
  w_record_view b v

let r_core_record c =
  let core = r_i64 c in
  let v = r_record_view c in
  (core, v)

let w_coord_reply b (r : coord_reply) =
  match r with
  | `View_ok v ->
      w_u8 b 0;
      w_option w_record_view b v
  | `Stale view ->
      w_u8 b 1;
      w_i64 b view

let r_coord_reply c : coord_reply =
  match r_u8 c with
  | 0 -> `View_ok (r_option r_record_view c)
  | 1 -> `Stale (r_i64 c)
  | n -> bad_tag c "coord-reply" n (`View_ok None)

let w_store_row b r =
  w_i64 b r.key;
  w_i64 b r.value;
  w_ts b r.wts;
  w_ts b r.rts

let store_row_bytes = 16 + ts_bytes + ts_bytes

let r_store_row c =
  let key = r_i64 c in
  let value = r_i64 c in
  let wts = r_ts c in
  let rts = r_ts c in
  { key; value; wts; rts }

(* ------------------------------------------------------------------ *)
(* Message codec                                                       *)
(* ------------------------------------------------------------------ *)

let payload_into b msg =
  match msg with
  | Get { coord; slot; seq; key } ->
      w_i64 b coord;
      w_i64 b slot;
      w_i64 b seq;
      w_i64 b key
  | Get_reply { slot; seq; replica; key; value; wts } ->
      w_i64 b slot;
      w_i64 b seq;
      w_i64 b replica;
      w_i64 b key;
      w_i64 b value;
      w_ts b wts
  | Validate { coord; slot; seq; txn; ts } ->
      w_i64 b coord;
      w_i64 b slot;
      w_i64 b seq;
      w_txn b txn;
      w_ts b ts
  | Validated { slot; seq; replica; status } ->
      w_i64 b slot;
      w_i64 b seq;
      w_i64 b replica;
      w_status b status
  | Accept { coord; slot; seq; txn; ts; decision; view } ->
      w_i64 b coord;
      w_i64 b slot;
      w_i64 b seq;
      w_txn b txn;
      w_ts b ts;
      w_decision b decision;
      w_i64 b view
  | Accepted { slot; seq; replica; reply } ->
      w_i64 b slot;
      w_i64 b seq;
      w_i64 b replica;
      w_accept_reply b reply
  | Write_back { txn; ts; commit } ->
      w_txn b txn;
      w_ts b ts;
      w_bool b commit
  | Heartbeat { from_; paused } ->
      w_i64 b from_;
      w_bool b paused
  | Coord_change { observer; tid; view } ->
      w_i64 b observer;
      w_tid b tid;
      w_i64 b view
  | Coord_reply { observer; replica; tid; view; reply } ->
      w_i64 b observer;
      w_i64 b replica;
      w_tid b tid;
      w_i64 b view;
      w_coord_reply b reply
  | Vc_accept { observer; txn; ts; decision; view } ->
      w_i64 b observer;
      w_txn b txn;
      w_ts b ts;
      w_decision b decision;
      w_i64 b view
  | Vc_accept_reply { observer; replica; tid; view; reply } ->
      w_i64 b observer;
      w_i64 b replica;
      w_tid b tid;
      w_i64 b view;
      w_accept_reply b reply
  | Epoch_change { initiator; epoch } ->
      w_i64 b initiator;
      w_i64 b epoch
  | Epoch_records { replica; epoch; records } ->
      w_i64 b replica;
      w_i64 b epoch;
      w_list w_core_record b records
  | Epoch_install { epoch; records; store } ->
      w_i64 b epoch;
      w_list w_core_record b records;
      w_option (w_list w_store_row) b store
  | Epoch_installed { replica; epoch } ->
      w_i64 b replica;
      w_i64 b epoch
  | Reads { coord; slot; seq; keys } ->
      w_i64 b coord;
      w_i64 b slot;
      w_i64 b seq;
      w_array w_i64 b keys
  | Read_replies { slot; seq; replica; values; wts } ->
      w_i64 b slot;
      w_i64 b seq;
      w_i64 b replica;
      w_array w_i64 b values;
      w_array w_ts b wts
  | Shutdown -> ()

let payload msg =
  let b = Buffer.create 64 in
  payload_into b msg;
  Buffer.contents b

let encode_shard ~shard msg = frame ~shard ~kind:(kind msg) (payload msg)
let encode msg = encode_shard ~shard:0 msg

(* Reused-buffer encoding: append one complete frame to [out] (the
   payload staged through [scratch]) with no intermediate strings —
   the socket shim encodes every outbound message through this, into
   buffers it owns, and flushes several frames per datagram. *)
let encode_shard_into ~scratch ~out ~shard msg =
  frame_into ~shard ~kind:(kind msg) ~scratch ~out (fun b -> payload_into b msg)

(* ------------------------------------------------------------------ *)
(* Hot kinds: dispatch straight from the cursor                        *)
(* ------------------------------------------------------------------ *)

(* A window onto one of a frame's arrays, read by index while the frame
   is handed to its consumer: [n] elements of [width] bytes from
   offset [at] of [cur]. Each dispatcher owns its two views and re-aims
   them per frame, so handing a frame over allocates nothing. *)
type view = {
  mutable cur : cursor;
  mutable at : int;
  mutable n : int;
}

type keys = view

type replies = { values : view; stamps : view }

let keys_count (k : keys) = k.n
let key_at (k : keys) i = if i < 0 || i >= k.n then 0 else i64_at k.cur (k.at + (8 * i))
let replies_count r = r.values.n
let replies_wts_count r = r.stamps.n

let reply_value r i =
  let v = r.values in
  if i < 0 || i >= v.n then 0 else i64_at v.cur (v.at + (8 * i))

let reply_wts r i =
  let v = r.stamps in
  if i < 0 || i >= v.n then Timestamp.zero
  else
    let at = v.at + (ts_bytes * i) in
    Timestamp.make ~time:(f64_at v.cur at) ~client_id:(i64_at v.cur (at + 8))

(* Aim [v] at the next array of the frame: its count, then its
   elements, skipped here and read later by index — the same bytes,
   and the same hostile-count and truncation checks, as [r_array]. *)
let r_view v ~width c =
  let n = r_count ~elt_min:width c in
  v.cur <- c;
  v.n <- n;
  v.at <- skip c (n * width)

type 'a visitor = {
  validated :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> Txn.status -> unit;
  accepted :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> accept_reply -> unit;
  read_replies :
    'a -> shard:int -> slot:int -> seq:int -> replica:int -> replies -> unit;
  reads : 'a -> shard:int -> coord:int -> slot:int -> seq:int -> keys -> unit;
  held : 'a -> Tid.t -> bool;
  write_back_held : 'a -> shard:int -> Tid.t -> commit:bool -> unit;
  other : 'a -> shard:int -> t -> unit;
}

type 'a dispatcher = { visitor : 'a visitor; keys : view; replies : replies }

let no_view () = { cur = cursor ""; at = 0; n = 0 }

let dispatcher visitor =
  { visitor; keys = no_view (); replies = { values = no_view (); stamps = no_view () } }

(* A frame whose payload decoded to its last byte: only then is it
   handed over. *)
let complete c = failed c = None && remaining c = 0

(* Any payload, built as a message: every kind for {!decode_shard_at},
   the kinds {!dispatch} does not take from the cursor for it. The hot
   kinds' fields below and in [dispatch_payload] are read by the same
   readers in the same order (test_wire pins the two paths equal). *)
let decode_payload ~kind c =
  match kind with
  | 1 ->
      let coord = r_i64 c in
      let slot = r_i64 c in
      let seq = r_i64 c in
      let key = r_i64 c in
      Get { coord; slot; seq; key }
  | 2 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let key = r_i64 c in
      let value = r_i64 c in
      let wts = r_ts c in
      Get_reply { slot; seq; replica; key; value; wts }
  | 3 ->
      let coord = r_i64 c in
      let slot = r_i64 c in
      let seq = r_i64 c in
      let txn = r_txn c in
      let ts = r_ts c in
      Validate { coord; slot; seq; txn; ts }
  | 4 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let status = r_status c in
      Validated { slot; seq; replica; status }
  | 5 ->
      let coord = r_i64 c in
      let slot = r_i64 c in
      let seq = r_i64 c in
      let txn = r_txn c in
      let ts = r_ts c in
      let decision = r_decision c in
      let view = r_i64 c in
      Accept { coord; slot; seq; txn; ts; decision; view }
  | 6 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let reply = r_accept_reply c in
      Accepted { slot; seq; replica; reply }
  | 7 ->
      let txn = r_txn c in
      let ts = r_ts c in
      let commit = r_bool c in
      Write_back { txn; ts; commit }
  | 8 ->
      let from_ = r_i64 c in
      let paused = r_bool c in
      Heartbeat { from_; paused }
  | 9 ->
      let observer = r_i64 c in
      let tid = r_tid c in
      let view = r_i64 c in
      Coord_change { observer; tid; view }
  | 10 ->
      let observer = r_i64 c in
      let replica = r_i64 c in
      let tid = r_tid c in
      let view = r_i64 c in
      let reply = r_coord_reply c in
      Coord_reply { observer; replica; tid; view; reply }
  | 11 ->
      let observer = r_i64 c in
      let txn = r_txn c in
      let ts = r_ts c in
      let decision = r_decision c in
      let view = r_i64 c in
      Vc_accept { observer; txn; ts; decision; view }
  | 12 ->
      let observer = r_i64 c in
      let replica = r_i64 c in
      let tid = r_tid c in
      let view = r_i64 c in
      let reply = r_accept_reply c in
      Vc_accept_reply { observer; replica; tid; view; reply }
  | 13 ->
      let initiator = r_i64 c in
      let epoch = r_i64 c in
      Epoch_change { initiator; epoch }
  | 14 ->
      let replica = r_i64 c in
      let epoch = r_i64 c in
      let records = r_list ~elt_min:(8 + record_view_min) r_core_record c in
      Epoch_records { replica; epoch; records }
  | 15 ->
      let epoch = r_i64 c in
      let records = r_list ~elt_min:(8 + record_view_min) r_core_record c in
      let store = r_option (r_list ~elt_min:store_row_bytes r_store_row) c in
      Epoch_install { epoch; records; store }
  | 16 -> Shutdown
  | 17 ->
      let replica = r_i64 c in
      let epoch = r_i64 c in
      Epoch_installed { replica; epoch }
  | 18 ->
      let coord = r_i64 c in
      let slot = r_i64 c in
      let seq = r_i64 c in
      let keys = r_array ~elt_min:8 r_i64 c in
      Reads { coord; slot; seq; keys }
  | 19 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let values = r_array ~elt_min:8 r_i64 c in
      let wts = r_array ~elt_min:ts_bytes r_ts c in
      Read_replies { slot; seq; replica; values; wts }
  | k ->
      fail c (Unknown_kind k);
      Shutdown

(* One payload of kind [kind]: exactly one of the visitor's handlers
   runs, and only if the payload decodes to its last byte. The hot
   kinds are read field by field off the cursor; a [Write_back] whose
   record the consumer already [held] skips its transaction. Every
   other kind — and a write-back for a record not held — is built as a
   message for [other]. *)
let dispatch_payload d x ~kind ~shard c =
  let v = d.visitor in
  match kind with
  | 4 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let status = r_status c in
      if complete c then v.validated x ~shard ~slot ~seq ~replica status
  | 6 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      let reply = r_accept_reply c in
      if complete c then v.accepted x ~shard ~slot ~seq ~replica reply
  | 18 ->
      let coord = r_i64 c in
      let slot = r_i64 c in
      let seq = r_i64 c in
      r_view d.keys ~width:8 c;
      if complete c then v.reads x ~shard ~coord ~slot ~seq d.keys
  | 19 ->
      let slot = r_i64 c in
      let seq = r_i64 c in
      let replica = r_i64 c in
      r_view d.replies.values ~width:8 c;
      r_view d.replies.stamps ~width:ts_bytes c;
      if complete c then v.read_replies x ~shard ~slot ~seq ~replica d.replies
  | 7 ->
      let start = position c in
      let tid = r_tid c in
      if failed c = None && v.held x tid then begin
        (* The record's transaction and timestamp are already held:
           check their bytes as [r_txn] and [r_ts] would, skip them. *)
        ignore (skip c (r_count ~elt_min:(8 + ts_bytes) c * (8 + ts_bytes)) : int);
        ignore (skip c (r_count ~elt_min:16 c * 16) : int);
        ignore (skip c ts_bytes : int);
        let commit = r_bool c in
        if complete c then v.write_back_held x ~shard tid ~commit
      end
      else begin
        seek c start;
        let msg = decode_payload ~kind c in
        if complete c then v.other x ~shard msg
      end
  | _ ->
      let msg = decode_payload ~kind c in
      if complete c then v.other x ~shard msg

let dispatch d x c =
  let kind = unframe_kind_at c in
  if failed c = None then dispatch_payload d x ~kind ~shard:(frame_shard c) c

let decode_shard s =
  let c = cursor s in
  let kind, shard = unframe c in
  let msg = decode_payload ~kind c in
  finish c (shard, msg)

let decode s = Result.map snd (decode_shard s)

(* One frame out of a multi-frame datagram, read in place: [limit]
   ends the datagram inside a larger (reused) receive buffer, and
   nothing past it is read. [Trailing] here means junk inside this
   frame's own payload; bytes after the frame belong to the next one
   and are reported through [next]. *)
let decode_shard_at ?limit s ~pos =
  let c = cursor ~pos ?limit s in
  let kind, shard = unframe_at c in
  let msg = decode_payload ~kind c in
  match failed c with
  | Some e -> Error e
  | None ->
      if remaining c > 0 then Error (Trailing (remaining c))
      else Ok ((shard, msg), frame_end c)

(* ------------------------------------------------------------------ *)
(* Equality and printing (tests, debug)                                *)
(* ------------------------------------------------------------------ *)

let equal_txn (a : Txn.t) (b : Txn.t) =
  Tid.equal a.tid b.tid
  && Array.length a.read_set = Array.length b.read_set
  && Array.length a.write_set = Array.length b.write_set
  && Array.for_all2
       (fun (x : Txn.read_entry) (y : Txn.read_entry) ->
         x.key = y.key && Timestamp.equal x.wts y.wts)
       a.read_set b.read_set
  && Array.for_all2
       (fun (x : Txn.write_entry) (y : Txn.write_entry) ->
         x.key = y.key && x.value = y.value)
       a.write_set b.write_set

let equal_status a b = status_tag a = status_tag b

let equal_accept_reply (a : accept_reply) (b : accept_reply) =
  match (a, b) with
  | `Accepted, `Accepted -> true
  | `Stale v, `Stale w -> v = w
  | `Finalized s, `Finalized t -> equal_status s t
  | _ -> false

let equal_record_view (a : Replica.record_view) (b : Replica.record_view) =
  equal_txn a.txn b.txn
  && Timestamp.equal a.ts b.ts
  && equal_status a.status b.status
  && a.view = b.view
  && Option.equal ( = ) a.accept_view b.accept_view

let equal_coord_reply (a : coord_reply) (b : coord_reply) =
  match (a, b) with
  | `View_ok x, `View_ok y -> Option.equal equal_record_view x y
  | `Stale v, `Stale w -> v = w
  | _ -> false

let equal_records a b =
  List.length a = List.length b
  && List.for_all2
       (fun (c1, v1) (c2, v2) -> c1 = c2 && equal_record_view v1 v2)
       a b

let equal_store_row a b =
  a.key = b.key && a.value = b.value
  && Timestamp.equal a.wts b.wts
  && Timestamp.equal a.rts b.rts

let equal a b =
  match (a, b) with
  | Get a, Get b ->
      a.coord = b.coord && a.slot = b.slot && a.seq = b.seq && a.key = b.key
  | Get_reply a, Get_reply b ->
      a.slot = b.slot && a.seq = b.seq && a.replica = b.replica
      && a.key = b.key && a.value = b.value
      && Timestamp.equal a.wts b.wts
  | Validate a, Validate b ->
      a.coord = b.coord && a.slot = b.slot && a.seq = b.seq
      && equal_txn a.txn b.txn
      && Timestamp.equal a.ts b.ts
  | Validated a, Validated b ->
      a.slot = b.slot && a.seq = b.seq && a.replica = b.replica
      && equal_status a.status b.status
  | Accept a, Accept b ->
      a.coord = b.coord && a.slot = b.slot && a.seq = b.seq
      && equal_txn a.txn b.txn
      && Timestamp.equal a.ts b.ts
      && a.decision = b.decision && a.view = b.view
  | Accepted a, Accepted b ->
      a.slot = b.slot && a.seq = b.seq && a.replica = b.replica
      && equal_accept_reply a.reply b.reply
  | Write_back a, Write_back b ->
      equal_txn a.txn b.txn
      && Timestamp.equal a.ts b.ts
      && a.commit = b.commit
  | Heartbeat a, Heartbeat b -> a.from_ = b.from_ && a.paused = b.paused
  | Coord_change a, Coord_change b ->
      a.observer = b.observer && Tid.equal a.tid b.tid && a.view = b.view
  | Coord_reply a, Coord_reply b ->
      a.observer = b.observer && a.replica = b.replica
      && Tid.equal a.tid b.tid && a.view = b.view
      && equal_coord_reply a.reply b.reply
  | Vc_accept a, Vc_accept b ->
      a.observer = b.observer
      && equal_txn a.txn b.txn
      && Timestamp.equal a.ts b.ts
      && a.decision = b.decision && a.view = b.view
  | Vc_accept_reply a, Vc_accept_reply b ->
      a.observer = b.observer && a.replica = b.replica
      && Tid.equal a.tid b.tid && a.view = b.view
      && equal_accept_reply a.reply b.reply
  | Epoch_change a, Epoch_change b ->
      a.initiator = b.initiator && a.epoch = b.epoch
  | Epoch_records a, Epoch_records b ->
      a.replica = b.replica && a.epoch = b.epoch
      && equal_records a.records b.records
  | Epoch_install a, Epoch_install b ->
      a.epoch = b.epoch
      && equal_records a.records b.records
      && Option.equal
           (fun x y ->
             List.length x = List.length y && List.for_all2 equal_store_row x y)
           a.store b.store
  | Epoch_installed a, Epoch_installed b ->
      a.replica = b.replica && a.epoch = b.epoch
  | Reads a, Reads b ->
      a.coord = b.coord && a.slot = b.slot && a.seq = b.seq && a.keys = b.keys
  | Read_replies a, Read_replies b ->
      a.slot = b.slot && a.seq = b.seq && a.replica = b.replica
      && a.values = b.values
      && Int.equal (Array.length a.wts) (Array.length b.wts)
      && Array.for_all2 Timestamp.equal a.wts b.wts
  | Shutdown, Shutdown -> true
  | _ -> false

let pp ppf msg =
  match msg with
  | Get { coord; slot; seq; key } ->
      Format.fprintf ppf "get[c%d.%d#%d key=%d]" coord slot seq key
  | Get_reply { replica; key; value; _ } ->
      Format.fprintf ppf "get_reply[r%d key=%d=%d]" replica key value
  | Validate { coord; slot; seq; txn; _ } ->
      Format.fprintf ppf "validate[c%d.%d#%d %a]" coord slot seq Tid.pp
        txn.Txn.tid
  | Validated { replica; status; _ } ->
      Format.fprintf ppf "validated[r%d %a]" replica Txn.pp_status status
  | Accept { coord; slot; seq; view; _ } ->
      Format.fprintf ppf "accept[c%d.%d#%d v%d]" coord slot seq view
  | Accepted { replica; _ } -> Format.fprintf ppf "accepted[r%d]" replica
  | Write_back { txn; commit; _ } ->
      Format.fprintf ppf "write_back[%a %s]" Tid.pp txn.Txn.tid
        (if commit then "commit" else "abort")
  | Heartbeat { from_; paused } ->
      Format.fprintf ppf "heartbeat[r%d%s]" from_ (if paused then " paused" else "")
  | Coord_change { observer; tid; view } ->
      Format.fprintf ppf "coord_change[o%d %a v%d]" observer Tid.pp tid view
  | Coord_reply { observer; replica; tid; view; _ } ->
      Format.fprintf ppf "coord_reply[o%d r%d %a v%d]" observer replica Tid.pp tid
        view
  | Vc_accept { observer; txn; view; _ } ->
      Format.fprintf ppf "vc_accept[o%d %a v%d]" observer Tid.pp txn.Txn.tid view
  | Vc_accept_reply { observer; replica; tid; view; _ } ->
      Format.fprintf ppf "vc_accept_reply[o%d r%d %a v%d]" observer replica
        Tid.pp tid view
  | Epoch_change { initiator; epoch } ->
      Format.fprintf ppf "epoch_change[r%d e%d]" initiator epoch
  | Epoch_records { replica; epoch; records } ->
      Format.fprintf ppf "epoch_records[r%d e%d n=%d]" replica epoch
        (List.length records)
  | Epoch_install { epoch; records; store } ->
      Format.fprintf ppf "epoch_install[e%d n=%d%s]" epoch (List.length records)
        (match store with Some _ -> " +store" | None -> "")
  | Epoch_installed { replica; epoch } ->
      Format.fprintf ppf "epoch_installed[r%d e%d]" replica epoch
  | Reads { coord; slot; seq; keys } ->
      Format.fprintf ppf "reads[c%d.%d#%d n=%d]" coord slot seq (Array.length keys)
  | Read_replies { replica; values; _ } ->
      Format.fprintf ppf "read_replies[r%d n=%d]" replica (Array.length values)
  | Shutdown -> Format.fprintf ppf "shutdown"
