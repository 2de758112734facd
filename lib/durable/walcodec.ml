(* On-disk formats for the durable layer, built from the same
   primitives as the cluster's wire frames so a record view is the
   same bytes on disk as inside an [Epoch_records] datagram.

   A WAL entry is one CRC frame:

     [u32 crc-of-payload][u32 len][len payload bytes]

   with payload [i64 core][record_view]. A snapshot file is a single
   frame of the same shape whose payload is
   [i64 core][i64 epoch][i64 wal_cut][record_view list][store_row list].

   Everything here is pure (rule Z6) and the readers are total (rule
   Z7): a torn tail, a flipped bit, or outright garbage yields the
   longest valid prefix (log) or [None] (snapshot) — never an
   exception. Torn-tail tolerance is what makes the crash model work:
   a SIGKILL mid-append loses at most the unsynced suffix, and replay
   stops cleanly at the first frame whose CRC does not match. *)

module Wire = Mk_wire.Wire
module Codec = Mk_wire.Codec
module Timestamp = Mk_clock.Timestamp
module Replica = Mk_meerkat.Replica
open Wire

type record = { core : int; view : Replica.record_view }

(* Frame a payload: crc first so a torn write that only got the
   header out still fails the checksum (the length prefix alone would
   happily describe the missing bytes). *)
let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  w_u32 b (Crc32.digest payload);
  w_string b payload;
  Buffer.contents b

let encode_record { core; view } =
  let p = Buffer.create 96 in
  w_i64 p core;
  Codec.w_record_view p view;
  frame (Buffer.contents p)

(* The checksummed payload of the frame at [pos] (framed size: 8 +
   its length), or [None] on a torn or corrupt tail. *)
let read_frame s ~pos =
  let c = cursor ~pos s in
  let crc = r_u32 c in
  let payload = r_string c in
  if Option.is_none (failed c) && Crc32.digest payload = crc then Some payload
  else None

let parse_record payload =
  let c = cursor payload in
  let core = r_i64 c in
  let view = Codec.r_record_view c in
  if core < 0 then fail c (Malformed "negative core");
  finish c { core; view }

type replay = { records : record list; valid_bytes : int; decode_errors : int }

let read_records ?(from = 0) s =
  let n = String.length s in
  if from < 0 || from > n then
    (* A snapshot token pointing outside the log it cuts: the log was
       lost or truncated after the snapshot was written. The snapshot
       itself is still good; there is just no suffix to replay. *)
    { records = []; valid_bytes = 0; decode_errors = 1 }
  else begin
    let rec go acc pos =
      if pos >= n then { records = List.rev acc; valid_bytes = pos; decode_errors = 0 }
      else
        match read_frame s ~pos with
        | None ->
            (* Longest valid prefix: everything before [pos] replays,
               the torn or corrupt tail is dropped. *)
            { records = List.rev acc; valid_bytes = pos; decode_errors = 1 }
        | Some payload -> (
            match parse_record payload with
            | Error _ ->
                { records = List.rev acc; valid_bytes = pos; decode_errors = 1 }
            | Ok r -> go (r :: acc) (pos + 8 + String.length payload))
    in
    go [] from
  end

type snapshot = {
  core : int;
  epoch : int;
  wal_cut : int;
  views : Replica.record_view list;
  rows : (int * int * Timestamp.t * Timestamp.t) list;
}

let encode_snapshot { core; epoch; wal_cut; views; rows } =
  let p = Buffer.create 256 in
  w_i64 p core;
  w_i64 p epoch;
  w_i64 p wal_cut;
  w_list Codec.w_record_view p views;
  w_list Codec.w_store_row p
    (List.map
       (fun (key, value, wts, rts) -> { Codec.key; value; wts; rts })
       rows);
  frame (Buffer.contents p)

let parse_snapshot payload =
  let c = cursor payload in
  let core = r_i64 c in
  let epoch = r_i64 c in
  let wal_cut = r_i64 c in
  let views = r_list ~elt_min:Codec.record_view_min Codec.r_record_view c in
  let rows =
    r_list ~elt_min:Codec.store_row_bytes
      (fun c ->
        let r = Codec.r_store_row c in
        (r.key, r.value, r.wts, r.rts))
      c
  in
  if core < 0 || epoch < 0 || wal_cut < 0 then
    fail c (Malformed "negative snapshot token");
  finish c { core; epoch; wal_cut; views; rows }

let read_snapshot s =
  match read_frame s ~pos:0 with
  | Some payload when 8 + String.length payload = String.length s ->
      Result.to_option (parse_snapshot payload)
  | Some _ | None -> None
