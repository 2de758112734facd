(* On-disk formats for the durable layer, built from the same
   primitives as the cluster's wire frames so a record view is the
   same bytes on disk as inside an [Epoch_records] datagram.

   A WAL entry is one CRC frame:

     [u32 crc-of-payload][u32 len][len payload bytes]

   with payload [i64 core][record_view]. A snapshot file is a single
   frame of the same shape whose payload is
   [i64 core][i64 epoch][i64 wal_cut][record_view list][store_row list].

   A writer frames each record into its own reused {!framer}: the
   payload is staged once, copied once to sit behind the header, and
   checksummed where it lands. The reader checks each frame in place,
   checksumming its region of the log and parsing from a cursor
   narrowed to it, so replay copies no payload either.

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

(* A frame is [crc][len][payload], crc first so a torn write that only
   got the header out still fails the checksum (the length prefix alone
   would happily describe the missing bytes). [seal p out] frames the
   payload staged in [p] at the front of [out], which has room for it:
   one copy of the payload, checksummed where it lands. *)
let seal p out =
  let len = Buffer.length p in
  if len > 0xffff_ffff then invalid_arg "Walcodec: payload over 4 GiB";
  Buffer.blit p 0 out 8 len;
  (* The string view lives only for this call; [out] is not written
     while it is read. *)
  let crc = Crc32.digest_sub (Bytes.unsafe_to_string out) ~pos:8 ~len in
  Bytes.set_int32_le out 0 (Int32.of_int crc);
  Bytes.set_int32_le out 4 (Int32.of_int len)

type framer = { payload : Buffer.t; mutable out : Bytes.t; mutable len : int }

let framer () = { payload = Buffer.create 256; out = Bytes.create 264; len = 0 }
let frame_bytes f = f.out
let frame_length f = f.len

let encode_record_into f { core; view } =
  let p = f.payload in
  Buffer.clear p;
  w_i64 p core;
  Codec.w_record_view p view;
  let need = 8 + Buffer.length p in
  if Bytes.length f.out < need then
    f.out <- Bytes.create (max need (2 * Bytes.length f.out));
  seal p f.out;
  f.len <- need

let encode_record r =
  let f = framer () in
  encode_record_into f r;
  Bytes.sub_string f.out 0 f.len

(* The frame at [pos], checked in place: [Some len] if its payload is
   the [len] bytes at [pos + 8] and their checksum matches, [None] on a
   torn or corrupt tail. *)
let read_frame s ~pos =
  let c = cursor ~pos s in
  let crc = r_u32 c in
  let len = r_u32 c in
  if Option.is_none (failed c) && len <= remaining c
     && Crc32.digest_sub s ~pos:(pos + 8) ~len = crc
  then Some len
  else None

(* Parse from a cursor narrowed to the payload's region of the log. *)
let parse_record s ~pos ~len =
  let c = cursor ~pos ~limit:(pos + len) s in
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
        | Some len -> (
            match parse_record s ~pos:(pos + 8) ~len with
            | Error _ ->
                { records = List.rev acc; valid_bytes = pos; decode_errors = 1 }
            | Ok r -> go (r :: acc) (pos + 8 + len))
    in
    go [] from
  end

type snapshot = {
  core : int;
  epoch : int;
  wal_cut : int;
  views : Replica.record_view list;
  rows : Replica.store_row list;
}

let encode_snapshot { core; epoch; wal_cut; views; rows } =
  let p = Buffer.create 256 in
  w_i64 p core;
  w_i64 p epoch;
  w_i64 p wal_cut;
  w_list Codec.w_record_view p views;
  w_list Codec.w_store_row p rows;
  let out = Bytes.create (8 + Buffer.length p) in
  seal p out;
  Bytes.unsafe_to_string out

let parse_snapshot s ~len =
  let c = cursor ~pos:8 ~limit:(8 + len) s in
  let core = r_i64 c in
  let epoch = r_i64 c in
  let wal_cut = r_i64 c in
  let views = r_list ~elt_min:Codec.record_view_min Codec.r_record_view c in
  let rows = r_list ~elt_min:Codec.store_row_bytes Codec.r_store_row c in
  if core < 0 || epoch < 0 || wal_cut < 0 then
    fail c (Malformed "negative snapshot token");
  finish c { core; epoch; wal_cut; views; rows }

let read_snapshot s =
  match read_frame s ~pos:0 with
  | Some len when 8 + len = String.length s ->
      Result.to_option (parse_snapshot s ~len)
  | Some _ | None -> None
