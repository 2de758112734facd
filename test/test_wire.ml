(* The cluster backend's wire layer: round-trip per message kind,
   encode determinism, and totality of decode under truncation,
   corruption and random fuzz — hostile input must yield [Error _]
   and never an exception (ISSUE satellite 1). *)

module Wire = Mk_wire.Wire
module Codec = Mk_wire.Codec
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Replica = Mk_meerkat.Replica

(* --- seeded generators --- *)

let i rng = Random.State.int rng 1_000_000

let ts rng =
  Timestamp.make
    ~time:(Random.State.float rng 1e6)
    ~client_id:(Random.State.int rng 64)

let tid rng =
  Timestamp.Tid.make
    ~seq:(Random.State.int rng 100_000)
    ~client_id:(Random.State.int rng 64)

let txn rng =
  let read_set =
    List.init
      (Random.State.int rng 4)
      (fun _ -> { Txn.key = Random.State.int rng 256; wts = ts rng })
  in
  let write_set =
    List.init
      (Random.State.int rng 4)
      (fun _ -> { Txn.key = Random.State.int rng 256; value = i rng })
  in
  Txn.make ~tid:(tid rng) ~read_set ~write_set

let status rng =
  match Random.State.int rng 6 with
  | 0 -> Txn.Validated_ok
  | 1 -> Txn.Validated_abort
  | 2 -> Txn.Accepted_commit
  | 3 -> Txn.Accepted_abort
  | 4 -> Txn.Committed
  | _ -> Txn.Aborted

let decision rng : Codec.decision =
  if Random.State.bool rng then `Commit else `Abort

let accept_reply rng : Codec.accept_reply =
  match Random.State.int rng 3 with
  | 0 -> `Accepted
  | 1 -> `Stale (Random.State.int rng 100)
  | _ -> `Finalized (status rng)

let record_view rng =
  {
    Replica.txn = txn rng;
    ts = ts rng;
    status = status rng;
    view = Random.State.int rng 10;
    accept_view =
      (if Random.State.bool rng then Some (Random.State.int rng 10) else None);
  }

let coord_reply rng : Codec.coord_reply =
  match Random.State.int rng 3 with
  | 0 -> `View_ok None
  | 1 -> `View_ok (Some (record_view rng))
  | _ -> `Stale (Random.State.int rng 100)

let store_row rng =
  {
    Codec.key = Random.State.int rng 256;
    value = i rng;
    wts = ts rng;
    rts = ts rng;
  }

let records rng =
  List.init
    (Random.State.int rng 3)
    (fun _ -> (Random.State.int rng 1000, record_view rng))

(* One random message of each of the 19 wire kinds. *)
let gen_msg rng k : Codec.t =
  match k with
  | 0 -> Get { coord = i rng; slot = i rng; seq = i rng; key = i rng }
  | 1 ->
      Validate
        { coord = i rng; slot = i rng; seq = i rng; txn = txn rng; ts = ts rng }
  | 2 ->
      Accept
        {
          coord = i rng;
          slot = i rng;
          seq = i rng;
          txn = txn rng;
          ts = ts rng;
          decision = decision rng;
          view = Random.State.int rng 10;
        }
  | 3 ->
      Write_back
        { txn = txn rng; ts = ts rng; commit = Random.State.bool rng }
  | 4 ->
      Get_reply
        {
          slot = i rng;
          seq = i rng;
          replica = Random.State.int rng 7;
          key = i rng;
          value = i rng;
          wts = ts rng;
        }
  | 5 ->
      Validated
        {
          slot = i rng;
          seq = i rng;
          replica = Random.State.int rng 7;
          status = status rng;
        }
  | 6 ->
      Accepted
        {
          slot = i rng;
          seq = i rng;
          replica = Random.State.int rng 7;
          reply = accept_reply rng;
        }
  | 7 ->
      Heartbeat { from_ = Random.State.int rng 7; paused = Random.State.bool rng }
  | 8 ->
      Coord_change
        {
          observer = Random.State.int rng 7;
          tid = tid rng;
          view = Random.State.int rng 10;
        }
  | 9 ->
      Coord_reply
        {
          observer = Random.State.int rng 7;
          replica = Random.State.int rng 7;
          tid = tid rng;
          view = Random.State.int rng 10;
          reply = coord_reply rng;
        }
  | 10 ->
      Vc_accept
        {
          observer = Random.State.int rng 7;
          txn = txn rng;
          ts = ts rng;
          decision = decision rng;
          view = Random.State.int rng 10;
        }
  | 11 ->
      Vc_accept_reply
        {
          observer = Random.State.int rng 7;
          replica = Random.State.int rng 7;
          tid = tid rng;
          view = Random.State.int rng 10;
          reply = accept_reply rng;
        }
  | 12 -> Epoch_change { initiator = Random.State.int rng 7; epoch = i rng }
  | 13 ->
      Epoch_records
        { replica = Random.State.int rng 7; epoch = i rng; records = records rng }
  | 14 ->
      Epoch_install
        {
          epoch = i rng;
          records = records rng;
          store =
            (if Random.State.bool rng then
               Some (List.init (Random.State.int rng 4) (fun _ -> store_row rng))
             else None);
        }
  | 15 -> Shutdown
  | 16 -> Epoch_installed { replica = Random.State.int rng 7; epoch = i rng }
  | 17 ->
      Reads
        {
          coord = i rng;
          slot = i rng;
          seq = i rng;
          keys = Array.init (Random.State.int rng 6) (fun _ -> i rng);
        }
  | _ ->
      let n = Random.State.int rng 6 in
      Read_replies
        {
          slot = i rng;
          seq = i rng;
          replica = Random.State.int rng 7;
          values = Array.init n (fun _ -> i rng);
          wts = Array.init n (fun _ -> ts rng);
        }

let n_kinds = 19

(* --- round-trip and determinism --- *)

let test_roundtrip_all_kinds () =
  let rng = Random.State.make [| 0xC0DEC |] in
  for k = 0 to n_kinds - 1 do
    for _ = 1 to 25 do
      let m = gen_msg rng k in
      let encoded = Codec.encode m in
      match Codec.decode encoded with
      | Error e ->
          Alcotest.failf "%s failed to decode: %s" (Codec.kind_name m)
            (Wire.error_to_string e)
      | Ok m' ->
          if not (Codec.equal m m') then
            Alcotest.failf "%s round-trip mismatch: %a vs %a"
              (Codec.kind_name m) Codec.pp m Codec.pp m';
          (* Deterministic encode: re-encoding the decoded message
             reproduces the exact bytes. *)
          Alcotest.(check string)
            (Codec.kind_name m ^ " canonical bytes")
            encoded (Codec.encode m')
    done
  done

let test_kind_tags_stable () =
  (* Frame tags are a wire contract: 1..19, every kind its own, and
     byte 3 of every frame is the tag. *)
  let rng = Random.State.make [| 42 |] in
  let seen = Array.make (n_kinds + 1) false in
  for k = 0 to n_kinds - 1 do
    let m = gen_msg rng k in
    let tag = Codec.kind m in
    Alcotest.(check bool)
      (Codec.kind_name m ^ " tag in 1..19")
      true
      (tag >= 1 && tag <= n_kinds && not seen.(tag));
    seen.(tag) <- true;
    Alcotest.(check int)
      (Codec.kind_name m ^ " tag framed")
      tag
      (Char.code (Codec.encode m).[3])
  done

(* --- shard-stamped frames (wire v2) --- *)

let test_shard_roundtrip () =
  let rng = Random.State.make [| 0x5A4D |] in
  List.iter
    (fun shard ->
      for k = 0 to n_kinds - 1 do
        let m = gen_msg rng k in
        let encoded = Codec.encode_shard ~shard m in
        match Codec.decode_shard encoded with
        | Error e ->
            Alcotest.failf "%s shard %d failed to decode: %s"
              (Codec.kind_name m) shard (Wire.error_to_string e)
        | Ok (shard', m') ->
            Alcotest.(check int) (Codec.kind_name m ^ " shard") shard shard';
            if not (Codec.equal m m') then
              Alcotest.failf "%s shard round-trip mismatch" (Codec.kind_name m)
      done)
    [ 0; 1; 7; 255; Wire.max_shard ];
  (* encode is exactly encode_shard ~shard:0, and decode ignores the
     stamp. *)
  let m = gen_msg rng 0 in
  Alcotest.(check string) "encode = shard 0" (Codec.encode m)
    (Codec.encode_shard ~shard:0 m);
  match Codec.decode (Codec.encode_shard ~shard:9 m) with
  | Ok m' -> Alcotest.(check bool) "decode ignores shard" true (Codec.equal m m')
  | Error e -> Alcotest.failf "decode: %s" (Wire.error_to_string e)

let test_shard_header_layout () =
  (* The shard id travels as a little-endian u16 at bytes 4-5, between
     the kind tag and the payload length. *)
  let rng = Random.State.make [| 0x5A4E |] in
  let m = gen_msg rng 1 in
  let s = Codec.encode_shard ~shard:0x0102 m in
  Alcotest.(check int) "shard lo byte" 0x02 (Char.code s.[4]);
  Alcotest.(check int) "shard hi byte" 0x01 (Char.code s.[5]);
  Alcotest.(check int) "header bytes" 10 Wire.header_bytes;
  Alcotest.(check int) "wire version" 4 Wire.version

let test_shard_range_checked () =
  let rng = Random.State.make [| 0x5A4F |] in
  let m = gen_msg rng 0 in
  List.iter
    (fun shard ->
      match Codec.encode_shard ~shard m with
      | (_ : string) -> Alcotest.failf "encode_shard accepted %d" shard
      | exception Invalid_argument _ -> ())
    [ -1; Wire.max_shard + 1; max_int ]

(* --- reused-buffer encoding and multi-frame datagrams --- *)

let test_encode_into_bit_identical () =
  (* The zero-alloc encode path must be a bitwise clone of the string
     one: the shim coalesces frames built by [encode_shard_into], and
     the golden equivalence of the three backends rests on the frames
     being the same bytes either way. *)
  let rng = Random.State.make [| 0xB17E |] in
  let scratch = Buffer.create 16 in
  let out = Buffer.create 16 in
  List.iter
    (fun shard ->
      for k = 0 to n_kinds - 1 do
        let m = gen_msg rng k in
        Buffer.clear out;
        (* Pre-dirty the scratch: a frame must not depend on what the
           previous one left behind. *)
        Buffer.add_string scratch "stale bytes";
        Codec.encode_shard_into ~scratch ~out ~shard m;
        Alcotest.(check string)
          (Codec.kind_name m ^ " into = string encode")
          (Codec.encode_shard ~shard m)
          (Buffer.contents out)
      done)
    [ 0; 3; Wire.max_shard ]

let test_multi_frame_datagram () =
  (* Coalescing: successive [encode_shard_into] calls append frames,
     the result is exactly the concatenation of the per-frame strings,
     and [decode_shard_at] walks it back to the same message sequence
     a per-frame [decode_shard] would give. *)
  let rng = Random.State.make [| 0xD6 |] in
  let msgs = List.init 20 (fun j -> (j mod 5, gen_msg rng (j mod n_kinds))) in
  let scratch = Buffer.create 16 in
  let out = Buffer.create 256 in
  List.iter (fun (shard, m) -> Codec.encode_shard_into ~scratch ~out ~shard m) msgs;
  let dgram = Buffer.contents out in
  let frames = List.map (fun (shard, m) -> Codec.encode_shard ~shard m) msgs in
  Alcotest.(check string) "coalesced datagram = concatenated frames"
    (String.concat "" frames) dgram;
  let rec walk pos acc =
    if pos = String.length dgram then List.rev acc
    else
      match Codec.decode_shard_at dgram ~pos with
      | Error e ->
          Alcotest.failf "decode_shard_at %d: %s" pos (Wire.error_to_string e)
      | Ok (sm, next) ->
          if next <= pos then Alcotest.failf "cursor stuck at %d" pos;
          walk next (sm :: acc)
  in
  let decoded = walk 0 [] in
  Alcotest.(check int) "every frame decoded" (List.length msgs)
    (List.length decoded);
  List.iter2
    (fun (shard, m) (shard', m') ->
      Alcotest.(check int) (Codec.kind_name m ^ " shard kept") shard shard';
      if not (Codec.equal m m') then
        Alcotest.failf "%s multi-frame round-trip mismatch" (Codec.kind_name m))
    msgs decoded;
  (* A torn tail degrades to Error at the last frame's offset without
     disturbing the valid prefix. *)
  let last = List.nth frames (List.length frames - 1) in
  let last_start = String.length dgram - String.length last in
  let cut = String.sub dgram 0 (String.length dgram - 3) in
  match Codec.decode_shard_at cut ~pos:last_start with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated tail frame decoded"

(* --- totality: truncation, corruption, fuzz --- *)

let expect_error what = function
  | Error _ -> ()
  | Ok (m : Codec.t) ->
      Alcotest.failf "%s decoded as %s" what (Codec.kind_name m)

let test_truncation_is_error () =
  let rng = Random.State.make [| 7 |] in
  for k = 0 to n_kinds - 1 do
    let m = gen_msg rng k in
    let s = Codec.encode m in
    for n = 0 to String.length s - 1 do
      expect_error
        (Printf.sprintf "%s truncated to %d bytes" (Codec.kind_name m) n)
        (Codec.decode (String.sub s 0 n))
    done
  done

let corrupt s pos c =
  let b = Bytes.of_string s in
  Bytes.set b pos c;
  Bytes.to_string b

let test_header_corruption () =
  let rng = Random.State.make [| 9 |] in
  let s = Codec.encode (gen_msg rng 0) in
  (match Codec.decode (corrupt s 0 'X') with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic not detected");
  (match Codec.decode (corrupt s 2 '\xfe') with
  | Error (Wire.Bad_version 0xfe) -> ()
  | _ -> Alcotest.fail "bad version not detected");
  (match Codec.decode (corrupt s 3 '\xee') with
  | Error (Wire.Unknown_kind 0xee) -> ()
  | _ -> Alcotest.fail "unknown kind not detected");
  match Codec.decode (s ^ "!?") with
  | Error (Wire.Trailing 2) -> ()
  | _ -> Alcotest.fail "trailing junk not detected"

let test_byte_flip_fuzz () =
  (* Flip one random byte anywhere in a valid frame: decode must
     return — Ok or Error, never an exception. *)
  let rng = Random.State.make [| 0xF122 |] in
  for _ = 1 to 2000 do
    let m = gen_msg rng (Random.State.int rng n_kinds) in
    let s = Codec.encode m in
    let pos = Random.State.int rng (String.length s) in
    let flipped = corrupt s pos (Char.chr (Random.State.int rng 256)) in
    match Codec.decode flipped with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "decode raised %s on %s with byte %d flipped"
          (Printexc.to_string e) (Codec.kind_name m) pos
  done

let test_random_garbage () =
  let rng = Random.State.make [| 0xBAD |] in
  for _ = 1 to 2000 do
    let len = Random.State.int rng 64 in
    let s =
      String.init len (fun j ->
          (* Force a non-'M' first byte so every input is invalid. *)
          if j = 0 then 'z' else Char.chr (Random.State.int rng 256))
    in
    match Codec.decode s with
    | Error _ -> ()
    | Ok m ->
        Alcotest.failf "garbage decoded as %s" (Codec.kind_name m)
    | exception e ->
        Alcotest.failf "decode raised %s on garbage" (Printexc.to_string e)
  done

let test_hostile_count_bounded () =
  (* A 4-billion-element list header must fail before allocation:
     the count is checked against the remaining bytes. *)
  let b = Buffer.create 8 in
  Wire.w_u32 b 0xFFFFFFFF;
  Wire.w_u8 b 1;
  let s = Buffer.contents b in
  let c = Wire.cursor s in
  let xs = Wire.r_list ~elt_min:1 Wire.r_u8 c in
  Alcotest.(check int) "no list element read" 0 (List.length xs);
  (match Wire.finish c xs with
  | Error (Wire.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "hostile count accepted");
  let c = Wire.cursor s in
  let xs = Wire.r_array ~elt_min:1 Wire.r_u8 c in
  Alcotest.(check int) "no array element read" 0 (Array.length xs);
  match Wire.finish c xs with
  | Error (Wire.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "hostile array count accepted"

let test_hostile_read_counts () =
  (* The two multi-key read frames each carry arrays whose counts come
     off the wire: a count the frame's bytes cannot hold must fail as
     [Malformed] before anything is allocated for it. *)
  let frame ~kind payload =
    let b = Buffer.create 64 in
    payload b;
    Wire.frame ~kind (Buffer.contents b)
  in
  let hostile = 0xFFFFFFFF in
  let cases =
    [
      ( "reads keys",
        frame ~kind:18 (fun b ->
            List.iter (Wire.w_i64 b) [ 1; 2; 3 ];
            Wire.w_u32 b hostile;
            Wire.w_i64 b 4) );
      ( "read_replies values",
        frame ~kind:19 (fun b ->
            List.iter (Wire.w_i64 b) [ 2; 3; 0 ];
            Wire.w_u32 b hostile;
            Wire.w_i64 b 5) );
      ( "read_replies wts",
        frame ~kind:19 (fun b ->
            List.iter (Wire.w_i64 b) [ 2; 3; 0 ];
            Wire.w_array Wire.w_i64 b [| 5 |];
            Wire.w_u32 b hostile;
            (* 16 bytes: room for one value, not for one timestamp. *)
            Wire.w_i64 b 6;
            Wire.w_i64 b 7) );
      ( "read_replies wts, one short",
        (* Two timestamps claimed, bytes for one and a half. *)
        frame ~kind:19 (fun b ->
            List.iter (Wire.w_i64 b) [ 2; 3; 0 ];
            Wire.w_array Wire.w_i64 b [| 5; 6 |];
            Wire.w_u32 b 2;
            List.iter (Wire.w_i64 b) [ 7; 8; 9 ]) );
    ]
  in
  List.iter
    (fun (what, s) ->
      match Codec.decode s with
      | Error (Wire.Malformed _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error %s" what (Wire.error_to_string e)
      | Ok m -> Alcotest.failf "%s: hostile count decoded as %s" what (Codec.kind_name m))
    cases

(* --- in place: frames inside a larger, reused buffer --- *)

let same_result a b =
  match (a, b) with
  | Ok ((s1, m1), n1), Ok ((s2, m2), n2) -> s1 = s2 && n1 = n2 && Codec.equal m1 m2
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let show = function
  | Ok ((_, m), next) -> Printf.sprintf "Ok %s next=%d" (Codec.kind_name m) next
  | Error e -> "Error " ^ Wire.error_to_string e

let test_stale_bytes_past_limit () =
  (* A reused receive buffer holds, past the current datagram's
     length, the tail of an earlier and longer one. Here the earlier
     datagram is the whole frame and the current one a prefix of it:
     the decoder must report the prefix [Truncated], exactly as for
     the prefix alone, and never complete the frame from the stale
     bytes. *)
  let rng = Random.State.make [| 0x57A1E |] in
  for k = 0 to n_kinds - 1 do
    let m = gen_msg rng k in
    let full = Codec.encode_shard ~shard:2 m in
    let flen = String.length full in
    for limit = 0 to flen - 1 do
      let got = Codec.decode_shard_at ~limit full ~pos:0 in
      let want =
        if limit < Wire.header_bytes then
          Wire.Truncated { need = Wire.header_bytes; have = limit }
        else
          Wire.Truncated
            { need = flen - Wire.header_bytes; have = limit - Wire.header_bytes }
      in
      (match got with
      | Error e when e = want -> ()
      | r ->
          Alcotest.failf "%s cut at %d over stale bytes: %s" (Codec.kind_name m)
            limit (show r));
      (* The same prefix with other bytes past the limit, and with
         none at all, must give the same answer. *)
      let junk = String.make (flen - limit) '\xa5' in
      let other = String.sub full 0 limit ^ junk in
      let alone = String.sub full 0 limit in
      if not (same_result got (Codec.decode_shard_at ~limit other ~pos:0)) then
        Alcotest.failf "%s cut at %d: stale bytes changed the result"
          (Codec.kind_name m) limit;
      if not (same_result got (Codec.decode_shard_at alone ~pos:0)) then
        Alcotest.failf "%s cut at %d: differs from the prefix alone"
          (Codec.kind_name m) limit
    done;
    (* The same inside a frame: a header claiming fewer payload bytes
       than follow it. Every read past the claimed end must fail
       as if those bytes were not there — a reader that indexed past
       its limit would complete the message from them. *)
    let plen = flen - Wire.header_bytes in
    for claimed = 0 to plen - 1 do
      let b = Bytes.of_string full in
      Bytes.set_int32_le b 6 (Int32.of_int claimed);
      let lying = Bytes.to_string b in
      let got = Codec.decode_shard_at lying ~pos:0 in
      let alone =
        Codec.decode_shard_at
          (String.sub lying 0 (Wire.header_bytes + claimed))
          ~pos:0
      in
      match got with
      | Error _ when same_result got alone -> ()
      | r ->
          Alcotest.failf "%s payload claimed %d of %d bytes: %s, alone %s"
            (Codec.kind_name m) claimed plen (show r) (show alone)
    done;
    (* A second frame behind a complete one, cut by the limit: the
       first decodes, the second is [Truncated]. *)
    let two = full ^ full in
    let limit = flen + (flen / 2) in
    (match Codec.decode_shard_at ~limit two ~pos:0 with
    | Ok ((2, m'), next) when next = flen && Codec.equal m m' -> ()
    | r -> Alcotest.failf "%s first of two: %s" (Codec.kind_name m) (show r));
    match Codec.decode_shard_at ~limit two ~pos:flen with
    | Error (Wire.Truncated _) -> ()
    | r -> Alcotest.failf "%s second of two: %s" (Codec.kind_name m) (show r)
  done

let test_byte_flip_fuzz_at_offset () =
  (* A frame with one byte flipped, placed at a random offset inside a
     larger buffer between junk bytes: decoding it there must give
     exactly what decoding the same bytes alone gives — never an
     exception, never a byte read outside [pos, limit). *)
  let rng = Random.State.make [| 0x0FF5E7 |] in
  for _ = 1 to 2000 do
    let m = gen_msg rng (Random.State.int rng n_kinds) in
    let s = Codec.encode_shard ~shard:(Random.State.int rng 4) m in
    let flip = Random.State.int rng (String.length s) in
    let flipped = corrupt s flip (Char.chr (Random.State.int rng 256)) in
    let junk n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    let pre = junk (1 + Random.State.int rng 40) in
    let post = junk (Random.State.int rng 40) in
    let pos = String.length pre in
    let limit = pos + String.length flipped in
    let buf = pre ^ flipped ^ post in
    let alone = Codec.decode_shard_at flipped ~pos:0 in
    match Codec.decode_shard_at ~limit buf ~pos with
    | exception e ->
        Alcotest.failf "decode at %d raised %s on %s with byte %d flipped" pos
          (Printexc.to_string e) (Codec.kind_name m) flip
    | r ->
        let shifted =
          match r with Ok (sm, next) -> Ok (sm, next - pos) | Error _ as e -> e
        in
        if not (same_result shifted alone) then
          Alcotest.failf "%s byte %d flipped: %s at offset %d, %s alone"
            (Codec.kind_name m) flip (show r) pos (show alone)
  done

(* --- allocation: decoding builds the message and little else --- *)

let txn_4r2w =
  let wts = Timestamp.make ~time:12.5 ~client_id:3 in
  Txn.make
    ~tid:(Timestamp.Tid.make ~seq:77 ~client_id:3)
    ~read_set:(List.init 4 (fun k -> { Txn.key = k; wts }))
    ~write_set:(List.init 2 (fun k -> { Txn.key = k; value = 100 + k }))

let test_decode_alloc_budget () =
  (* Minor words per decode, averaged over many runs, for the frames
     of the transaction fast path, decoded as the shim does (with a
     limit). The budgets leave room for the message itself and the
     result tuple; a Result/closure chain per field would blow them. *)
  let ts = Timestamp.make ~time:1.25 ~client_id:3 in
  let cases : (string * int * Codec.t) list =
    [
      ("get", 32, Get { coord = 1; slot = 2; seq = 3; key = 4 });
      ( "get_reply",
        40,
        Get_reply { slot = 2; seq = 3; replica = 1; key = 4; value = 5; wts = ts }
      );
      ( "validated",
        32,
        Validated { slot = 2; seq = 3; replica = 1; status = Txn.Validated_ok } );
      ( "validate 4r/2w",
        100,
        Validate { coord = 1; slot = 2; seq = 3; txn = txn_4r2w; ts } );
      ("write_back 4r/2w", 100, Write_back { txn = txn_4r2w; ts; commit = true });
      ( "read_replies 4 keys",
        64,
        Read_replies
          {
            slot = 0;
            seq = 3;
            replica = 1;
            values = [| 5; 6; 7; 8 |];
            wts = Array.make 4 ts;
          } );
    ]
  in
  List.iter
    (fun (what, budget, m) ->
      let s = Codec.encode m in
      let limit = String.length s in
      (match Codec.decode_shard_at ~limit s ~pos:0 with
      | Ok ((_, m'), _) when Codec.equal m m' -> ()
      | r -> Alcotest.failf "%s: %s" what (show r));
      let runs = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to runs do
        ignore (Sys.opaque_identity (Codec.decode_shard_at ~limit s ~pos:0))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int runs in
      if words > float_of_int budget then
        Alcotest.failf "%s: %.1f words per decode, budget %d" what words budget)
    cases

(* --- hot kinds straight from the cursor --- *)

(* What one [Codec.dispatch] handed over: a rebuilt message (the hot
   kinds' fields, read by index for the arrays), or a held write-back's
   tid and commit flag. *)
type handed = Msg of int * Codec.t | Held of int * Timestamp.Tid.t * bool

let recorder ~held =
  let got = ref [] in
  let put h = got := h :: !got in
  let visitor =
    {
      Codec.validated =
        (fun () ~shard ~slot ~seq ~replica status ->
          put (Msg (shard, Validated { slot; seq; replica; status })));
      accepted =
        (fun () ~shard ~slot ~seq ~replica reply ->
          put (Msg (shard, Accepted { slot; seq; replica; reply })));
      read_replies =
        (fun () ~shard ~slot ~seq ~replica rs ->
          put
            (Msg
               ( shard,
                 Read_replies
                   {
                     slot;
                     seq;
                     replica;
                     values = Array.init (Codec.replies_count rs) (Codec.reply_value rs);
                     wts = Array.init (Codec.replies_wts_count rs) (Codec.reply_wts rs);
                   } )));
      reads =
        (fun () ~shard ~coord ~slot ~seq keys ->
          put
            (Msg
               ( shard,
                 Reads
                   { coord; slot; seq; keys = Array.init (Codec.keys_count keys) (Codec.key_at keys) }
               )));
      held = (fun () _ -> held);
      write_back_held = (fun () ~shard tid ~commit -> put (Held (shard, tid, commit)));
      other = (fun () ~shard m -> put (Msg (shard, m)));
    }
  in
  (Codec.dispatcher visitor, got)

(* Dispatch the frame at [pos] of [s] (up to [limit]) on a fresh
   cursor: what was handed over, and the offset past the frame if it
   decoded. *)
let dispatch_at ~held ?limit s ~pos =
  let d, got = recorder ~held in
  let c = Wire.cursor ~pos ?limit s in
  Codec.dispatch d () c;
  let ok = Wire.failed c = None && Wire.remaining c = 0 in
  (!got, if ok then Some (Wire.frame_end c) else None)

(* [dispatch] agrees with [decode_shard_at]: a frame that decodes is
   handed over once, as the same message (a held write-back as its
   tid and commit flag), and ends at the same offset; one that does
   not decode hands nothing over and leaves the cursor bad or short. *)
let agrees ~held ?limit s ~pos =
  match (Codec.decode_shard_at ?limit s ~pos, dispatch_at ~held ?limit s ~pos) with
  | Ok ((shard, m), next), ([ Msg (shard', m') ], Some next') ->
      shard = shard' && next = next' && Codec.equal m m'
      && not (held && Codec.kind m = 7)
  | Ok ((shard, Write_back { txn; commit; _ }), next), ([ Held (shard', tid, commit') ], Some next')
    ->
      held && shard = shard' && next = next'
      && Timestamp.Tid.equal txn.Txn.tid tid
      && commit = commit'
  | Error _, ([], None) -> true
  | _ -> false

let test_dispatch_matches_decode () =
  let rng = Random.State.make [| 0xD15 |] in
  for round = 1 to 20 do
    for k = 0 to n_kinds - 1 do
      let m = gen_msg rng k in
      let s = Codec.encode_shard ~shard:(round mod 3) m in
      List.iter
        (fun held ->
          if not (agrees ~held s ~pos:0) then
            Alcotest.failf "%s (held %b): dispatch differs from decode" (Codec.kind_name m)
              held)
        [ false; true ]
    done
  done

let test_dispatch_hostile () =
  (* Every truncation and single-byte flip of every kind, at an offset
     inside a larger buffer with stale bytes past the limit: the hot
     path accepts and refuses exactly what the message decoder does. *)
  let rng = Random.State.make [| 0xBAD |] in
  for k = 0 to n_kinds - 1 do
    let m = gen_msg rng k in
    let frame = Codec.encode_shard ~shard:1 m in
    let len = String.length frame in
    let buf = "junk" ^ frame ^ frame in
    for cut = 0 to len do
      List.iter
        (fun held ->
          if not (agrees ~held buf ~pos:4 ~limit:(4 + cut)) then
            Alcotest.failf "%s cut at %d (held %b)" (Codec.kind_name m) cut held)
        [ false; true ]
    done;
    for at = 0 to len - 1 do
      let b = Bytes.of_string buf in
      Bytes.set b (4 + at) (Char.chr (Random.State.int rng 256));
      let b = Bytes.to_string b in
      List.iter
        (fun held ->
          if not (agrees ~held b ~pos:4 ~limit:(4 + len)) then
            Alcotest.failf "%s flipped at %d (held %b)" (Codec.kind_name m) at held)
        [ false; true ]
    done;
    (* A payload that decodes with bytes to spare inside its frame is
       [Trailing]: nothing is handed over. *)
    let padded = Bytes.of_string (frame ^ "pad") in
    Bytes.set_int32_le padded 6
      (Int32.of_int (len - Wire.header_bytes + String.length "pad"));
    List.iter
      (fun held ->
        if not (agrees ~held (Bytes.to_string padded) ~pos:0) then
          Alcotest.failf "%s padded (held %b)" (Codec.kind_name m) held)
      [ false; true ]
  done

let test_dispatch_alloc_budget () =
  (* On a reused cursor and dispatcher, as the shim and its consumers
     run them: a [Validated] is handed over with no allocation at all,
     a [Read_replies] read by value costs nothing either, and a
     write-back for a held record builds its tid (3 words) but no
     transaction. *)
  let ts = Timestamp.make ~time:1.25 ~client_id:3 in
  let sink = ref 0 in
  let built = ref 0 in
  let d =
    Codec.dispatcher
      {
        Codec.validated = (fun () ~shard:_ ~slot ~seq:_ ~replica:_ _ -> sink := !sink + slot);
        accepted = (fun () ~shard:_ ~slot:_ ~seq:_ ~replica:_ _ -> ());
        read_replies =
          (fun () ~shard:_ ~slot:_ ~seq:_ ~replica:_ rs ->
            for i = 0 to Codec.replies_count rs - 1 do
              sink := !sink + Codec.reply_value rs i
            done);
        reads = (fun () ~shard:_ ~coord:_ ~slot:_ ~seq:_ _ -> ());
        held = (fun () _ -> true);
        write_back_held = (fun () ~shard:_ _ ~commit:_ -> incr sink);
        other = (fun () ~shard:_ _ -> incr built);
      }
  in
  let cases =
    [
      ( "validated",
        0,
        Codec.Validated { slot = 2; seq = 3; replica = 1; status = Txn.Validated_ok } );
      ( "read_replies 4 keys, values",
        0,
        Codec.Read_replies
          { slot = 0; seq = 3; replica = 1; values = [| 5; 6; 7; 8 |]; wts = Array.make 4 ts }
      );
      ("held write_back 4r/2w", 3, Codec.Write_back { txn = txn_4r2w; ts; commit = true });
    ]
  in
  List.iter
    (fun (what, budget, m) ->
      let s = Codec.encode m in
      let limit = String.length s in
      let c = Wire.cursor s in
      let once () =
        Wire.reset c ~pos:0 ~limit;
        Codec.dispatch d () c
      in
      once ();
      let runs = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to runs do
        once ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int runs in
      if Wire.failed c <> None then Alcotest.failf "%s: did not decode" what;
      if words > float_of_int budget then
        Alcotest.failf "%s: %.1f words per dispatch, budget %d" what words budget)
    cases;
  Alcotest.(check int) "no message built" 0 !built

(* --- primitive round-trips --- *)

(* Read one value off a fresh cursor over [s]; the cursor must then be
   good and exactly consumed. *)
let read1 r s =
  let c = Wire.cursor s in
  let v = r c in
  Wire.finish c v

let test_f64_exact_bits () =
  List.iter
    (fun f ->
      let b = Buffer.create 8 in
      Wire.w_f64 b f;
      match read1 Wire.r_f64 (Buffer.contents b) with
      | Ok f' ->
          Alcotest.(check int64) "f64 bits" (Int64.bits_of_float f)
            (Int64.bits_of_float f')
      | Error e -> Alcotest.failf "f64: %s" (Wire.error_to_string e))
    [ 0.; -0.; 1.5; -1e300; 1e-308; Float.nan; Float.infinity;
      Float.neg_infinity ]

let test_u32_range () =
  (* In-range values round-trip; anything that would truncate into a
     wrong length on the wire is rejected loudly at encode time. *)
  List.iter
    (fun n ->
      let b = Buffer.create 4 in
      Wire.w_u32 b n;
      match read1 Wire.r_u32 (Buffer.contents b) with
      | Ok n' -> Alcotest.(check int) "u32" n n'
      | Error e -> Alcotest.failf "u32: %s" (Wire.error_to_string e))
    [ 0; 1; 0xFFFF; 0x10000; 0xFFFFFFFF ];
  List.iter
    (fun n ->
      match Wire.w_u32 (Buffer.create 4) n with
      | () -> Alcotest.failf "w_u32 accepted %d" n
      | exception Invalid_argument _ -> ())
    [ -1; min_int; 0x1_0000_0000; max_int ]

let test_i64_full_range () =
  List.iter
    (fun n ->
      let b = Buffer.create 8 in
      Wire.w_i64 b n;
      match read1 Wire.r_i64 (Buffer.contents b) with
      | Ok n' -> Alcotest.(check int) "i64" n n'
      | Error e -> Alcotest.failf "i64: %s" (Wire.error_to_string e))
    [ 0; 1; -1; 42; max_int; min_int ]

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip all kinds" `Quick
            test_roundtrip_all_kinds;
          Alcotest.test_case "kind tags stable" `Quick test_kind_tags_stable;
          Alcotest.test_case "shard stamp round-trip" `Quick
            test_shard_roundtrip;
          Alcotest.test_case "shard header layout" `Quick
            test_shard_header_layout;
          Alcotest.test_case "shard range checked" `Quick
            test_shard_range_checked;
          Alcotest.test_case "encode_into bit-identical" `Quick
            test_encode_into_bit_identical;
          Alcotest.test_case "multi-frame datagram" `Quick
            test_multi_frame_datagram;
        ] );
      ( "totality",
        [
          Alcotest.test_case "truncation is Error" `Quick
            test_truncation_is_error;
          Alcotest.test_case "header corruption" `Quick test_header_corruption;
          Alcotest.test_case "byte-flip fuzz" `Quick test_byte_flip_fuzz;
          Alcotest.test_case "random garbage" `Quick test_random_garbage;
          Alcotest.test_case "hostile count bounded" `Quick
            test_hostile_count_bounded;
          Alcotest.test_case "hostile read counts" `Quick
            test_hostile_read_counts;
        ] );
      ( "in place",
        [
          Alcotest.test_case "stale bytes past limit" `Quick
            test_stale_bytes_past_limit;
          Alcotest.test_case "byte-flip fuzz at offset" `Quick
            test_byte_flip_fuzz_at_offset;
          Alcotest.test_case "decode allocation budget" `Quick
            test_decode_alloc_budget;
        ] );
      ( "hot kinds",
        [
          Alcotest.test_case "dispatch = decode, every kind" `Quick
            test_dispatch_matches_decode;
          Alcotest.test_case "dispatch refuses what decode refuses" `Quick
            test_dispatch_hostile;
          Alcotest.test_case "dispatch allocation budget" `Quick
            test_dispatch_alloc_budget;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "f64 exact bits" `Quick test_f64_exact_bits;
          Alcotest.test_case "u32 range checked" `Quick test_u32_range;
          Alcotest.test_case "i64 full range" `Quick test_i64_full_range;
        ] );
    ]
