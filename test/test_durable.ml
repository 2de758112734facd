(* The durability layer, tested from the bytes up: the CRC check
   value, codec roundtrips, exhaustive torn-tail / bit-flip fuzzing
   of the replay readers (they must never raise — rule Z7), the
   snapshot/log interplay cases of crash-reboot recovery, the
   log-proportional checkpoint rule, and the real-file WAL against a
   temporary directory. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Quorum = Mk_meerkat.Quorum
module Replica = Mk_meerkat.Replica
module Crc32 = Mk_durable.Crc32
module Walcodec = Mk_durable.Walcodec
module Wal = Mk_durable.Wal
module Snapshot = Mk_durable.Snapshot
module Recover = Mk_durable.Recover
module Memlog = Mk_durable.Memlog
module Checkpoint = Mk_durable.Checkpoint
module Runtime = Mk_live.Runtime

let ts time = Timestamp.make ~time ~client_id:1

let txn ~seq ~key ~value =
  Txn.make
    ~tid:(Tid.make ~seq ~client_id:1)
    ~read_set:[]
    ~write_set:[ ({ key; value } : Txn.write_entry) ]

let view ~seq ~key ~value ~time status =
  { Replica.txn = txn ~seq ~key ~value; ts = ts time; status; view = 0;
    accept_view = None }

(* A deterministic position generator (no Random: byte-for-byte
   reproducible across runs and OCaml versions). *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

(* --- CRC32 --- *)

let test_crc_check_value () =
  Alcotest.(check int)
    "IEEE 802.3 check value" 0xCBF43926
    (Crc32.digest "123456789");
  Alcotest.(check int) "empty string" 0 (Crc32.digest "")

let test_crc_detects_flips () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let d = Crc32.digest s in
  for i = 0 to String.length s - 1 do
    if Crc32.digest (flip_byte s i) = d then
      Alcotest.failf "byte flip at %d not detected" i
  done

(* The bitwise CRC-32 the slicing-by-4 tables must agree with: one
   polynomial step per bit, no table to get wrong. *)
let crc_reference s =
  let crc = ref 0xffff_ffff in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := (!crc lsr 1) lxor (if !crc land 1 = 1 then 0xedb88320 else 0)
      done)
    s;
  lnot !crc land 0xffff_ffff

(* [n] bytes from the deterministic generator, seeded by [seed]. *)
let lcg_string ~seed n =
  let st = ref seed in
  String.init n (fun _ ->
      st := lcg !st;
      Char.chr ((!st lsr 16) land 0xff))

let test_crc_matches_reference () =
  let agree what s =
    let want = crc_reference s in
    if Crc32.digest s <> want then
      Alcotest.failf "%s (length %d): digest %08x, reference %08x" what
        (String.length s) (Crc32.digest s) want
  in
  (* Every length through a few words: word loop, byte tail, both. *)
  for n = 0 to 64 do
    agree "every length" (lcg_string ~seed:n n)
  done;
  let st = ref 961 in
  for i = 1 to 2000 do
    st := lcg !st;
    agree (Printf.sprintf "random #%d" i) (lcg_string ~seed:i (!st mod 301))
  done;
  agree "1 MiB" (lcg_string ~seed:7 (1 lsl 20));
  (* A sub-range at every alignment: [digest_sub] is [digest] of the
     copy. *)
  let s = lcg_string ~seed:3 200 in
  for pos = 1 to 8 do
    List.iter
      (fun len ->
        let want = crc_reference (String.sub s pos len) in
        let got = Crc32.digest_sub s ~pos ~len in
        if got <> want then
          Alcotest.failf "digest_sub ~pos:%d ~len:%d: %08x, reference %08x" pos
            len got want)
      [ 0; 1; 3; 4; 5; 31; 150; 200 - pos ]
  done;
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Crc32.digest_sub: range outside the string") (fun () ->
      ignore (Crc32.digest_sub s ~pos:199 ~len:2))

(* --- codec roundtrips --- *)

let sample_records =
  List.init 8 (fun i ->
      {
        Walcodec.core = i mod 2;
        view =
          view ~seq:(i + 1) ~key:i ~value:(i * 10) ~time:(float_of_int (i + 1))
            (if i mod 3 = 2 then Txn.Aborted else Txn.Committed);
      })

let log_image records =
  String.concat "" (List.map Walcodec.encode_record records)

(* Byte offsets of the frame boundaries: b.(i) is where frame i
   starts; the final element is the image length. *)
let boundaries records =
  let sizes = List.map (fun r -> String.length (Walcodec.encode_record r)) records in
  Array.of_list (List.fold_left (fun acc s -> (List.hd acc + s) :: acc) [ 0 ] sizes |> List.rev)

let record_equal (a : Walcodec.record) (b : Walcodec.record) =
  a.core = b.core
  && Tid.equal a.view.txn.tid b.view.txn.tid
  && Timestamp.compare a.view.ts b.view.ts = 0
  && a.view.status = b.view.status
  && a.view.view = b.view.view
  && a.view.accept_view = b.view.accept_view

let test_record_roundtrip () =
  let r = Walcodec.read_records (log_image sample_records) in
  Alcotest.(check int) "no decode errors" 0 r.decode_errors;
  Alcotest.(check int) "all frames" (List.length sample_records)
    (List.length r.records);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "record roundtrips" true (record_equal a b))
    sample_records r.records

let sample_snapshot =
  {
    Walcodec.core = 1;
    epoch = 3;
    wal_cut = 420;
    views = List.map (fun r -> r.Walcodec.view) sample_records;
    rows =
      [
        { key = 1; value = 10; wts = ts 1.0; rts = ts 2.0 };
        { key = 3; value = 30; wts = ts 3.0; rts = ts 3.0 };
      ];
  }

let test_snapshot_roundtrip () =
  match Walcodec.read_snapshot (Walcodec.encode_snapshot sample_snapshot) with
  | None -> Alcotest.fail "snapshot did not roundtrip"
  | Some s ->
      Alcotest.(check int) "core" 1 s.core;
      Alcotest.(check int) "epoch" 3 s.epoch;
      Alcotest.(check int) "wal_cut" 420 s.wal_cut;
      Alcotest.(check int) "views" (List.length sample_snapshot.views)
        (List.length s.views);
      Alcotest.(check int) "rows" 2 (List.length s.rows)

(* One record and one snapshot with every optional part present, and
   their frames as the bitwise-CRC encoder wrote them: the on-disk
   format is pinned byte for byte. *)
let fixed_view =
  {
    Replica.txn =
      Txn.make
        ~tid:(Tid.make ~seq:7 ~client_id:3)
        ~read_set:
          [ ({ key = 5; wts = Timestamp.make ~time:2.5 ~client_id:2 }
              : Txn.read_entry) ]
        ~write_set:[ ({ key = 5; value = 42 } : Txn.write_entry) ];
    ts = Timestamp.make ~time:3.25 ~client_id:3;
    status = Txn.Committed;
    view = 2;
    accept_view = Some 1;
  }

let fixed_record = { Walcodec.core = 1; view = fixed_view }

let fixed_record_hex =
  "e37e46576a000000010000000000000007000000000000000300000000000000010000000500000000000000000000000000044002000000000000000100000005000000000000002a000000000000000000000000000a400300000000000000040200000000000000010100000000000000"

let fixed_snapshot =
  {
    Walcodec.core = 1;
    epoch = 4;
    wal_cut = 137;
    views = [ fixed_view ];
    rows =
      [
        {
          key = 5;
          value = 42;
          wts = Timestamp.make ~time:3.25 ~client_id:3;
          rts = Timestamp.make ~time:4.0 ~client_id:1;
        };
      ];
  }

let fixed_snapshot_hex =
  "b313705cb20000000100000000000000040000000000000089000000000000000100000007000000000000000300000000000000010000000500000000000000000000000000044002000000000000000100000005000000000000002a000000000000000000000000000a4003000000000000000402000000000000000101000000000000000100000005000000000000002a000000000000000000000000000a40030000000000000000000000000010400100000000000000"

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_frames_pinned () =
  Alcotest.(check string) "record frame" fixed_record_hex
    (hex (Walcodec.encode_record fixed_record));
  Alcotest.(check string) "snapshot frame" fixed_snapshot_hex
    (hex (Walcodec.encode_snapshot fixed_snapshot));
  (* The in-place encoder leaves the same bytes, also in a framer that
     grew for a longer frame before. *)
  let f = Walcodec.framer () in
  let long_txn =
    Txn.make ~tid:(Tid.make ~seq:8 ~client_id:3) ~read_set:[]
      ~write_set:(List.init 40 (fun key -> ({ key; value = key } : Txn.write_entry)))
  in
  Walcodec.encode_record_into f
    { Walcodec.core = 0; view = { fixed_view with txn = long_txn } };
  Walcodec.encode_record_into f fixed_record;
  Alcotest.(check string) "framed in place" fixed_record_hex
    (hex
       (Bytes.sub_string (Walcodec.frame_bytes f) 0 (Walcodec.frame_length f)))

let test_encode_into_allocation () =
  let f = Walcodec.framer () in
  let n = 1000 in
  Walcodec.encode_record_into f fixed_record;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Walcodec.encode_record_into f fixed_record
  done;
  let per_record = (Gc.minor_words () -. before) /. float_of_int n in
  if per_record > 16.0 then
    Alcotest.failf "encode_record_into allocates %.1f words per record (> 16)"
      per_record

(* --- torn-tail / bit-flip fuzzing (never raises, longest valid
   prefix, decode_errors counted) --- *)

let test_log_truncated_at_every_offset () =
  let image = log_image sample_records in
  let b = boundaries sample_records in
  let frames_before k =
    (* the number of whole frames contained in the first [k] bytes *)
    let j = ref 0 in
    while !j + 1 < Array.length b && b.(!j + 1) <= k do incr j done;
    !j
  in
  for k = 0 to String.length image do
    let r = Walcodec.read_records (String.sub image 0 k) in
    let j = frames_before k in
    Alcotest.(check int) (Printf.sprintf "prefix at cut %d" k) j
      (List.length r.records);
    Alcotest.(check int) (Printf.sprintf "valid_bytes at cut %d" k) b.(j)
      r.valid_bytes;
    Alcotest.(check int)
      (Printf.sprintf "decode_errors at cut %d" k)
      (if k = b.(j) then 0 else 1)
      r.decode_errors
  done

let test_log_seeded_byte_flips () =
  let image = log_image sample_records in
  let b = boundaries sample_records in
  let n = String.length image in
  let frame_of p =
    let j = ref 0 in
    while b.(!j + 1) <= p do incr j done;
    !j
  in
  let seed = ref 0x5EED in
  for _ = 1 to 128 do
    seed := lcg !seed;
    let p = !seed mod n in
    let r = Walcodec.read_records (flip_byte image p) in
    let j = frame_of p in
    Alcotest.(check int)
      (Printf.sprintf "flip at %d stops at its frame" p)
      j (List.length r.records);
    Alcotest.(check int) (Printf.sprintf "flip at %d counted" p) 1 r.decode_errors
  done

let test_log_from_out_of_bounds () =
  let image = log_image sample_records in
  List.iter
    (fun from ->
      let r = Walcodec.read_records ~from image in
      Alcotest.(check int)
        (Printf.sprintf "from=%d is a counted error" from)
        1 r.decode_errors;
      Alcotest.(check (list reject)) "and yields no records" [] r.records)
    [ -1; String.length image + 1; max_int ]

let test_log_from_mid_frame () =
  (* A cut token landing mid-frame (e.g. the log shrank after the
     snapshot was written): the torn suffix is dropped, not raised. *)
  let image = log_image sample_records in
  let r = Walcodec.read_records ~from:3 image in
  Alcotest.(check int) "mid-frame cut counted" 1 r.decode_errors;
  Alcotest.(check (list reject)) "no phantom records" [] r.records

let test_snapshot_corruption () =
  let image = Walcodec.encode_snapshot sample_snapshot in
  let n = String.length image in
  (* every truncation: a snapshot is one frame, so any cut kills it *)
  for k = 0 to n - 1 do
    match Walcodec.read_snapshot (String.sub image 0 k) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation at %d accepted" k
  done;
  (* seeded flips *)
  let seed = ref 0xF00D in
  for _ = 1 to 64 do
    seed := lcg !seed;
    let p = !seed mod n in
    match Walcodec.read_snapshot (flip_byte image p) with
    | None -> ()
    | Some _ -> Alcotest.failf "byte flip at %d accepted" p
  done

let test_recover_parse_garbage () =
  (* Recover.parse over hostile images: misfiled cores, garbage logs,
     corrupt snapshots — counted, never raised. *)
  let garbage = String.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  let p =
    Recover.parse ~cores:2
      [
        { Recover.snap = Some garbage; log = garbage };
        { snap = None; log = "" };
        (* a third source for a 2-core replica cannot map to a
           partition: counted and skipped *)
        { snap = None; log = log_image sample_records };
      ]
  in
  Alcotest.(check bool) "errors counted" true (p.decode_errors >= 2);
  Alcotest.(check int) "nothing misfiled replays" 0 p.replayed

(* --- snapshot/log interplay (the crash-reboot recovery cases) --- *)

let cores = 2

let mk_replica () =
  let r = Replica.create ~id:0 ~quorum:(Quorum.create ~n:3) ~cores in
  for key = 0 to 7 do
    Replica.load r ~key ~value:0
  done;
  r

(* A replica wired to per-core memlogs exactly as the chaos harness
   wires it: Finalized appends to the owning core's log, Installed
   snapshots every core. *)
let with_memlogs r =
  let logs = Array.init cores (fun _ -> Memlog.create ()) in
  let f = Walcodec.framer () in
  Replica.set_durable_hook r (function
    | Replica.Finalized { core; view } ->
        Walcodec.encode_record_into f { core; view };
        Memlog.append_frame logs.(core) f
    | Replica.Installed { epoch } ->
        Array.iteri
          (fun k log ->
            let views =
              Replica.record_views r
              |> List.filter_map (fun (c, v) -> if c = k then Some v else None)
            in
            let rows =
              Replica.store_snapshot r
              |> List.filter (fun (row : Replica.store_row) -> row.key mod cores = k)
            in
            Memlog.set_snapshot log
              (Walcodec.encode_snapshot
                 { core = k; epoch; wal_cut = Memlog.log_length log; views; rows }))
          logs);
  logs

(* Snapshot now, as the epoch driver would at install time. *)
let snapshot_now r logs =
  Array.iteri
    (fun k log ->
      let views =
        Replica.record_views r
        |> List.filter_map (fun (c, v) -> if c = k then Some v else None)
      in
      let rows =
        Replica.store_snapshot r
        |> List.filter (fun (row : Replica.store_row) -> row.key mod cores = k)
      in
      Memlog.set_snapshot log
        (Walcodec.encode_snapshot
           {
             core = k;
             epoch = Replica.epoch r;
             wal_cut = Memlog.log_length log;
             views;
             rows;
           }))
    logs

let commit r ~seq =
  let key = seq mod 8 in
  let t = txn ~seq ~key ~value:(seq * 10) in
  let core = seq mod cores in
  (match Replica.handle_validate r ~core ~txn:t ~ts:(ts (float_of_int seq)) with
  | Some Txn.Validated_ok -> ()
  | _ -> Alcotest.failf "txn %d did not validate" seq);
  match
    Replica.handle_commit r ~core ~txn:t ~ts:(ts (float_of_int seq)) ~commit:true
  with
  | Some () -> ()
  | None -> Alcotest.failf "txn %d did not commit" seq

let sources logs =
  Array.to_list logs
  |> List.map (fun log ->
         { Recover.snap = Memlog.snapshot log; log = Memlog.log_contents log })

let committed_seqs (p : Recover.parsed) =
  p.records
  |> List.filter_map (fun ((_, v) : int * Replica.record_view) ->
         if v.status = Txn.Committed then Some v.txn.tid.seq else None)
  |> List.sort_uniq compare

let row_equal (a : Replica.store_row) (b : Replica.store_row) =
  a.key = b.key && a.value = b.value
  && Timestamp.compare a.wts b.wts = 0
  && Timestamp.compare a.rts b.rts = 0

let rows_equal a b =
  let sort = List.sort (fun (a : Replica.store_row) b -> compare a.key b.key) in
  List.length a = List.length b && List.for_all2 row_equal (sort a) (sort b)

let test_snapshot_plus_suffix () =
  (* Snapshot mid-traffic, more commits, crash: recovery uses the
     snapshot and replays only the post-cut suffix — yet sees every
     commit. *)
  let r = mk_replica () in
  let logs = with_memlogs r in
  for seq = 1 to 6 do commit r ~seq done;
  snapshot_now r logs;
  for seq = 7 to 12 do commit r ~seq done;
  let p = Recover.parse ~cores (sources logs) in
  Alcotest.(check int) "both snapshots used" cores p.snapshots_used;
  Alcotest.(check int) "suffix only" 6 p.replayed;
  Alcotest.(check int) "clean images" 0 p.decode_errors;
  Alcotest.(check (list int)) "every commit recovered"
    (List.init 12 (fun i -> i + 1))
    (committed_seqs p);
  (* the rebuilt store matches the pre-crash one *)
  let pre = Replica.store_snapshot r in
  let fresh = mk_replica () in
  Recover.apply fresh p;
  Alcotest.(check bool) "stores match" true
    (rows_equal pre (Replica.store_snapshot fresh))

let test_stale_snapshot_full_log () =
  (* A snapshot whose cut token says 0 (stale: taken before anything
     it covers was logged) forces a full-log replay over the snapshot
     state; the overlap must be idempotent, not doubled. *)
  let r = mk_replica () in
  let logs = with_memlogs r in
  for seq = 1 to 6 do commit r ~seq done;
  snapshot_now r logs;
  for seq = 7 to 12 do commit r ~seq done;
  Array.iter
    (fun log ->
      match Memlog.snapshot log with
      | None -> Alcotest.fail "snapshot missing"
      | Some img -> (
          match Walcodec.read_snapshot img with
          | None -> Alcotest.fail "snapshot unreadable"
          | Some s ->
              Memlog.set_snapshot log
                (Walcodec.encode_snapshot { s with wal_cut = 0 })))
    logs;
  let p = Recover.parse ~cores (sources logs) in
  Alcotest.(check int) "full log replayed" 12 p.replayed;
  Alcotest.(check (list int)) "overlap idempotent"
    (List.init 12 (fun i -> i + 1))
    (committed_seqs p);
  let fresh = mk_replica () in
  Recover.apply fresh p;
  Alcotest.(check bool) "stores match" true
    (rows_equal (Replica.store_snapshot r) (Replica.store_snapshot fresh))

let test_snapshot_zero_tail () =
  (* Snapshot at the very end: recovery is snapshot-only. *)
  let r = mk_replica () in
  let logs = with_memlogs r in
  for seq = 1 to 12 do commit r ~seq done;
  snapshot_now r logs;
  let p = Recover.parse ~cores (sources logs) in
  Alcotest.(check int) "nothing to replay" 0 p.replayed;
  Alcotest.(check (list int)) "state fully from snapshots"
    (List.init 12 (fun i -> i + 1))
    (committed_seqs p)

let test_recovery_idempotent () =
  let r = mk_replica () in
  let logs = with_memlogs r in
  for seq = 1 to 6 do commit r ~seq done;
  snapshot_now r logs;
  for seq = 7 to 12 do commit r ~seq done;
  let p1 = Recover.parse ~cores (sources logs) in
  let p2 = Recover.parse ~cores (sources logs) in
  Alcotest.(check (list int)) "same parse twice" (committed_seqs p1)
    (committed_seqs p2);
  Alcotest.(check int) "same replay count" p1.replayed p2.replayed;
  let fresh = mk_replica () in
  Recover.apply fresh p1;
  let once = Replica.store_snapshot fresh in
  (* applying again is a no-op (Thomas write rule) *)
  Recover.apply fresh p2;
  Alcotest.(check bool) "double apply is a no-op" true
    (rows_equal once (Replica.store_snapshot fresh))

let test_crash_then_replay_into_epoch () =
  (* The reboot path end to end: crash wipes the stores, recovery
     replays the images, and the replica serves reads again. *)
  let r = mk_replica () in
  let logs = with_memlogs r in
  for seq = 1 to 12 do commit r ~seq done;
  let pre = Replica.store_snapshot r in
  Replica.crash r;
  Alcotest.(check bool) "crashed" true (Replica.is_crashed r);
  Replica.begin_recovery r;
  let p = Recover.parse ~cores (sources logs) in
  Recover.apply r p;
  Replica.handle_epoch_complete r ~epoch:(p.epoch + 1) ~records:p.records
    ~store:None
  |> ignore;
  Alcotest.(check bool) "available again" true (Replica.is_available r);
  Alcotest.(check bool) "store survived the crash" true
    (rows_equal pre (Replica.store_snapshot r))

(* --- the real-file WAL and snapshot I/O --- *)

let test_wal_files () =
  let dir = Runtime.fresh_data_dir ~tag:"test-durable" in
  Fun.protect
    ~finally:(fun () -> Runtime.remove_data_dir ~dir ~n_replicas:1 ~cores:1)
  @@ fun () ->
  let path = Runtime.durable_wal_path ~dir ~replica:0 ~core:0 in
  let frames = List.map Walcodec.encode_record sample_records in
  let wal = Wal.open_log ~path ~policy:Wal.Always in
  List.iter
    (fun f ->
      match Wal.append wal f with
      | `Synced -> ()
      | `Buffered -> Alcotest.fail "Always policy must sync every append")
    frames;
  let full = List.fold_left (fun n f -> n + String.length f) 0 frames in
  Alcotest.(check int) "length counts bytes" full (Wal.length wal);
  Wal.close wal;
  let r = Walcodec.read_records (Wal.read_file path) in
  Alcotest.(check int) "replay off disk" (List.length sample_records)
    (List.length r.records);
  Alcotest.(check int) "clean" 0 r.decode_errors;
  (* reopen keeps the existing bytes and appends after them *)
  let wal = Wal.open_log ~path ~policy:(Wal.Every 4) in
  Alcotest.(check int) "reopen sees the old bytes" full (Wal.length wal);
  ignore (Wal.append wal (List.hd frames));
  Wal.close wal;
  let r = Walcodec.read_records (Wal.read_file path) in
  Alcotest.(check int) "appended past them" (List.length sample_records + 1)
    (List.length r.records);
  (* reboot-time compaction *)
  let wal = Wal.open_log ~path ~policy:Wal.Never in
  Wal.truncate wal ~len:(String.length (List.hd frames));
  Wal.close wal;
  let r = Walcodec.read_records (Wal.read_file path) in
  Alcotest.(check int) "truncated to one frame" 1 (List.length r.records);
  Alcotest.(check int) "missing file reads empty" 0
    (String.length (Wal.read_file (Filename.concat dir "nope.wal")))

(* The in-place writers put down exactly the frames [encode_record]
   returns, on disk and in the sim's memory log. *)
let test_append_frame_bytes () =
  let dir = Runtime.fresh_data_dir ~tag:"test-durable" in
  Fun.protect
    ~finally:(fun () -> Runtime.remove_data_dir ~dir ~n_replicas:1 ~cores:1)
  @@ fun () ->
  let path = Runtime.durable_wal_path ~dir ~replica:0 ~core:0 in
  let wal = Wal.open_log ~path ~policy:Wal.Never in
  let mem = Memlog.create () in
  let f = Walcodec.framer () in
  List.iter
    (fun r ->
      Walcodec.encode_record_into f r;
      ignore (Wal.append_frame wal f);
      Memlog.append_frame mem f)
    (sample_records @ [ fixed_record ]);
  let want = log_image (sample_records @ [ fixed_record ]) in
  Alcotest.(check int) "length counts bytes" (String.length want)
    (Wal.length wal);
  Wal.close wal;
  Alcotest.(check string) "file bytes" want (Wal.read_file path);
  Alcotest.(check string) "memlog bytes" want (Memlog.log_contents mem)

let test_snapshot_files () =
  let dir = Runtime.fresh_data_dir ~tag:"test-durable" in
  Fun.protect
    ~finally:(fun () -> Runtime.remove_data_dir ~dir ~n_replicas:1 ~cores:1)
  @@ fun () ->
  let path = Runtime.durable_snap_path ~dir ~replica:0 ~core:0 in
  Alcotest.(check bool) "missing is None" true (Snapshot.read ~path = None);
  let img = Walcodec.encode_snapshot sample_snapshot in
  Snapshot.write ~path img;
  (match Snapshot.read ~path with
  | Some got -> Alcotest.(check string) "roundtrip" img got
  | None -> Alcotest.fail "snapshot unreadable");
  (* overwrite is atomic: the new image fully replaces the old *)
  let img2 =
    Walcodec.encode_snapshot { sample_snapshot with epoch = 9; wal_cut = 7 }
  in
  Snapshot.write ~path img2;
  match Snapshot.read ~path with
  | Some got -> Alcotest.(check string) "replaced" img2 got
  | None -> Alcotest.fail "snapshot unreadable after overwrite"

let test_snapshot_write_leaves_no_tmp () =
  (* [write] returns with the rename durable: only the final file is
     left in the directory, and it reads back as the image. *)
  let dir = Runtime.fresh_data_dir ~tag:"test-durable" in
  Fun.protect
    ~finally:(fun () -> Runtime.remove_data_dir ~dir ~n_replicas:1 ~cores:1)
  @@ fun () ->
  let path = Runtime.durable_snap_path ~dir ~replica:0 ~core:0 in
  let img = Walcodec.encode_snapshot sample_snapshot in
  Snapshot.write ~path img;
  Alcotest.(check bool) "no .tmp sibling" false (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check (list string)) "only the snapshot in the directory"
    [ Filename.basename path ]
    (Array.to_list (Sys.readdir dir));
  match Snapshot.read ~path with
  | Some got -> Alcotest.(check string) "reads back" img got
  | None -> Alcotest.fail "snapshot unreadable"

(* --- the log-proportional checkpoint rule --- *)

let test_checkpoint_due () =
  let due log_len cut last_bytes = Checkpoint.due ~log_len ~cut ~last_bytes in
  Alcotest.(check bool) "empty log, no snapshot: nothing to fold" false (due 0 0 0);
  Alcotest.(check bool) "first record with no snapshot is due" true (due 1 0 0);
  Alcotest.(check bool) "suffix equal to the image is not due" false (due 100 0 100);
  Alcotest.(check bool) "suffix past the image is due" true (due 101 0 100);
  Alcotest.(check bool) "measured from the cut" false (due 150 50 100);
  Alcotest.(check bool) "one byte past, from the cut" true (due 151 50 100);
  Alcotest.(check bool) "a fresh cut at the log end is not due" false (due 70 70 0)

(* Drive the rule the way a core does — append, check, snapshot when
   due — with a snapshot the size of a base image plus every record
   so far: the replayable suffix never exceeds the last image plus one
   record, and the snapshot count grows with log2 of the history. *)
let test_checkpoint_log_growth () =
  let record = 90 and base = 1_000 in
  List.iter
    (fun n ->
      let log_len = ref 0 and cut = ref 0 and last = ref 0 and snaps = ref 0 in
      for i = 1 to n do
        log_len := !log_len + record;
        Alcotest.(check bool) "suffix bounded by image + one record" true
          (!log_len - !cut <= !last + record);
        if Checkpoint.due ~log_len:!log_len ~cut:!cut ~last_bytes:!last then begin
          incr snaps;
          cut := !log_len;
          last := base + (i * record)
        end
      done;
      let bound =
        int_of_float (Float.ceil (Float.log2 (float_of_int n))) + 2
      in
      if !snaps > bound then
        Alcotest.failf "%d records: %d snapshots, bound %d" n !snaps bound)
    [ 1; 2; 10; 100; 1_000; 100_000 ]

let test_checkpoint_images () =
  let cores = 2 in
  let views =
    List.map (fun (r : Walcodec.record) -> (r.core, r.view)) sample_records
  in
  let rows =
    List.init 7 (fun key ->
        { Replica.key; value = key * 10; wts = ts 1.0; rts = ts 1.0 })
  in
  let imgs =
    Checkpoint.images ~cores ~epoch:4 ~wal_cut:(fun c -> 100 + c) ~views ~rows
  in
  Alcotest.(check int) "one image per core" cores (Array.length imgs);
  Array.iteri
    (fun c (img : Walcodec.snapshot) ->
      Alcotest.(check int) "core" c img.core;
      Alcotest.(check int) "epoch" 4 img.epoch;
      Alcotest.(check int) "per-core cut" (100 + c) img.wal_cut;
      let mine =
        List.filter (fun (r : Walcodec.record) -> r.core = c) sample_records
      in
      Alcotest.(check int) "this core's views, in order" (List.length mine)
        (List.length img.views);
      List.iter2
        (fun r v ->
          Alcotest.(check bool) "same view" true
            (record_equal r { Walcodec.core = c; view = v }))
        mine img.views;
      Alcotest.(check (list int)) "rows this core owns"
        (List.filter (fun k -> k mod cores = c) (List.init 7 Fun.id))
        (List.map (fun (r : Replica.store_row) -> r.key) img.rows);
      (* A core's own partition alone gives the same image. *)
      let own = List.filter (fun (c', _) -> c' = c) views in
      Alcotest.(check string) "partition-only input, same bytes"
        (Walcodec.encode_snapshot img)
        (Walcodec.encode_snapshot
           (Checkpoint.image ~cores ~core:c ~epoch:4 ~wal_cut:(100 + c)
              ~views:own ~rows)))
    imgs

let test_fsync_policy_parse () =
  let cases =
    [ ("always", Some Wal.Always); ("never", Some Wal.Never);
      ("every=8", Some (Wal.Every 8)); ("every=0", None); ("every=x", None);
      ("bogus", None) ]
  in
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool) s true (Wal.policy_of_string s = expect))
    cases;
  List.iter
    (fun p ->
      Alcotest.(check bool) "to_string roundtrips" true
        (Wal.policy_of_string (Wal.policy_to_string p) = Some p))
    [ Wal.Always; Wal.Never; Wal.Every 8 ]

let () =
  Alcotest.run "durable"
    [
      ( "codec",
        [
          Alcotest.test_case "crc check value" `Quick test_crc_check_value;
          Alcotest.test_case "crc detects flips" `Quick test_crc_detects_flips;
          Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "crc matches bitwise reference" `Quick
            test_crc_matches_reference;
          Alcotest.test_case "frames pinned" `Quick test_frames_pinned;
          Alcotest.test_case "encode into allocation" `Quick
            test_encode_into_allocation;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "log truncated at every offset" `Quick
            test_log_truncated_at_every_offset;
          Alcotest.test_case "log seeded byte flips" `Quick
            test_log_seeded_byte_flips;
          Alcotest.test_case "replay from out of bounds" `Quick
            test_log_from_out_of_bounds;
          Alcotest.test_case "replay from mid-frame" `Quick test_log_from_mid_frame;
          Alcotest.test_case "snapshot corruption" `Quick test_snapshot_corruption;
          Alcotest.test_case "recover parses garbage" `Quick
            test_recover_parse_garbage;
        ] );
      ( "interplay",
        [
          Alcotest.test_case "snapshot + suffix only" `Quick
            test_snapshot_plus_suffix;
          Alcotest.test_case "stale snapshot + full log" `Quick
            test_stale_snapshot_full_log;
          Alcotest.test_case "snapshot with zero tail" `Quick
            test_snapshot_zero_tail;
          Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "crash then replay into epoch" `Quick
            test_crash_then_replay_into_epoch;
        ] );
      ( "files",
        [
          Alcotest.test_case "wal files" `Quick test_wal_files;
          Alcotest.test_case "snapshot files" `Quick test_snapshot_files;
          Alcotest.test_case "snapshot write leaves no tmp" `Quick
            test_snapshot_write_leaves_no_tmp;
          Alcotest.test_case "fsync policy parse" `Quick test_fsync_policy_parse;
          Alcotest.test_case "append_frame bytes" `Quick test_append_frame_bytes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "due rule" `Quick test_checkpoint_due;
          Alcotest.test_case "log growth bounds" `Quick test_checkpoint_log_growth;
          Alcotest.test_case "per-core images" `Quick test_checkpoint_images;
        ] );
    ]
