(* Unit tests for the storage substrate: transactions, the versioned
   store, Alg. 1 OCC validation, and the trecord. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Vstore = Mk_storage.Vstore
module Occ = Mk_storage.Occ
module Trecord = Mk_storage.Trecord

let ts time = Timestamp.make ~time ~client_id:1
let ts_c time client_id = Timestamp.make ~time ~client_id
let tid seq = Timestamp.Tid.make ~seq ~client_id:1

let txn ?(seq = 1) ~reads ~writes () =
  Txn.make ~tid:(tid seq)
    ~read_set:(List.map (fun (key, wts) -> ({ key; wts } : Txn.read_entry)) reads)
    ~write_set:(List.map (fun (key, value) -> ({ key; value } : Txn.write_entry)) writes)

let loaded_store nkeys =
  let store = Vstore.create ~shards:8 () in
  for key = 0 to nkeys - 1 do
    Vstore.load store ~key ~value:0
  done;
  store

let check_outcome = Alcotest.(check bool)

(* --- Txn --- *)

let test_txn_nkeys () =
  let t = txn ~reads:[ (1, Timestamp.zero); (2, Timestamp.zero) ] ~writes:[ (3, 9) ] () in
  Alcotest.(check int) "nkeys" 3 (Txn.nkeys t);
  Alcotest.(check bool) "reads 1" true (Txn.reads_key t 1);
  Alcotest.(check bool) "not reads 3" false (Txn.reads_key t 3);
  Alcotest.(check bool) "writes 3" true (Txn.writes_key t 3)

let test_txn_conflicts_rw () =
  let a = txn ~reads:[ (1, Timestamp.zero) ] ~writes:[] () in
  let b = txn ~seq:2 ~reads:[] ~writes:[ (1, 5) ] () in
  Alcotest.(check bool) "r-w conflict" true (Txn.conflicts a b);
  Alcotest.(check bool) "symmetric" true (Txn.conflicts b a)

let test_txn_conflicts_ww () =
  let a = txn ~reads:[] ~writes:[ (7, 1) ] () in
  let b = txn ~seq:2 ~reads:[] ~writes:[ (7, 2) ] () in
  Alcotest.(check bool) "w-w conflict" true (Txn.conflicts a b)

let test_txn_no_conflict () =
  let a = txn ~reads:[ (1, Timestamp.zero) ] ~writes:[ (2, 1) ] () in
  let b = txn ~seq:2 ~reads:[ (3, Timestamp.zero) ] ~writes:[ (4, 1) ] () in
  Alcotest.(check bool) "disjoint" false (Txn.conflicts a b);
  (* Read-read overlap is not a conflict. *)
  let c = txn ~seq:3 ~reads:[ (1, Timestamp.zero) ] ~writes:[ (5, 1) ] () in
  Alcotest.(check bool) "read-read is fine" false (Txn.conflicts a c)

(* --- Vstore --- *)

let test_vstore_load_find () =
  let store = loaded_store 4 in
  Alcotest.(check int) "size" 4 (Vstore.size store);
  let e = Vstore.find_exn store 2 in
  let value, wts = Vstore.read_versioned e in
  Alcotest.(check int) "initial value" 0 value;
  Alcotest.(check bool) "initial version" true (Timestamp.equal wts Timestamp.zero);
  Alcotest.(check bool) "missing" true (Vstore.find store 99 = None)

let test_vstore_find_or_create () =
  let store = Vstore.create ~shards:8 () in
  let e1 = Vstore.find_or_create store 42 in
  let e2 = Vstore.find_or_create store 42 in
  Alcotest.(check bool) "same entry" true (e1 == e2);
  Alcotest.(check int) "size" 1 (Vstore.size store)

let test_vstore_clear_pending () =
  let store = loaded_store 2 in
  let e = Vstore.find_exn store 0 in
  e.Vstore.readers <- Timestamp.Set.add (ts 1.0) e.Vstore.readers;
  e.Vstore.writers <- Timestamp.Set.add (ts 2.0) e.Vstore.writers;
  Alcotest.(check (pair int int)) "pending" (1, 1) (Vstore.pending_counts store);
  Vstore.clear_pending store;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (Vstore.pending_counts store)

(* --- Alg. 1: read validation --- *)

let test_validate_fresh_read_ok () =
  let store = loaded_store 4 in
  let t = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "fresh read validates" true (Occ.validate store t ~ts:(ts 1.0) = `Ok);
  (* And the pending reader mark is installed. *)
  let e = Vstore.find_exn store 0 in
  Alcotest.(check int) "reader added" 1 (Timestamp.Set.cardinal e.Vstore.readers)

let test_validate_stale_read_aborts () =
  let store = loaded_store 4 in
  (* Commit a write at ts 5 to key 0. *)
  let w = txn ~reads:[] ~writes:[ (0, 7) ] () in
  check_outcome "writer validates" true (Occ.validate store w ~ts:(ts 5.0) = `Ok);
  Occ.finish store w ~ts:(ts 5.0) ~commit:true;
  (* A transaction that read version zero must now fail validation:
     e.wts > r.wts. *)
  let r = txn ~seq:2 ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "stale read aborts" true (Occ.validate store r ~ts:(ts 6.0) = `Abort);
  (* But a reader that observed version 5 is fine. *)
  let r2 = txn ~seq:3 ~reads:[ (0, ts 5.0) ] ~writes:[] () in
  check_outcome "fresh read ok" true (Occ.validate store r2 ~ts:(ts 6.5) = `Ok)

let test_validate_read_behind_pending_writer_aborts () =
  let store = loaded_store 4 in
  (* Pending (validated, uncommitted) writer at ts 3. *)
  let w = txn ~reads:[] ~writes:[ (0, 7) ] () in
  check_outcome "writer validates" true (Occ.validate store w ~ts:(ts 3.0) = `Ok);
  (* Read at ts 4 > MIN(writers) = 3: if the writer commits, this read
     would have missed its version. Abort. *)
  let r = txn ~seq:2 ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "read above pending writer aborts" true
    (Occ.validate store r ~ts:(ts 4.0) = `Abort);
  (* Read at ts 2 < pending writer's 3 is safe. *)
  let r2 = txn ~seq:3 ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "read below pending writer ok" true
    (Occ.validate store r2 ~ts:(ts 2.0) = `Ok)

(* --- Alg. 1: write validation --- *)

let test_validate_write_before_rts_aborts () =
  let store = loaded_store 4 in
  (* Committed read at ts 10 sets rts. *)
  let r = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "reader validates" true (Occ.validate store r ~ts:(ts 10.0) = `Ok);
  Occ.finish store r ~ts:(ts 10.0) ~commit:true;
  (* A write at ts 9 < rts would interpose below that read. *)
  let w = txn ~seq:2 ~reads:[] ~writes:[ (0, 1) ] () in
  check_outcome "write below rts aborts" true (Occ.validate store w ~ts:(ts 9.0) = `Abort);
  (* A write above the rts is accepted. *)
  let w2 = txn ~seq:3 ~reads:[] ~writes:[ (0, 2) ] () in
  check_outcome "write above rts ok" true (Occ.validate store w2 ~ts:(ts 11.0) = `Ok)

let test_validate_write_behind_pending_reader_aborts () =
  let store = loaded_store 4 in
  (* Pending reader at ts 8 (validated, not yet committed). *)
  let r = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[] () in
  check_outcome "reader validates" true (Occ.validate store r ~ts:(ts 8.0) = `Ok);
  (* Write at ts 7 < MAX(readers): would interpose between the version
     the pending reader saw and its timestamp. *)
  let w = txn ~seq:2 ~reads:[] ~writes:[ (0, 1) ] () in
  check_outcome "write below pending reader aborts" true
    (Occ.validate store w ~ts:(ts 7.0) = `Abort);
  let w2 = txn ~seq:3 ~reads:[] ~writes:[ (0, 2) ] () in
  check_outcome "write above pending reader ok" true
    (Occ.validate store w2 ~ts:(ts 9.0) = `Ok)

let test_validate_rmw_self_compatible () =
  (* A read-modify-write's own pending read mark must not abort its
     write check (ts < MAX(readers) is strict). *)
  let store = loaded_store 4 in
  let t = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 5) ] () in
  check_outcome "RMW validates" true (Occ.validate store t ~ts:(ts 1.0) = `Ok)

let test_validate_abort_backs_out_marks () =
  let store = loaded_store 4 in
  (* Make key 1 un-writable below ts 10. *)
  let r = txn ~reads:[ (1, Timestamp.zero) ] ~writes:[] () in
  check_outcome "reader ok" true (Occ.validate store r ~ts:(ts 10.0) = `Ok);
  (* This transaction reads key 0 (adds a reader mark) and then fails
     on its write to key 1; the key-0 mark must be backed out. *)
  let t = txn ~seq:2 ~reads:[ (0, Timestamp.zero) ] ~writes:[ (1, 3) ] () in
  check_outcome "aborts" true (Occ.validate store t ~ts:(ts 5.0) = `Abort);
  let e0 = Vstore.find_exn store 0 in
  Alcotest.(check int) "reader mark backed out" 0
    (Timestamp.Set.cardinal e0.Vstore.readers);
  let e1 = Vstore.find_exn store 1 in
  Alcotest.(check int) "only the pending reader remains" 1
    (Timestamp.Set.cardinal e1.Vstore.readers);
  Alcotest.(check int) "no writer mark" 0 (Timestamp.Set.cardinal e1.Vstore.writers)

(* --- Write phase --- *)

let test_finish_commit_installs () =
  let store = loaded_store 4 in
  let t = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 42) ] () in
  check_outcome "validates" true (Occ.validate store t ~ts:(ts 2.0) = `Ok);
  Occ.finish store t ~ts:(ts 2.0) ~commit:true;
  let e = Vstore.find_exn store 0 in
  let value, wts = Vstore.read_versioned e in
  Alcotest.(check int) "value installed" 42 value;
  Alcotest.(check bool) "version is commit ts" true (Timestamp.equal wts (ts 2.0));
  Alcotest.(check bool) "rts advanced" true (Timestamp.equal e.Vstore.rts (ts 2.0));
  Alcotest.(check (pair int int)) "pending cleared" (0, 0) (Vstore.pending_counts store)

let test_finish_abort_leaves_value () =
  let store = loaded_store 4 in
  let t = txn ~reads:[] ~writes:[ (0, 42) ] () in
  check_outcome "validates" true (Occ.validate store t ~ts:(ts 2.0) = `Ok);
  Occ.finish store t ~ts:(ts 2.0) ~commit:false;
  let e = Vstore.find_exn store 0 in
  let value, wts = Vstore.read_versioned e in
  Alcotest.(check int) "value untouched" 0 value;
  Alcotest.(check bool) "version untouched" true (Timestamp.equal wts Timestamp.zero);
  Alcotest.(check (pair int int)) "pending cleared" (0, 0) (Vstore.pending_counts store)

let test_thomas_write_rule () =
  let store = loaded_store 4 in
  (* Commit a write at ts 10 first. *)
  let w10 = txn ~reads:[] ~writes:[ (0, 10) ] () in
  check_outcome "w10 ok" true (Occ.validate store w10 ~ts:(ts 10.0) = `Ok);
  Occ.finish store w10 ~ts:(ts 10.0) ~commit:true;
  (* A write at ts 5 (validated before w10 committed on another
     replica, say) applies under the Thomas write rule: skipped, but
     committed. *)
  let w5 = txn ~seq:2 ~reads:[] ~writes:[ (0, 5) ] () in
  Occ.finish store w5 ~ts:(ts 5.0) ~commit:true;
  let e = Vstore.find_exn store 0 in
  let value, wts = Vstore.read_versioned e in
  Alcotest.(check int) "newer value survives" 10 value;
  Alcotest.(check bool) "newer version survives" true (Timestamp.equal wts (ts 10.0))

let test_finish_idempotent () =
  let store = loaded_store 4 in
  let t = txn ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 9) ] () in
  check_outcome "validates" true (Occ.validate store t ~ts:(ts 3.0) = `Ok);
  Occ.finish store t ~ts:(ts 3.0) ~commit:true;
  Occ.finish store t ~ts:(ts 3.0) ~commit:true;
  let e = Vstore.find_exn store 0 in
  let value, _ = Vstore.read_versioned e in
  Alcotest.(check int) "value once" 9 value;
  Alcotest.(check (pair int int)) "no pending residue" (0, 0)
    (Vstore.pending_counts store)

let test_conflicting_pair_cannot_both_commit () =
  (* The pairwise-OCC property underlying the correctness proof
     (§5.4): of two conflicting transactions validated at one replica,
     the later arrival must abort. All four orderings. *)
  let cases =
    [ (1.0, 2.0); (2.0, 1.0) ]
    (* (ts of first-arriving, ts of second-arriving) *)
  in
  List.iter
    (fun (ts_a, ts_b) ->
      let store = loaded_store 2 in
      let a = txn ~seq:1 ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 1) ] () in
      let b = txn ~seq:2 ~reads:[ (0, Timestamp.zero) ] ~writes:[ (0, 2) ] () in
      check_outcome "first validates" true (Occ.validate store a ~ts:(ts ts_a) = `Ok);
      check_outcome
        (Printf.sprintf "second aborts (%.0f then %.0f)" ts_a ts_b)
        true
        (Occ.validate store b ~ts:(ts ts_b) = `Abort))
    cases

(* --- Trecord --- *)

let test_trecord_partitioning () =
  let tr = Trecord.create ~cores:4 in
  Alcotest.(check int) "cores" 4 (Trecord.cores tr);
  let t = txn ~reads:[] ~writes:[ (0, 1) ] () in
  let core = Trecord.partition_of_tid tr t.Txn.tid in
  Alcotest.(check bool) "partition in range" true (core >= 0 && core < 4);
  let entry = Trecord.add tr ~core ~txn:t ~ts:(ts 1.0) ~status:Txn.Validated_ok in
  Alcotest.(check bool) "found in its partition" true
    (Trecord.find tr ~core t.Txn.tid = Some entry);
  let other = (core + 1) mod 4 in
  Alcotest.(check bool) "not in another partition" true
    (Trecord.find tr ~core:other t.Txn.tid = None)

let test_trecord_entries_and_replace () =
  let tr = Trecord.create ~cores:2 in
  let t1 = txn ~seq:1 ~reads:[] ~writes:[ (0, 1) ] () in
  let t2 = txn ~seq:2 ~reads:[] ~writes:[ (1, 1) ] () in
  ignore (Trecord.add tr ~core:0 ~txn:t1 ~ts:(ts 1.0) ~status:Txn.Validated_ok);
  ignore (Trecord.add tr ~core:1 ~txn:t2 ~ts:(ts 2.0) ~status:Txn.Committed);
  Alcotest.(check int) "size" 2 (Trecord.size tr);
  Alcotest.(check int) "committed count" 1 (Trecord.count_status tr Txn.Committed);
  let entries = Trecord.entries tr in
  let tr2 = Trecord.create ~cores:2 in
  Trecord.replace_all tr2 entries;
  Alcotest.(check int) "replaced size" 2 (Trecord.size tr2);
  Alcotest.(check bool) "t2 in core 1" true (Trecord.find tr2 ~core:1 t2.Txn.tid <> None)

let test_trecord_remove () =
  let tr = Trecord.create ~cores:2 in
  let t1 = txn ~reads:[] ~writes:[ (0, 1) ] () in
  ignore (Trecord.add tr ~core:0 ~txn:t1 ~ts:(ts 1.0) ~status:Txn.Validated_ok);
  Trecord.remove tr ~core:0 t1.Txn.tid;
  Alcotest.(check int) "empty" 0 (Trecord.size tr)

let test_trecord_core_pending () =
  (* The detector feed: exactly the core's non-final records, as fresh
     copies, through adds, in-place finalization, removal, a merged
     install, and enough finalized traffic to force add-time pruning. *)
  let tr = Trecord.create ~cores:2 in
  let tids l =
    List.sort compare
      (List.map (fun (e : Trecord.entry) -> e.Trecord.txn.Txn.tid.Timestamp.Tid.seq) l)
  in
  let add ~seq ~status =
    Trecord.add tr ~core:0
      ~txn:(txn ~seq ~reads:[] ~writes:[ (seq, 1) ] ())
      ~ts:(ts (float_of_int seq)) ~status
  in
  let a = add ~seq:1 ~status:Txn.Validated_ok in
  let b = add ~seq:2 ~status:Txn.Validated_abort in
  ignore (add ~seq:3 ~status:Txn.Committed : Trecord.entry);
  let got = Trecord.core_pending tr ~core:0 in
  Alcotest.(check (list int)) "non-final only" [ 1; 2 ] (tids got);
  Alcotest.(check bool) "fresh copies" true
    (List.for_all (fun e -> e != a && e != b) got);
  Alcotest.(check (list int)) "other core empty" []
    (tids (Trecord.core_pending tr ~core:1));
  a.Trecord.status <- Txn.Committed;
  Trecord.remove tr ~core:0 b.Trecord.txn.Txn.tid;
  Alcotest.(check (list int)) "finalized and removed drop out" []
    (tids (Trecord.core_pending tr ~core:0));
  (* Thousands of adds finalized between two feed calls (enough for
     add-time pruning to run): the one pending record survives and
     nothing final resurfaces. *)
  let p = add ~seq:10 ~status:Txn.Validated_ok in
  for seq = 100 to 5099 do
    let e = add ~seq ~status:Txn.Validated_ok in
    e.Trecord.status <- Txn.Aborted
  done;
  Alcotest.(check (list int)) "pruned under load" [ 10 ]
    (tids (Trecord.core_pending tr ~core:0));
  (* A merged install replaces the index with the install's non-final
     records. *)
  Trecord.replace_all tr
    [ (1, { p with Trecord.status = Txn.Validated_ok }); (0, { p with Trecord.status = Txn.Committed }) ];
  Alcotest.(check (list int)) "install: core 0" []
    (tids (Trecord.core_pending tr ~core:0));
  Alcotest.(check (list int)) "install: core 1" [ 10 ]
    (tids (Trecord.core_pending tr ~core:1))

let test_trecord_trim () =
  let tr = Trecord.create ~cores:2 in
  let old_commit = txn ~seq:1 ~reads:[] ~writes:[ (0, 1) ] () in
  let old_pending = txn ~seq:2 ~reads:[] ~writes:[ (1, 1) ] () in
  let recent = txn ~seq:3 ~reads:[] ~writes:[ (2, 1) ] () in
  ignore (Trecord.add tr ~core:0 ~txn:old_commit ~ts:(ts 1.0) ~status:Txn.Committed);
  ignore (Trecord.add tr ~core:0 ~txn:old_pending ~ts:(ts 2.0) ~status:Txn.Validated_ok);
  ignore (Trecord.add tr ~core:1 ~txn:recent ~ts:(ts 9.0) ~status:Txn.Aborted);
  let removed = Trecord.trim_finalized tr ~before:(ts 5.0) in
  Alcotest.(check int) "one trimmed" 1 removed;
  Alcotest.(check bool) "final old gone" true
    (Trecord.find tr ~core:0 old_commit.Txn.tid = None);
  Alcotest.(check bool) "pending survives" true
    (Trecord.find tr ~core:0 old_pending.Txn.tid <> None);
  Alcotest.(check bool) "recent final survives" true
    (Trecord.find tr ~core:1 recent.Txn.tid <> None)

let test_status_helpers () =
  Alcotest.(check bool) "committed final" true (Txn.is_final Txn.Committed);
  Alcotest.(check bool) "aborted final" true (Txn.is_final Txn.Aborted);
  Alcotest.(check bool) "validated not final" false (Txn.is_final Txn.Validated_ok);
  Alcotest.(check bool) "accepted not final" false (Txn.is_final Txn.Accepted_commit);
  Alcotest.(check string) "render" "VALIDATED-OK" (Txn.status_to_string Txn.Validated_ok)

(* Reads by different clients at identical times are ordered by client
   id — the uniqueness argument of §5.2.2 step 1. *)
let test_timestamp_tiebreak_in_occ () =
  let store = loaded_store 2 in
  let a =
    Txn.make
      ~tid:(Timestamp.Tid.make ~seq:1 ~client_id:1)
      ~read_set:[ { key = 0; wts = Timestamp.zero } ]
      ~write_set:[ { key = 0; value = 1 } ]
  in
  let b =
    Txn.make
      ~tid:(Timestamp.Tid.make ~seq:1 ~client_id:2)
      ~read_set:[ { key = 0; wts = Timestamp.zero } ]
      ~write_set:[ { key = 0; value = 2 } ]
  in
  check_outcome "a ok" true (Occ.validate store a ~ts:(ts_c 1.0 1) = `Ok);
  (* Same time, higher client id: a distinct, later timestamp; it
     conflicts with the pending a and must abort. *)
  check_outcome "b aborts" true (Occ.validate store b ~ts:(ts_c 1.0 2) = `Abort)

let test_vstore_lookup_takes_no_lock () =
  (* Once published, a loaded key is found with no lock at all: every
     lookup path runs while this thread holds the table lock, which a
     relock would refuse. A key the index lacks does take the lock. *)
  let store = loaded_store 64 in
  Vstore.publish store;
  Alcotest.(check int) "published" 64 (Vstore.For_testing.index_size store);
  Vstore.For_testing.holding_table_lock store (fun () ->
      for key = 0 to 63 do
        Alcotest.(check int) "find_or_create" key (Vstore.find_or_create store key).key;
        Alcotest.(check int) "lookup" key (Vstore.lookup store key).key;
        Alcotest.(check bool) "find" true (Vstore.find store key <> None)
      done;
      match Vstore.find_or_create store 64 with
      | _ -> Alcotest.fail "a new key was created without the table lock"
      | exception Sys_error _ -> ());
  (* Created one by one, new keys join the index in amortized batches;
     published, every one is lock-free too. *)
  for key = 64 to 1023 do
    ignore (Vstore.find_or_create store key : Vstore.entry)
  done;
  Vstore.publish store;
  Vstore.For_testing.holding_table_lock store (fun () ->
      for key = 0 to 1023 do
        Alcotest.(check int) "after growth" key (Vstore.lookup store key).key
      done);
  Alcotest.(check bool) "a missing key is absent" true
    (Vstore.lookup store 5000 == Vstore.absent)

let test_vstore_racing_creators () =
  (* Two domains that race [find_or_create] on one new key must get the
     physically same entry, or a write could land in an orphan. *)
  for round = 1 to 100 do
    let store = loaded_store 64 in
    Vstore.publish store;
    let key = 1000 + round in
    let ready = Atomic.make 0 in
    let create () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      Vstore.find_or_create store key
    in
    let d = Domain.spawn create in
    let mine = create () in
    let theirs = Domain.join d in
    if mine != theirs then Alcotest.failf "round %d: two entries for key %d" round key;
    Alcotest.(check int) "one entry more" 65 (Vstore.size store);
    Alcotest.(check bool) "the stored one" true (Vstore.find_exn store key == mine)
  done

let test_store_snapshot_order_pinned () =
  (* Checkpoint images and Memlog bytes list the store in [Vstore.iter]
     order, so that order is pinned: these rows, in this order, are what
     the store printed before it gained the published index (loads,
     keys created by a commit, a reload after publishing). *)
  let module Replica = Mk_meerkat.Replica in
  let r = Replica.create ~id:0 ~quorum:(Mk_meerkat.Quorum.create ~n:3) ~cores:2 in
  for key = 0 to 39 do
    Replica.load r ~key ~value:0
  done;
  Replica.publish r;
  let t =
    txn ~reads:[ (7, Timestamp.zero) ] ~writes:[ (500, 5); (250, 2); (7, 1) ] ()
  in
  ignore (Replica.handle_validate r ~core:1 ~txn:t ~ts:(ts 1.0) : Txn.status option);
  ignore (Replica.handle_commit r ~core:1 ~txn:t ~ts:(ts 1.0) ~commit:true : unit option);
  Replica.load r ~key:3 ~value:33;
  let rows =
    List.map (fun (r : Replica.store_row) -> (r.key, r.value)) (Replica.store_snapshot r)
  in
  Alcotest.(check (list (pair int int)))
    "rows in iter order"
    [
      (30, 0); (19, 0); (38, 0); (11, 0); (33, 0); (250, 2); (3, 33); (8, 0);
      (27, 0); (22, 0); (17, 0); (500, 5); (13, 0); (24, 0); (6, 0); (36, 0);
      (16, 0); (14, 0); (35, 0); (25, 0); (5, 0); (15, 0); (34, 0); (23, 0);
      (4, 0); (31, 0); (26, 0); (12, 0); (18, 0); (7, 1); (37, 0); (32, 0);
      (28, 0); (2, 0); (9, 0); (21, 0); (1, 0); (29, 0); (39, 0); (20, 0);
      (10, 0); (0, 0);
    ]
    rows;
  (* The reload replaced a published entry: lookups see the new one. *)
  match Replica.handle_get r ~key:3 with
  | Some (33, _) -> ()
  | _ -> Alcotest.fail "reloaded key reads its old version"

let () =
  Alcotest.run "storage"
    [
      ( "txn",
        [
          Alcotest.test_case "nkeys and membership" `Quick test_txn_nkeys;
          Alcotest.test_case "read-write conflict" `Quick test_txn_conflicts_rw;
          Alcotest.test_case "write-write conflict" `Quick test_txn_conflicts_ww;
          Alcotest.test_case "disjoint transactions" `Quick test_txn_no_conflict;
          Alcotest.test_case "status helpers" `Quick test_status_helpers;
        ] );
      ( "vstore",
        [
          Alcotest.test_case "load and find" `Quick test_vstore_load_find;
          Alcotest.test_case "find_or_create" `Quick test_vstore_find_or_create;
          Alcotest.test_case "clear_pending" `Quick test_vstore_clear_pending;
          Alcotest.test_case "lookup takes no lock" `Quick
            test_vstore_lookup_takes_no_lock;
          Alcotest.test_case "racing creators share an entry" `Quick
            test_vstore_racing_creators;
          Alcotest.test_case "store_snapshot order pinned" `Quick
            test_store_snapshot_order_pinned;
        ] );
      ( "occ-reads",
        [
          Alcotest.test_case "fresh read ok" `Quick test_validate_fresh_read_ok;
          Alcotest.test_case "stale read aborts" `Quick test_validate_stale_read_aborts;
          Alcotest.test_case "read behind pending writer" `Quick
            test_validate_read_behind_pending_writer_aborts;
        ] );
      ( "occ-writes",
        [
          Alcotest.test_case "write below rts aborts" `Quick
            test_validate_write_before_rts_aborts;
          Alcotest.test_case "write behind pending reader" `Quick
            test_validate_write_behind_pending_reader_aborts;
          Alcotest.test_case "RMW self-compatible" `Quick
            test_validate_rmw_self_compatible;
          Alcotest.test_case "abort backs out marks" `Quick
            test_validate_abort_backs_out_marks;
        ] );
      ( "write-phase",
        [
          Alcotest.test_case "commit installs version" `Quick test_finish_commit_installs;
          Alcotest.test_case "abort leaves value" `Quick test_finish_abort_leaves_value;
          Alcotest.test_case "Thomas write rule" `Quick test_thomas_write_rule;
          Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
          Alcotest.test_case "conflicting pair: one aborts" `Quick
            test_conflicting_pair_cannot_both_commit;
          Alcotest.test_case "client-id tie-break" `Quick test_timestamp_tiebreak_in_occ;
        ] );
      ( "trecord",
        [
          Alcotest.test_case "per-core partitioning" `Quick test_trecord_partitioning;
          Alcotest.test_case "entries and replace_all" `Quick
            test_trecord_entries_and_replace;
          Alcotest.test_case "remove" `Quick test_trecord_remove;
          Alcotest.test_case "trim finalized" `Quick test_trecord_trim;
          Alcotest.test_case "core pending" `Quick test_trecord_core_pending;
        ] );
    ]
