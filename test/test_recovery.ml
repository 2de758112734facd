(* Coordinator recovery (§5.3.2): outcome selection, the view-change
   machine, and an end-to-end backup-coordinator run over real
   replicas. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord
module Quorum = Mk_meerkat.Quorum
module Replica = Mk_meerkat.Replica
module Recovery = Mk_meerkat.Recovery
module Batch = Mk_meerkat.Batch
module View_change = Mk_meerkat.View_change

let q3 = Quorum.create ~n:3
let q5 = Quorum.create ~n:5
let ts time = Timestamp.make ~time ~client_id:1

let rmw ~seq key =
  Txn.make
    ~tid:(Timestamp.Tid.make ~seq ~client_id:1)
    ~read_set:[ { key; wts = Timestamp.zero } ]
    ~write_set:[ { key; value = seq } ]

let record ?(v = 0) ?accept_view ~status ~from txn : int * Recovery.reply =
  (from, Recovery.Record { Replica.txn; ts = ts 1.0; status; view = v; accept_view })

let no_record from : int * Recovery.reply = (from, Recovery.No_record)

let test_needs_majority () =
  Alcotest.check_raises "one reply"
    (Invalid_argument "Recovery.choose: needs a majority of distinct replicas")
    (fun () -> ignore (Recovery.choose ~quorum:q3 ~replies:[ no_record 0 ]))

let test_priority1_final () =
  let t = rmw ~seq:1 0 in
  Alcotest.(check bool) "committed anywhere -> commit" true
    (Recovery.choose ~quorum:q3
       ~replies:[ record ~from:0 ~status:Txn.Committed t; no_record 1 ]
    = `Commit);
  Alcotest.(check bool) "aborted anywhere -> abort" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [ record ~from:0 ~status:Txn.Aborted t; record ~from:1 ~status:Txn.Validated_ok t ]
    = `Abort)

let test_priority2_accepted () =
  let t = rmw ~seq:1 0 in
  Alcotest.(check bool) "accepted commit wins over validated" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~v:1 ~accept_view:1 ~status:Txn.Accepted_commit t;
           record ~from:1 ~status:Txn.Validated_abort t;
         ]
    = `Commit);
  (* Competing accepted proposals: the higher view decides. *)
  Alcotest.(check bool) "higher accept view wins" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~v:2 ~accept_view:2 ~status:Txn.Accepted_abort t;
           record ~from:1 ~v:5 ~accept_view:5 ~status:Txn.Accepted_commit t;
         ]
    = `Commit)

let test_priority3_fast_path_possibility () =
  let t = rmw ~seq:1 0 in
  (* n=3, fast_recovery = 2: two VALIDATED-OK replies mean the fast
     path may have committed; propose commit. *)
  Alcotest.(check bool) "2 ok -> commit" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_ok t;
           record ~from:1 ~status:Txn.Validated_ok t;
         ]
    = `Commit);
  (* One OK, one no-record: a fast commit (3 matching) would have left
     ≥2 OKs in any majority; safe to abort. *)
  Alcotest.(check bool) "1 ok -> abort" true
    (Recovery.choose ~quorum:q3
       ~replies:[ record ~from:0 ~status:Txn.Validated_ok t; no_record 1 ]
    = `Abort)

let test_priority4_default_abort () =
  let t = rmw ~seq:1 0 in
  Alcotest.(check bool) "no records -> abort" true
    (Recovery.choose ~quorum:q3 ~replies:[ no_record 0; no_record 1 ] = `Abort);
  Alcotest.(check bool) "all validated-abort -> abort" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_abort t;
           record ~from:1 ~status:Txn.Validated_abort t;
         ]
    = `Abort)

let test_n5_thresholds () =
  let t = rmw ~seq:1 0 in
  (* n=5, fast_recovery = 2: a majority (3) with 2 OKs must commit. *)
  Alcotest.(check bool) "2 of 3 ok -> commit" true
    (Recovery.choose ~quorum:q5
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_ok t;
           record ~from:1 ~status:Txn.Validated_ok t;
           record ~from:2 ~status:Txn.Validated_abort t;
         ]
    = `Commit);
  Alcotest.(check bool) "1 of 3 ok -> abort" true
    (Recovery.choose ~quorum:q5
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_ok t;
           record ~from:1 ~status:Txn.Validated_abort t;
           no_record 2;
         ]
    = `Abort)

(* --- Duplicated / reordered replies (at-most-once dedup). --- *)

let test_duplicate_replies_not_double_counted () =
  let t = rmw ~seq:9 0 in
  (* n=3, fast_recovery = 2: the same replica reporting VALIDATED-OK
     twice (a duplicated or retransmitted reply) is ONE distinct OK —
     the safe choice is abort, and counting the duplicate would
     wrongly flip it to commit. *)
  Alcotest.(check bool) "dup ok counts once -> abort" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_ok t;
           record ~from:0 ~status:Txn.Validated_ok t;
           no_record 1;
         ]
    = `Abort);
  (* n=5: replica 0's duplicate must not lift one OK to the ⌈f/2⌉+1 =
     2 bound either. *)
  Alcotest.(check bool) "n=5 dup ok counts once -> abort" true
    (Recovery.choose ~quorum:q5
       ~replies:
         [
           record ~from:0 ~status:Txn.Validated_ok t;
           record ~from:0 ~status:Txn.Validated_ok t;
           no_record 1;
           no_record 2;
         ]
    = `Abort)

let test_duplicates_do_not_reach_majority () =
  (* Two replies from the same replica are one distinct replica: no
     majority, so choose must refuse rather than decide. *)
  Alcotest.check_raises "dup is not a majority"
    (Invalid_argument "Recovery.choose: needs a majority of distinct replicas")
    (fun () ->
      ignore (Recovery.choose ~quorum:q3 ~replies:[ no_record 0; no_record 0 ]))

let test_reordered_replies_same_outcome () =
  let t = rmw ~seq:10 0 in
  let replies =
    [
      record ~from:0 ~status:Txn.Validated_ok t;
      record ~from:1 ~v:3 ~accept_view:3 ~status:Txn.Accepted_abort t;
      no_record 2;
    ]
  in
  let reordered = List.rev replies in
  Alcotest.(check bool) "order irrelevant" true
    (Recovery.choose ~quorum:q3 ~replies
    = Recovery.choose ~quorum:q3 ~replies:reordered);
  (* First reply from a replica wins: a stale duplicate arriving after
     a newer reply from the same replica does not overwrite it. *)
  Alcotest.(check bool) "first reply per replica wins" true
    (Recovery.choose ~quorum:q3
       ~replies:
         [
           record ~from:0 ~v:3 ~accept_view:3 ~status:Txn.Accepted_commit t;
           record ~from:0 ~status:Txn.Validated_abort t;
           no_record 1;
         ]
    = `Commit)

(* --- The view-change machine, driven by hand: replies in, actions
   out. Replica 1 proposes view 1 in a 3-replica group. --- *)

let entry txn : Trecord.entry =
  { txn; ts = ts 1.0; status = Txn.Validated_ok; view = 0; accept_view = None }

let vc_txn = rmw ~seq:50 1
let vc_tid = vc_txn.Txn.tid

(* A fresh table with the change started at time 0 (rto 10, deadline
   100); the start's [Coord_change]s are dropped. *)
let started () =
  let vcs = View_change.create ~n:3 in
  let into = Batch.create () in
  View_change.start vcs ~observer:1 ~record:(entry vc_txn) ~view:1 ~rto:10.0
    ~deadline:100.0 ~now:0.0 ~into;
  (vcs, into)

(* One action per line, replica order kept. *)
let show (a : View_change.action) =
  match a with
  | View_change.Coord_change { replica; observer; view; _ } ->
      Printf.sprintf "coord_change r%d o%d v%d" replica observer view
  | View_change.Vc_accept { replica; decision; view; _ } ->
      Printf.sprintf "vc_accept r%d v%d %s" replica view
        (match decision with `Commit -> "commit" | `Abort -> "abort")
  | View_change.Write_back { commit; _ } ->
      Printf.sprintf "write_back %s" (if commit then "commit" else "abort")
  | View_change.Done { outcome; _ } ->
      Printf.sprintf "done %s"
        (match outcome with `Finished -> "finished" | `Abandoned -> "abandoned")

(* The actions one call emits. *)
let emitted into f =
  Batch.clear into;
  f ~into;
  List.map show (Batch.to_list into)

let check_emits what expected into f =
  Alcotest.(check (list string)) what expected (emitted into f)

let ok_reply ?(observer = 1) ?(view = 1) vcs replica =
  View_change.coord_reply vcs ~tid:vc_tid ~observer ~view ~replica (`View_ok None)

let accept ?(observer = 1) ?(view = 1) vcs replica reply =
  View_change.accept_reply vcs ~tid:vc_tid ~observer ~view ~replica reply

let accepts_abort =
  [ "vc_accept r0 v1 abort"; "vc_accept r1 v1 abort"; "vc_accept r2 v1 abort" ]

(* Gather replies 0 and 1 (no record anywhere: abort is chosen). *)
let chosen () =
  let vcs, into = started () in
  check_emits "first reply" [] into (ok_reply vcs 0);
  check_emits "majority chooses" accepts_abort into (ok_reply vcs 1);
  (vcs, into)

let test_vc_start_gathers () =
  let vcs = View_change.create ~n:3 in
  let into = Batch.create () in
  check_emits "coord_change to every replica"
    [ "coord_change r0 o1 v1"; "coord_change r1 o1 v1"; "coord_change r2 o1 v1" ]
    into
    (View_change.start vcs ~observer:1 ~record:(entry vc_txn) ~view:1 ~rto:10.0
       ~deadline:100.0 ~now:0.0);
  Alcotest.(check (float 0.0)) "first retry due at rto" 10.0 (View_change.next_due vcs)

let test_vc_duplicates_count_once () =
  let vcs, into = started () in
  check_emits "first view_ok" [] into (ok_reply vcs 0);
  check_emits "duplicate view_ok is no majority" [] into (ok_reply vcs 0);
  check_emits "second replica completes the majority" accepts_abort into
    (ok_reply vcs 1);
  check_emits "first accepted" [] into (accept vcs 2 `Accepted);
  check_emits "duplicate accepted is no majority" [] into (accept vcs 2 `Accepted);
  check_emits "second replica finishes" [ "write_back abort"; "done finished" ] into
    (accept vcs 0 `Accepted);
  check_emits "late reply after the finish" [] into (accept vcs 1 `Accepted)

let test_vc_stale_gather_abandons () =
  let vcs, into = started () in
  check_emits "view_ok" [] into (ok_reply vcs 0);
  check_emits "stale abandons" [ "done abandoned" ] into
    (View_change.coord_reply vcs ~tid:vc_tid ~observer:1 ~view:1 ~replica:2 (`Stale 4));
  check_emits "later replies ignored" [] into (ok_reply vcs 1);
  Alcotest.(check (option (float 0.0))) "no retry left" None
    (View_change.timer vcs ~now:10.0 ~tid:vc_tid ~into)

let test_vc_finalized_during_accept () =
  let vcs, into = chosen () in
  (* Abort was chosen, but a replica already learned the commit. *)
  check_emits "finalized outcome wins" [ "write_back commit"; "done finished" ] into
    (accept vcs 2 (`Finalized Txn.Committed))

let test_vc_stale_accept_abandons () =
  let vcs, into = chosen () in
  check_emits "stale accept abandons" [ "done abandoned" ] into
    (accept vcs 0 (`Stale 7))

let test_vc_accept_before_choice_ignored () =
  let vcs, into = started () in
  check_emits "accept reply during the gather" [] into (accept vcs 0 `Accepted);
  check_emits "finalized during the gather" [] into
    (accept vcs 0 (`Finalized Txn.Committed));
  ignore (emitted into (ok_reply vcs 0));
  check_emits "the gather goes on" accepts_abort into (ok_reply vcs 1)

let test_vc_retry_only_missing () =
  let vcs, into = started () in
  check_emits "view_ok from replica 1" [] into (ok_reply vcs 1);
  check_emits "not due yet" [] into (fun ~into ->
      Alcotest.(check (option (float 0.0))) "no re-arm" None
        (View_change.timer vcs ~now:9.0 ~tid:vc_tid ~into));
  check_emits "gather resent to the silent replicas"
    [ "coord_change r0 o1 v1"; "coord_change r2 o1 v1" ]
    into
    (fun ~into ->
      Alcotest.(check (option (float 0.0))) "backoff doubles" (Some 20.0)
        (View_change.timer vcs ~now:10.0 ~tid:vc_tid ~into));
  ignore (emitted into (ok_reply vcs 2));
  check_emits "accepted from replica 2" [] into (accept vcs 2 `Accepted);
  check_emits "accepts resent to the silent replicas"
    [ "vc_accept r0 v1 abort"; "vc_accept r1 v1 abort" ]
    into
    (fun ~into ->
      Alcotest.(check (option (float 0.0))) "backoff doubles again" (Some 40.0)
        (View_change.timer vcs ~now:30.0 ~tid:vc_tid ~into))

let test_vc_deadline_abandons () =
  let vcs, into = started () in
  let retry now ~into = ignore (View_change.timer vcs ~now ~tid:vc_tid ~into) in
  ignore (emitted into (retry 10.0));
  ignore (emitted into (retry 30.0));
  ignore (emitted into (retry 70.0));
  check_emits "retry past the deadline abandons" [ "done abandoned" ] into
    (retry 150.0);
  (* The wall-clock path: a tick past the deadline abandons even before
     the next retry is due. *)
  let vcs, into = started () in
  check_emits "tick before anything is due" [] into (View_change.fire_due vcs ~now:5.0);
  ignore (emitted into (View_change.fire_due vcs ~now:10.0));
  Alcotest.(check bool)
    "next due after the retry" true
    (View_change.next_due vcs > 10.0);
  check_emits "tick past the deadline abandons" [ "done abandoned" ] into
    (View_change.fire_due vcs ~now:100.5);
  check_emits "nothing left" [] into (View_change.fire_due vcs ~now:1000.0)

let test_vc_out_of_range_replica_ignored () =
  let vcs, into = started () in
  check_emits "replica n" [] into (ok_reply vcs 3);
  check_emits "negative replica" [] into (ok_reply vcs (-1));
  check_emits "one real reply is no majority" [] into (ok_reply vcs 0);
  check_emits "the second real one is" accepts_abort into (ok_reply vcs 1);
  check_emits "out-of-range accept" [] into (accept vcs 7 `Accepted);
  check_emits "out-of-range finalized" [] into
    (accept vcs (-2) (`Finalized Txn.Committed));
  check_emits "one real accept is no majority" [] into (accept vcs 0 `Accepted)

let test_vc_foreign_reply_ignored () =
  let vcs, into = started () in
  check_emits "another observer's view_ok" [] into (ok_reply ~observer:2 vcs 0);
  check_emits "another observer's stale" [] into
    (View_change.coord_reply vcs ~tid:vc_tid ~observer:0 ~view:1 ~replica:0 (`Stale 9));
  check_emits "another view's view_ok" [] into (ok_reply ~view:4 vcs 2);
  check_emits "one counted reply is no majority" [] into (ok_reply vcs 0);
  check_emits "the majority" accepts_abort into (ok_reply vcs 1);
  check_emits "another observer's finalized" [] into
    (accept ~observer:0 vcs 0 (`Finalized Txn.Committed));
  check_emits "another view's accepted" [] into (accept ~view:4 vcs 0 `Accepted);
  check_emits "another tid" [] into (fun ~into ->
      View_change.accept_reply vcs ~tid:(rmw ~seq:51 1).Txn.tid ~observer:1 ~view:1
        ~replica:0 `Accepted ~into)

(* --- End-to-end: a backup coordinator finishes an orphaned
   transaction across three real replicas. --- *)

let make_cluster () =
  let replicas = Array.init 3 (fun id -> Replica.create ~id ~quorum:q3 ~cores:2) in
  Array.iter
    (fun r ->
      for key = 0 to 7 do
        Replica.load r ~key ~value:0
      done)
    replicas;
  replicas

(* Drive the full §5.3.2 procedure through the machine with every
   message delivered at once: prepare (coord-change) at a majority,
   choose, accept at the new view, commit everywhere. View [view]
   belongs to replica [view mod 3]. *)
let run_backup_coordinator replicas ~core ~txn ~ts:tstamp ~view =
  let vcs = View_change.create ~n:3 in
  let into = Batch.create () in
  let outcome = ref None and finished = ref false in
  let perform = function
    | View_change.Coord_change { replica; observer; tid; view } -> (
        match Replica.handle_coord_change replicas.(replica) ~core ~tid ~view with
        | Some reply ->
            View_change.coord_reply vcs ~tid ~observer ~view ~replica reply ~into
        | None -> ())
    | View_change.Vc_accept { replica; observer; txn; ts; decision; view } -> (
        match
          Replica.handle_accept replicas.(replica) ~core ~txn ~ts ~decision ~view
        with
        | Some reply ->
            View_change.accept_reply vcs ~tid:txn.Txn.tid ~observer ~view ~replica reply
              ~into
        | None -> ())
    | View_change.Write_back { txn; ts; commit; _ } ->
        outcome := Some (if commit then `Commit else `Abort);
        Array.iter
          (fun r -> ignore (Replica.handle_commit r ~core:0 ~txn ~ts ~commit))
          replicas
    | View_change.Done { outcome; _ } -> finished := outcome = `Finished
  in
  View_change.start vcs ~observer:(view mod 3)
    ~record:{ (entry txn) with ts = tstamp }
    ~view ~rto:1.0 ~deadline:infinity ~now:0.0 ~into;
  (* Replies emit into the batch being iterated; iteration visits them. *)
  Batch.iter perform into;
  Alcotest.(check bool) "view change finished" true !finished;
  match !outcome with Some o -> o | None -> Alcotest.fail "no write-back"

let test_backup_finishes_validated_txn () =
  let replicas = make_cluster () in
  let t = rmw ~seq:1 3 in
  (* The original coordinator validated at 2 of 3 replicas, then died
     before sending any commit. *)
  ignore (Replica.handle_validate replicas.(0) ~core:0 ~txn:t ~ts:(ts 1.0));
  ignore (Replica.handle_validate replicas.(1) ~core:0 ~txn:t ~ts:(ts 1.0));
  let outcome = run_backup_coordinator replicas ~core:0 ~txn:t ~ts:(ts 1.0) ~view:1 in
  Alcotest.(check bool) "committed" true (outcome = `Commit);
  (* All replicas converge on the value. *)
  Array.iter
    (fun r ->
      match Replica.handle_get r ~key:3 with
      | Some (1, _) -> ()
      | _ -> Alcotest.fail "value missing after recovery")
    replicas

let test_backup_aborts_unseen_txn () =
  let replicas = make_cluster () in
  let t = rmw ~seq:2 4 in
  (* Only one replica ever validated it. *)
  ignore (Replica.handle_validate replicas.(2) ~core:0 ~txn:t ~ts:(ts 2.0));
  let outcome = run_backup_coordinator replicas ~core:0 ~txn:t ~ts:(ts 2.0) ~view:1 in
  Alcotest.(check bool) "aborted" true (outcome = `Abort);
  Array.iter
    (fun r ->
      match Replica.handle_get r ~key:4 with
      | Some (0, _) -> ()
      | _ -> Alcotest.fail "aborted write leaked")
    replicas;
  (* The pending marks the lone validation installed were cleaned. *)
  Alcotest.(check (pair int int)) "no residue" (0, 0)
    (Mk_storage.Vstore.pending_counts (Replica.vstore replicas.(2)))

let test_two_backups_agree () =
  (* Two successive backup coordinators (views 1 then 2) must reach
     the same outcome even though the second starts after the first
     already drove accepts. *)
  let replicas = make_cluster () in
  let t = rmw ~seq:3 5 in
  ignore (Replica.handle_validate replicas.(0) ~core:0 ~txn:t ~ts:(ts 3.0));
  ignore (Replica.handle_validate replicas.(1) ~core:0 ~txn:t ~ts:(ts 3.0));
  (* Backup 1 (view 1) runs prepare + accept but dies before commit. *)
  let replies =
    [ 0; 1 ]
    |> List.filter_map (fun i ->
           match
             Replica.handle_coord_change replicas.(i) ~core:0 ~tid:t.Txn.tid ~view:1
           with
           | Some (`View_ok (Some record)) -> Some (i, Recovery.Record record)
           | Some (`View_ok None) -> Some (i, Recovery.No_record)
           | Some (`Stale _) | None -> None)
  in
  let outcome1 = Recovery.choose ~quorum:q3 ~replies in
  ignore
    (Replica.handle_accept replicas.(0) ~core:0 ~txn:t ~ts:(ts 3.0)
       ~decision:(outcome1 :> [ `Commit | `Abort ])
       ~view:1);
  (* Backup 2 (view 2) takes over and completes. *)
  let outcome2 = run_backup_coordinator replicas ~core:0 ~txn:t ~ts:(ts 3.0) ~view:2 in
  Alcotest.(check bool) "same decision" true (outcome1 = outcome2)

let test_original_coordinator_fenced () =
  (* After a backup coordinator moved the transaction to view 1, the
     original coordinator's view-0 accept must be rejected. *)
  let replicas = make_cluster () in
  let t = rmw ~seq:4 6 in
  ignore (Replica.handle_validate replicas.(0) ~core:0 ~txn:t ~ts:(ts 4.0));
  ignore
    (Replica.handle_coord_change replicas.(0) ~core:0 ~tid:t.Txn.tid ~view:1);
  match
    Replica.handle_accept replicas.(0) ~core:0 ~txn:t ~ts:(ts 4.0) ~decision:`Commit
      ~view:0
  with
  | Some (`Stale 1) -> ()
  | _ -> Alcotest.fail "view-0 accept should be fenced"

let () =
  Alcotest.run "recovery"
    [
      ( "choose",
        [
          Alcotest.test_case "requires majority" `Quick test_needs_majority;
          Alcotest.test_case "priority 1: final" `Quick test_priority1_final;
          Alcotest.test_case "priority 2: accepted" `Quick test_priority2_accepted;
          Alcotest.test_case "priority 3: fast-path possibility" `Quick
            test_priority3_fast_path_possibility;
          Alcotest.test_case "priority 4: default abort" `Quick
            test_priority4_default_abort;
          Alcotest.test_case "n=5 thresholds" `Quick test_n5_thresholds;
          Alcotest.test_case "duplicate replies count once" `Quick
            test_duplicate_replies_not_double_counted;
          Alcotest.test_case "duplicates are not a majority" `Quick
            test_duplicates_do_not_reach_majority;
          Alcotest.test_case "reordered replies, same outcome" `Quick
            test_reordered_replies_same_outcome;
        ] );
      ( "view change",
        [
          Alcotest.test_case "start gathers from every replica" `Quick
            test_vc_start_gathers;
          Alcotest.test_case "duplicate view_ok and accepted count once" `Quick
            test_vc_duplicates_count_once;
          Alcotest.test_case "stale during the gather abandons" `Quick
            test_vc_stale_gather_abandons;
          Alcotest.test_case "finalized during the accept finishes" `Quick
            test_vc_finalized_during_accept;
          Alcotest.test_case "stale during the accept abandons" `Quick
            test_vc_stale_accept_abandons;
          Alcotest.test_case "accept replies before the choice ignored" `Quick
            test_vc_accept_before_choice_ignored;
          Alcotest.test_case "retry resends only to the silent" `Quick
            test_vc_retry_only_missing;
          Alcotest.test_case "expired deadline abandons" `Quick
            test_vc_deadline_abandons;
          Alcotest.test_case "out-of-range replica ignored" `Quick
            test_vc_out_of_range_replica_ignored;
          Alcotest.test_case "another observer or view ignored" `Quick
            test_vc_foreign_reply_ignored;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "backup commits validated txn" `Quick
            test_backup_finishes_validated_txn;
          Alcotest.test_case "backup aborts unseen txn" `Quick
            test_backup_aborts_unseen_txn;
          Alcotest.test_case "successive backups agree" `Quick test_two_backups_agree;
          Alcotest.test_case "original coordinator fenced" `Quick
            test_original_coordinator_fenced;
        ] );
    ]
