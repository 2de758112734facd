(* Unit tests for the transport-agnostic lib/shard subsystem
   (DESIGN.md §13): router placement round-trips, the Xcoord 2PC
   action machine, and the merged-history checker adapter — including
   the cross-shard anomaly fixtures. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Router = Mk_shard.Router
module Xcoord = Mk_shard.Xcoord
module History = Mk_shard.History
module Checker = Mk_harness.Checker

let tid n = Tid.make ~seq:n ~client_id:0
let ts time = Timestamp.make ~time ~client_id:0

let txn ?(tid = tid 0) ~reads ~writes () =
  Txn.make ~tid
    ~read_set:(List.map (fun (key, wts) -> { Txn.key; wts }) reads)
    ~write_set:(List.map (fun (key, value) -> { Txn.key; value }) writes)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let test_router_roundtrip () =
  List.iter
    (fun policy ->
      List.iter
        (fun (shards, keys) ->
          let r = Router.create ~policy ~shards ~keys () in
          (* Every global key round-trips through (shard, local). *)
          for k = 0 to keys - 1 do
            let s = Router.shard_of_key r k in
            Alcotest.(check bool)
              (Printf.sprintf "%s s%d k%d shard in range"
                 (Router.policy_to_string policy) shards k)
              true
              (s >= 0 && s < shards);
            let local = Router.local_key r k in
            Alcotest.(check bool)
              (Printf.sprintf "local key %d below local_keys" k)
              true
              (local >= 0 && local < Router.local_keys r ~shard:s);
            Alcotest.(check int)
              (Printf.sprintf "roundtrip key %d" k)
              k
              (Router.global_key r ~shard:s local)
          done;
          (* The local keyspaces partition the global one. *)
          let total = ref 0 in
          for s = 0 to shards - 1 do
            total := !total + Router.local_keys r ~shard:s
          done;
          Alcotest.(check int) "local keyspaces sum to keys" keys !total)
        [ (1, 10); (2, 64); (3, 64); (4, 7); (8, 5); (5, 100) ])
    [ Router.Mod; Router.Range ]

let test_router_total () =
  (* Hostile keys must map into range, never raise. *)
  List.iter
    (fun policy ->
      let r = Router.create ~policy ~shards:3 ~keys:9 () in
      List.iter
        (fun k ->
          let s = Router.shard_of_key r k in
          Alcotest.(check bool)
            (Printf.sprintf "key %d in range" k)
            true
            (s >= 0 && s < 3))
        [ -1; -1000; min_int; 9; 10_000; max_int ])
    [ Router.Mod; Router.Range ]

let test_router_split_merge () =
  let r = Router.create ~shards:3 ~keys:30 () in
  let t =
    txn
      ~reads:[ (0, ts 1.0); (4, ts 2.0); (8, ts 3.0) ]
      ~writes:[ (0, 10); (5, 11) ]
      ()
  in
  let subs = Router.split r t in
  Alcotest.(check (list int)) "involved shards" [ 0; 1; 2 ]
    (List.map fst subs);
  Alcotest.(check (list int)) "involved agrees with split"
    (List.map fst subs) (Router.involved r t);
  (* Shard 1 owns global keys 4 (read) and nothing written; shard 2
     owns 5 (write) and 8 (read). *)
  let sub1 = List.assoc 1 subs and sub2 = List.assoc 2 subs in
  Alcotest.(check int) "shard 1 reads" 1 (Array.length sub1.Txn.read_set);
  Alcotest.(check int) "shard 1 writes" 0 (Array.length sub1.Txn.write_set);
  Alcotest.(check int) "shard 2 reads" 1 (Array.length sub2.Txn.read_set);
  Alcotest.(check int) "shard 2 writes" 1 (Array.length sub2.Txn.write_set);
  (* Local keys round-trip back to the original global sets. *)
  let reads, writes = Router.merge_sub r subs in
  let sort_reads l =
    List.sort compare (List.map (fun (e : Txn.read_entry) -> e.key) l)
  in
  let sort_writes l =
    List.sort compare (List.map (fun (w : Txn.write_entry) -> (w.key, w.value)) l)
  in
  Alcotest.(check (list int)) "read keys restored" [ 0; 4; 8 ] (sort_reads reads);
  Alcotest.(check (list (pair int int))) "write set restored"
    [ (0, 10); (5, 11) ]
    (sort_writes writes)

let test_router_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Router.create: shards must be >= 1") (fun () ->
      ignore (Router.create ~shards:0 ~keys:4 ()));
  Alcotest.check_raises "zero keys"
    (Invalid_argument "Router.create: keys must be >= 1") (fun () ->
      ignore (Router.create ~shards:2 ~keys:0 ()))

(* ------------------------------------------------------------------ *)
(* Xcoord                                                              *)
(* ------------------------------------------------------------------ *)

let router2 = Router.create ~shards:2 ~keys:16 ()

(* A batch's request positions: [None] is the one-shard identity. *)
let positions keys = function
  | Some index -> index
  | None -> Array.init (Array.length keys) Fun.id

(* Every read the actions ask for, as (shard, local key, request
   index) triples in issue order. *)
let read_actions actions =
  List.concat_map
    (function
      | Xcoord.Read { shard; keys; index } ->
          let index = positions keys index in
          List.init (Array.length keys) (fun i -> (shard, keys.(i), index.(i)))
      | _ -> [])
    actions

let read_batches actions =
  List.filter_map
    (function
      | Xcoord.Read { shard; keys; index } ->
          Some (shard, keys, positions keys index)
      | _ -> None)
    actions

let test_xcoord_one_read_per_shard () =
  (* Keys 5, 2, 7, 4, 1 on 2 shards (mod): shard 1 appears first. *)
  let reads = [| 5; 2; 7; 4; 1 |] in
  let _, actions = Xcoord.start ~router:router2 ~reads in
  Alcotest.(check (list (triple int (array int) (array int))))
    "one batch per shard, first-appearance order, keys in request order"
    [ (1, [| 2; 3; 0 |], [| 0; 2; 4 |]); (0, [| 1; 2 |], [| 1; 3 |]) ]
    (read_batches actions);
  (* One shard: the request's own array and no index array — answer
     [i] is read [i]. *)
  let router1 = Router.create ~shards:1 ~keys:16 () in
  let m, actions = Xcoord.start ~router:router1 ~reads in
  (match actions with
  | [ Xcoord.Read { shard = 0; keys; index } ] ->
      Alcotest.(check bool) "request's key array reused" true (keys == reads);
      Alcotest.(check bool) "identity index, not built" true (index = None)
  | _ -> Alcotest.fail "one shard: expected exactly one Read");
  Array.iteri
    (fun i key ->
      ignore (Xcoord.read_done m ~index:i ~value:(10 * key) ~wts:(ts 1.0)))
    reads;
  Alcotest.(check (array int)) "answers land by position"
    [| 50; 20; 70; 40; 10 |] (Xcoord.values m)

let test_xcoord_happy_path () =
  (* Read keys 0 (shard 0) and 1 (shard 1), write both: full 2PC. *)
  let m, actions = Xcoord.start ~router:router2 ~reads:[| 0; 1 |] in
  Alcotest.(check (list (triple int int int))) "reads issued"
    [ (0, 0, 0); (1, 0, 1) ]
    (read_actions actions);
  Alcotest.(check (list pass)) "no stamp yet" []
    (List.filter (function Xcoord.Need_stamp -> true | _ -> false) actions);
  let a1 = Xcoord.read_done m ~index:0 ~value:7 ~wts:(ts 1.0) in
  Alcotest.(check int) "first read: no actions" 0 (List.length a1);
  let a2 = Xcoord.read_done m ~index:1 ~value:9 ~wts:(ts 2.0) in
  (match a2 with
  | [ Xcoord.Need_stamp ] -> ()
  | _ -> Alcotest.fail "expected Need_stamp after last read");
  Alcotest.(check (array int)) "values in request order" [| 7; 9 |]
    (Xcoord.values m);
  let a3 =
    Xcoord.handle m
      (Xcoord.Stamped { tid = tid 1; ts = ts 5.0; writes = [| (0, 70); (1, 90) |] })
  in
  let prepares =
    List.filter_map
      (function Xcoord.Prepare { shard; txn; _ } -> Some (shard, txn) | _ -> None)
      a3
  in
  Alcotest.(check (list int)) "prepares in both shards" [ 0; 1 ]
    (List.map fst prepares);
  List.iter
    (fun (_, (sub : Txn.t)) ->
      Alcotest.(check int) "sub carries 1 read" 1 (Array.length sub.Txn.read_set);
      Alcotest.(check int) "sub carries 1 write" 1 (Array.length sub.Txn.write_set))
    prepares;
  let a4 = Xcoord.handle m (Xcoord.Prepared { shard = 0; commit = true }) in
  Alcotest.(check int) "one vote: no decision" 0 (List.length a4);
  Alcotest.(check bool) "not decided yet" false (Xcoord.decided m);
  let a5 = Xcoord.handle m (Xcoord.Prepared { shard = 1; commit = true }) in
  let finalizes =
    List.filter_map
      (function Xcoord.Finalize { shard; commit; _ } -> Some (shard, commit) | _ -> None)
      a5
  in
  Alcotest.(check (list (pair int bool))) "finalize commit everywhere"
    [ (0, true); (1, true) ]
    finalizes;
  (match List.rev a5 with
  | Xcoord.Done { committed = true; involved = [ 0; 1 ] } :: _ -> ()
  | _ -> Alcotest.fail "expected Done committed in both shards");
  Alcotest.(check bool) "decided" true (Xcoord.decided m);
  Alcotest.(check bool) "committed" true (Xcoord.committed m)

let test_xcoord_abort_conjunction () =
  (* One shard voting abort forces the global abort everywhere. *)
  let m, _ = Xcoord.start ~router:router2 ~reads:[||] in
  let a =
    Xcoord.handle m
      (Xcoord.Stamped { tid = tid 2; ts = ts 1.0; writes = [| (0, 1); (1, 2) |] })
  in
  Alcotest.(check int) "two prepares" 2
    (List.length (List.filter (function Xcoord.Prepare _ -> true | _ -> false) a));
  ignore (Xcoord.handle m (Xcoord.Prepared { shard = 0; commit = true }));
  let last = Xcoord.handle m (Xcoord.Prepared { shard = 1; commit = false }) in
  let finalizes =
    List.filter_map
      (function Xcoord.Finalize { shard; commit; _ } -> Some (shard, commit) | _ -> None)
      last
  in
  Alcotest.(check (list (pair int bool))) "finalize abort everywhere"
    [ (0, false); (1, false) ]
    finalizes;
  Alcotest.(check bool) "not committed" false (Xcoord.committed m)

let test_xcoord_single_shard_and_empty () =
  (* Single-shard write set: exactly one Prepare/Finalize pair. *)
  let m, a0 = Xcoord.start ~router:router2 ~reads:[||] in
  (match a0 with
  | [ Xcoord.Need_stamp ] -> ()
  | _ -> Alcotest.fail "no reads: stamp immediately");
  let a =
    Xcoord.handle m
      (Xcoord.Stamped { tid = tid 3; ts = ts 1.0; writes = [| (2, 5) |] })
  in
  (match a with
  | [ Xcoord.Prepare { shard = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single shard-0 prepare");
  let last = Xcoord.handle m (Xcoord.Prepared { shard = 0; commit = true }) in
  Alcotest.(check int) "finalize + done" 2 (List.length last);
  (* Empty transaction: trivially committed, touching nothing. *)
  let m2, _ = Xcoord.start ~router:router2 ~reads:[||] in
  let a2 =
    Xcoord.handle m2 (Xcoord.Stamped { tid = tid 4; ts = ts 1.0; writes = [||] })
  in
  (match a2 with
  | [ Xcoord.Done { committed = true; involved = [] } ] -> ()
  | _ -> Alcotest.fail "empty txn must be Done immediately")

let test_xcoord_duplicates_ignored () =
  let m, _ = Xcoord.start ~router:router2 ~reads:[| 0 |] in
  ignore (Xcoord.read_done m ~index:0 ~value:1 ~wts:(ts 1.0));
  (* A duplicate read answer must not advance anything. *)
  Alcotest.(check int) "dup read ignored" 0
    (List.length (Xcoord.read_done m ~index:0 ~value:2 ~wts:(ts 2.0)));
  Alcotest.(check int) "out-of-range read ignored" 0
    (List.length (Xcoord.read_done m ~index:1 ~value:2 ~wts:(ts 2.0)));
  ignore
    (Xcoord.handle m
       (Xcoord.Stamped { tid = tid 5; ts = ts 3.0; writes = [| (0, 1); (1, 1) |] }));
  Alcotest.(check int) "late read ignored" 0
    (List.length (Xcoord.read_done m ~index:0 ~value:3 ~wts:(ts 3.0)));
  Alcotest.(check (array int)) "first answer kept" [| 1 |] (Xcoord.values m);
  ignore (Xcoord.handle m (Xcoord.Prepared { shard = 0; commit = true }));
  (* Same shard voting twice must not complete the conjunction. *)
  Alcotest.(check int) "dup vote ignored" 0
    (List.length (Xcoord.handle m (Xcoord.Prepared { shard = 0; commit = true })));
  (* A shard that is not involved cannot vote at all. *)
  Alcotest.(check int) "stray shard ignored" 0
    (List.length (Xcoord.handle m (Xcoord.Prepared { shard = 7; commit = true })));
  Alcotest.(check bool) "still undecided" false (Xcoord.decided m);
  ignore (Xcoord.handle m (Xcoord.Prepared { shard = 1; commit = true }));
  Alcotest.(check bool) "decided after real second vote" true (Xcoord.decided m);
  (* Post-decision events are inert. *)
  Alcotest.(check int) "late vote ignored" 0
    (List.length (Xcoord.handle m (Xcoord.Prepared { shard = 1; commit = false })))

(* ------------------------------------------------------------------ *)
(* History merge + checker adapter                                     *)
(* ------------------------------------------------------------------ *)

let test_history_merge_roundtrip () =
  let r = Router.create ~shards:2 ~keys:8 () in
  (* A cross-shard transaction split by the router, committed in both
     shards, must merge back into the original global transaction. *)
  let global =
    txn ~tid:(tid 1)
      ~reads:[ (0, ts 0.0); (1, ts 0.0) ]
      ~writes:[ (0, 5); (1, 6) ]
      ()
  in
  let subs = Router.split r global in
  let per_shard =
    List.map (fun (s, sub) -> (s, [ (sub, ts 1.0) ])) subs
  in
  match History.merge ~router:r per_shard with
  | [ (merged, mts) ] ->
      Alcotest.(check bool) "tid restored" true (Tid.equal merged.Txn.tid (tid 1));
      Alcotest.(check bool) "ts kept" true (Timestamp.equal mts (ts 1.0));
      Alcotest.(check int) "reads restored" 2 (Array.length merged.Txn.read_set);
      Alcotest.(check int) "writes restored" 2 (Array.length merged.Txn.write_set)
  | l -> Alcotest.failf "expected one merged txn, got %d" (List.length l)

let test_history_merge_serializable () =
  (* A clean cross-shard execution merges into a history the checker
     accepts. *)
  let r = Router.create ~shards:2 ~keys:4 () in
  let init = txn ~tid:(tid 0) ~reads:[] ~writes:[ (0, 1); (1, 1) ] () in
  let t1 =
    txn ~tid:(tid 1)
      ~reads:[ (0, ts 1.0); (1, ts 1.0) ]
      ~writes:[ (0, 2); (1, 2) ]
      ()
  in
  let per_shard =
    [
      (0, [ (List.assoc 0 (Router.split r init), ts 1.0);
            (List.assoc 0 (Router.split r t1), ts 2.0) ]);
      (1, [ (List.assoc 1 (Router.split r init), ts 1.0);
            (List.assoc 1 (Router.split r t1), ts 2.0) ]);
    ]
  in
  match Checker.check (History.merge ~router:r per_shard) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected violation: %a" Checker.pp_violation v

let test_cross_shard_write_skew_rejected () =
  (* The classic write skew, split across shards: key 0 on shard 0,
     key 1 on shard 1. A reads both at the initial version and writes
     key 0; B reads both at the initial version and writes key 1.
     Serial execution cannot produce both reads — the merged history
     must be rejected. *)
  let r = Router.create ~shards:2 ~keys:4 () in
  let init = txn ~tid:(tid 0) ~reads:[] ~writes:[ (0, 0); (1, 0) ] () in
  let a =
    txn ~tid:(tid 1) ~reads:[ (0, ts 1.0); (1, ts 1.0) ] ~writes:[ (0, 1) ] ()
  in
  let b =
    txn ~tid:(tid 2) ~reads:[ (0, ts 1.0); (1, ts 1.0) ] ~writes:[ (1, 1) ] ()
  in
  let sub s t = List.assoc_opt s (Router.split r t) in
  let hist s l =
    List.filter_map (fun (t, ts) -> Option.map (fun x -> (x, ts)) (sub s t)) l
  in
  let commits = [ (init, ts 1.0); (a, ts 2.0); (b, ts 3.0) ] in
  let merged =
    History.merge ~router:r [ (0, hist 0 commits); (1, hist 1 commits) ]
  in
  match Checker.check merged with
  | Ok () -> Alcotest.fail "cross-shard write skew accepted"
  | Error v ->
      (* B (commit ts 3) read key 0 at the initial version although A
         (commit ts 2) had overwritten it. *)
      Alcotest.(check bool) "violating reader is B" true
        (Tid.equal v.Checker.tid (tid 2))

let test_per_shard_serializable_globally_broken () =
  (* Regression fixture: a 2PC implementation bug that stamps the two
     halves of one cross-shard transaction with different timestamps.
     Each shard's own history replays serializably, but the union is
     not a history of atomic transactions — the adapter must refuse to
     merge it rather than wave it through. *)
  let r = Router.create ~shards:2 ~keys:4 () in
  let half0 = txn ~tid:(tid 9) ~reads:[] ~writes:[ (0, 7) ] () in
  let half1 = txn ~tid:(tid 9) ~reads:[] ~writes:[ (1, 7) ] () in
  let h0 = [ (List.assoc 0 (Router.split r half0), ts 1.0) ] in
  let h1 = [ (List.assoc 1 (Router.split r half1), ts 2.0) ] in
  (* Per-shard projections pass in isolation... *)
  (match (Checker.check h0, Checker.check h1) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "per-shard projections should be serializable");
  (* ...but the union is not mergeable into atomic transactions. *)
  match History.merge ~router:r [ (0, h0); (1, h1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "split-timestamp transaction must be refused"

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "roundtrip both policies" `Quick test_router_roundtrip;
          Alcotest.test_case "total on hostile keys" `Quick test_router_total;
          Alcotest.test_case "split and merge_sub" `Quick test_router_split_merge;
          Alcotest.test_case "config validation" `Quick test_router_validation;
        ] );
      ( "xcoord",
        [
          Alcotest.test_case "happy path" `Quick test_xcoord_happy_path;
          Alcotest.test_case "abort conjunction" `Quick test_xcoord_abort_conjunction;
          Alcotest.test_case "single shard and empty" `Quick
            test_xcoord_single_shard_and_empty;
          Alcotest.test_case "duplicates ignored" `Quick
            test_xcoord_duplicates_ignored;
          Alcotest.test_case "one read action per shard" `Quick
            test_xcoord_one_read_per_shard;
        ] );
      ( "history",
        [
          Alcotest.test_case "merge roundtrip" `Quick test_history_merge_roundtrip;
          Alcotest.test_case "merge serializable" `Quick
            test_history_merge_serializable;
          Alcotest.test_case "cross-shard write skew rejected" `Quick
            test_cross_shard_write_skew_rejected;
          Alcotest.test_case "per-shard ok, globally broken" `Quick
            test_per_shard_serializable_globally_broken;
        ] );
    ]
