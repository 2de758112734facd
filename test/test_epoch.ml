(* Unit tests for the epoch-change merge rules (§5.3.1), and the
   message-driven epoch-change machine run in process: three replicas
   and three machines joined by an in-memory queue. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Quorum = Mk_meerkat.Quorum
module Replica = Mk_meerkat.Replica
module Epoch = Mk_meerkat.Epoch

let q3 = Quorum.create ~n:3
let q5 = Quorum.create ~n:5
let ts time = Timestamp.make ~time ~client_id:1

let rmw ~seq key =
  Txn.make
    ~tid:(Timestamp.Tid.make ~seq ~client_id:1)
    ~read_set:[ { key; wts = Timestamp.zero } ]
    ~write_set:[ { key; value = seq } ]

let view ?(v = 0) ?accept_view ~status ~ts:t txn : Replica.record_view =
  { txn; ts = t; status; view = v; accept_view }

let report replica records = { Epoch.replica; records }

let merge_status ~quorum reports tid =
  let merged = Epoch.merge ~quorum ~reports in
  match List.find_opt (fun (_, (v : Replica.record_view)) -> Timestamp.Tid.equal v.txn.Txn.tid tid) merged with
  | Some (_, v) -> Some v.Replica.status
  | None -> None

let test_needs_majority () =
  Alcotest.check_raises "one report rejected"
    (Invalid_argument "Epoch.merge: needs reports from a majority of distinct replicas")
    (fun () -> ignore (Epoch.merge ~quorum:q3 ~reports:[ report 0 [] ]))

(* --- Duplicated / reordered reports (at-most-once dedup). --- *)

let test_duplicate_reports_not_double_counted () =
  let t = rmw ~seq:7 0 in
  let ok = view ~status:Txn.Validated_ok ~ts:(ts 1.0) t in
  (* Replica 0's report arrives twice (retransmission); replica 1 has
     no record. One distinct OK is below the ⌈f/2⌉+1 = 2 fast-recovery
     bound, so the merge must abort — counting the duplicate would
     wrongly send it to re-validation (and commit). *)
  let reports = [ report 0 [ (0, ok) ]; report 0 [ (0, ok) ]; report 1 [] ] in
  Alcotest.(check bool) "dup report counts once" true
    (merge_status ~quorum:q3 reports t.Txn.tid = Some Txn.Aborted)

let test_duplicate_reports_not_a_majority () =
  Alcotest.check_raises "two reports from one replica rejected"
    (Invalid_argument "Epoch.merge: needs reports from a majority of distinct replicas")
    (fun () -> ignore (Epoch.merge ~quorum:q3 ~reports:[ report 0 []; report 0 [] ]))

let test_reordered_reports_same_merge () =
  let t1 = rmw ~seq:8 0 and t2 = rmw ~seq:9 1 in
  let reports =
    [
      report 0
        [
          (0, view ~status:Txn.Committed ~ts:(ts 1.0) t1);
          (0, view ~status:Txn.Validated_ok ~ts:(ts 2.0) t2);
        ];
      report 1 [ (0, view ~status:Txn.Validated_ok ~ts:(ts 2.0) t2) ];
    ]
  in
  let a = Epoch.merge ~quorum:q3 ~reports in
  let b = Epoch.merge ~quorum:q3 ~reports:(List.rev reports) in
  Alcotest.(check int) "same size" (List.length a) (List.length b);
  List.iter2
    (fun (_, (x : Replica.record_view)) (_, (y : Replica.record_view)) ->
      Alcotest.(check bool) "same tid order" true
        (Timestamp.Tid.equal x.txn.Txn.tid y.txn.Txn.tid);
      Alcotest.(check bool) "same status" true (x.status = y.status))
    a b

let test_rule1_final_wins () =
  let t = rmw ~seq:1 0 in
  (* One replica knows COMMITTED, another only VALIDATED-ABORT: the
     final outcome wins. *)
  let reports =
    [
      report 0 [ (0, view ~status:Txn.Committed ~ts:(ts 1.0) t) ];
      report 1 [ (0, view ~status:Txn.Validated_abort ~ts:(ts 1.0) t) ];
    ]
  in
  Alcotest.(check bool) "committed wins" true
    (merge_status ~quorum:q3 reports t.Txn.tid = Some Txn.Committed);
  let reports_abort =
    [
      report 0 [ (0, view ~status:Txn.Aborted ~ts:(ts 1.0) t) ];
      report 1 [ (0, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t) ];
    ]
  in
  Alcotest.(check bool) "aborted wins" true
    (merge_status ~quorum:q3 reports_abort t.Txn.tid = Some Txn.Aborted)

let test_rule2_latest_accepted_view_wins () =
  let t = rmw ~seq:1 0 in
  let reports =
    [
      report 0
        [ (0, view ~v:1 ~accept_view:1 ~status:Txn.Accepted_abort ~ts:(ts 1.0) t) ];
      report 1
        [ (0, view ~v:3 ~accept_view:3 ~status:Txn.Accepted_commit ~ts:(ts 1.0) t) ];
    ]
  in
  Alcotest.(check bool) "view 3 decision adopted" true
    (merge_status ~quorum:q3 reports t.Txn.tid = Some Txn.Committed)

let test_rule3_majority_validated () =
  let t = rmw ~seq:1 0 in
  let ok = view ~status:Txn.Validated_ok ~ts:(ts 1.0) t in
  let reports = [ report 0 [ (0, ok) ]; report 1 [ (0, ok) ] ] in
  Alcotest.(check bool) "majority ok commits" true
    (merge_status ~quorum:q3 reports t.Txn.tid = Some Txn.Committed);
  let ab = view ~status:Txn.Validated_abort ~ts:(ts 1.0) t in
  let reports = [ report 0 [ (0, ab) ]; report 1 [ (0, ab) ] ] in
  Alcotest.(check bool) "majority abort aborts" true
    (merge_status ~quorum:q3 reports t.Txn.tid = Some Txn.Aborted)

let test_rule4_fast_path_candidate_revalidated () =
  (* n=5: reports from 3 replicas, 2 say VALIDATED-OK (= ⌈f/2⌉+1), one
     never saw the transaction. No conflicting commit in the merge:
     re-validation succeeds, the transaction commits. *)
  let t = rmw ~seq:1 0 in
  let ok = view ~status:Txn.Validated_ok ~ts:(ts 1.0) t in
  let reports = [ report 0 [ (0, ok) ]; report 1 [ (0, ok) ]; report 2 [] ] in
  Alcotest.(check bool) "fast-path candidate survives" true
    (merge_status ~quorum:q5 reports t.Txn.tid = Some Txn.Committed)

let test_rule4_candidate_conflicting_commit_aborts () =
  (* Same, but the merge already contains a committed conflicting
     transaction at a higher timestamp: re-validation must reject the
     candidate (its read would be stale). *)
  let cand = rmw ~seq:1 0 in
  let winner = rmw ~seq:2 0 in
  let ok_cand = view ~status:Txn.Validated_ok ~ts:(ts 5.0) cand in
  let committed_winner = view ~status:Txn.Committed ~ts:(ts 2.0) winner in
  let reports =
    [
      report 0 [ (0, ok_cand); (1, committed_winner) ];
      report 1 [ (0, ok_cand) ];
      report 2 [ (1, committed_winner) ];
    ]
  in
  let merged = Epoch.merge ~quorum:q5 ~reports in
  let status_of tid =
    List.find_map
      (fun (_, (v : Replica.record_view)) ->
        if Timestamp.Tid.equal v.txn.Txn.tid tid then Some v.status else None)
      merged
  in
  Alcotest.(check bool) "winner stays committed" true
    (status_of winner.Txn.tid = Some Txn.Committed);
  (* The candidate read version zero of key 0, but the winner installed
     version ts=2 below the candidate's ts=5: stale read, abort. *)
  Alcotest.(check bool) "candidate aborted" true
    (status_of cand.Txn.tid = Some Txn.Aborted)

let test_rule5_everything_else_aborts () =
  (* A single VALIDATED-OK report (below ⌈f/2⌉+1 = 2 for n=5) and a
     lone VALIDATED-ABORT both fall through to abort. *)
  let t1 = rmw ~seq:1 0 in
  let t2 = rmw ~seq:2 1 in
  let reports =
    [
      report 0 [ (0, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t1) ];
      report 1 [ (1, view ~status:Txn.Validated_abort ~ts:(ts 2.0) t2) ];
      report 2 [];
    ]
  in
  Alcotest.(check bool) "lone ok aborts (n=5)" true
    (merge_status ~quorum:q5 reports t1.Txn.tid = Some Txn.Aborted);
  Alcotest.(check bool) "lone abort aborts" true
    (merge_status ~quorum:q5 reports t2.Txn.tid = Some Txn.Aborted)

let test_merge_all_final () =
  (* Whatever goes in, everything that comes out is final. *)
  let t1 = rmw ~seq:1 0 and t2 = rmw ~seq:2 1 and t3 = rmw ~seq:3 2 in
  let reports =
    [
      report 0
        [
          (0, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t1);
          (1, view ~v:1 ~accept_view:1 ~status:Txn.Accepted_commit ~ts:(ts 2.0) t2);
        ];
      report 1
        [
          (0, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t1);
          (2, view ~status:Txn.Validated_abort ~ts:(ts 3.0) t3);
        ];
    ]
  in
  let merged = Epoch.merge ~quorum:q3 ~reports in
  Alcotest.(check int) "all transactions present" 3 (List.length merged);
  List.iter
    (fun (_, (v : Replica.record_view)) ->
      Alcotest.(check bool) "final" true (Txn.is_final v.status))
    merged

let test_merge_preserves_core_partition () =
  let t = rmw ~seq:1 0 in
  let reports =
    [
      report 0 [ (3, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t) ];
      report 1 [ (3, view ~status:Txn.Validated_ok ~ts:(ts 1.0) t) ];
    ]
  in
  match Epoch.merge ~quorum:q3 ~reports with
  | [ (core, _) ] -> Alcotest.(check int) "core preserved" 3 core
  | merged -> Alcotest.failf "expected one record, got %d" (List.length merged)

let test_merge_sorted_by_timestamp () =
  let t1 = rmw ~seq:1 0 and t2 = rmw ~seq:2 1 in
  let reports =
    [
      report 0
        [
          (0, view ~status:Txn.Committed ~ts:(ts 9.0) t1);
          (0, view ~status:Txn.Committed ~ts:(ts 2.0) t2);
        ];
      report 1 [];
    ]
  in
  match Epoch.merge ~quorum:q3 ~reports with
  | [ (_, a); (_, b) ] ->
      Alcotest.(check bool) "ascending ts" true (Timestamp.compare a.Replica.ts b.Replica.ts < 0)
  | _ -> Alcotest.fail "expected two records"

(* --- The epoch-change machine over an in-memory queue --- *)

module Batch = Mk_meerkat.Batch
module Epoch_change = Mk_meerkat.Epoch_change

let n = 3
let cores = 2

type event =
  | Msg of { src : int; act : int Epoch_change.action }  (** A send; [dst] inside. *)
  | Ack of { node : int; core : int; gen : int }  (** A core acks a freeze. *)

type node = {
  rep : Replica.t;
  m : int Epoch_change.t;
  acts : int Epoch_change.action Batch.t;
  frozen : int option array;  (** Each core's freeze generation. *)
  mutable finished : (bool * int list) list;  (** Detector reports, newest first. *)
  mutable installs : int;  (** Durable [Installed] events. *)
  mutable acks_sent : int;
}

type net = {
  mutable nodes : node array;
  mutable queue : event list;
  mutable now : float;
  mutable violations : string list;
  rng : Random.State.t option;  (** Reorder, drop, duplicate and delay acks. *)
  delay_acks : bool;
  lose : event -> bool;  (** Scripted drops. *)
  twice : event -> bool;  (** Scripted duplicates. *)
}

let rto = 1_000.0
let give_up_after = 40_000.0
let violation net what = net.violations <- what :: net.violations

let make_node net id rep =
  let acts = Batch.create () in
  let frozen = Array.make cores None in
  (* An install rebuilds every partition: all cores must be frozen, and
     nothing that presumes it (a thaw, an ack) may be emitted first. *)
  let checked_install ~epoch ~records ~store =
    if Array.exists Option.is_none frozen then violation net "install with a core thawed";
    if
      List.exists
        (function Epoch_change.Thaw _ | Installed _ -> true | _ -> false)
        (Batch.to_list acts)
    then violation net "thaw or ack emitted before the install";
    Replica.handle_epoch_complete rep ~epoch ~records ~store
  in
  let ops =
    {
      Epoch_change.handle_epoch_change = Replica.handle_epoch_change rep;
      record_views = (fun () -> Replica.record_views rep);
      handle_epoch_complete = checked_install;
      store_snapshot = (fun () -> Replica.store_snapshot rep);
      resume = Replica.resume rep;
      merge = (fun reports -> Epoch.merge ~quorum:q3 ~reports);
    }
  in
  let node =
    {
      rep;
      m =
        Epoch_change.create ~me:id ~n ~cores ~quorum:q3 ~rto ~give_up_after
          ~epoch:(Replica.epoch rep) ~addr:Fun.id ops;
      acts;
      frozen;
      finished = [];
      installs = 0;
      acks_sent = 0;
    }
  in
  Replica.set_durable_hook rep (function
    | Replica.Installed _ -> node.installs <- node.installs + 1
    | Replica.Finalized _ -> ());
  node

let enqueue net ev = net.queue <- net.queue @ [ ev ]

let perform net id (act : int Epoch_change.action) =
  let node = net.nodes.(id) in
  match act with
  | Change _ | Records _ | Install _ -> enqueue net (Msg { src = id; act })
  | Installed _ ->
      node.acks_sent <- node.acks_sent + 1;
      enqueue net (Msg { src = id; act })
  | Freeze { core; gen } ->
      node.frozen.(core) <- Some gen;
      let ack = Ack { node = id; core; gen } in
      let later =
        match net.rng with
        | Some rng -> Random.State.bool rng
        | None -> net.delay_acks
      in
      if later then enqueue net ack else net.queue <- ack :: net.queue
  | Thaw { core; gen } -> if node.frozen.(core) = Some gen then node.frozen.(core) <- None
  | Finished { success; recovering } -> node.finished <- (success, recovering) :: node.finished

let feed net id f =
  let node = net.nodes.(id) in
  Batch.clear node.acts;
  f node.m ~into:node.acts;
  Batch.iter (perform net id) node.acts

let dst_of : int Epoch_change.action -> int = function
  | Change { dst; _ } | Records { dst; _ } | Install { dst; _ } | Installed { dst; _ } -> dst
  | Freeze _ | Thaw _ | Finished _ -> -1

let deliver net ev =
  let now = net.now in
  match ev with
  | Ack { node; core; gen } -> feed net node (Epoch_change.core_frozen ~core ~gen)
  | Msg { src; act } -> (
      let dst = dst_of act in
      match act with
      | Change { epoch; _ } -> feed net dst (Epoch_change.on_change ~initiator:src ~epoch ~now)
      | Records { epoch; records; _ } ->
          feed net dst (Epoch_change.on_records ~replica:src ~epoch ~records)
      | Install { epoch; records; store; _ } ->
          feed net dst (Epoch_change.on_install ~src ~epoch ~records ~store ~now)
      | Installed { epoch; _ } -> feed net dst (Epoch_change.on_installed ~replica:src ~epoch)
      | Freeze _ | Thaw _ | Finished _ -> ())

(* Take the next event: the head, or a random one under a seeded
   schedule, which also drops and duplicates messages (never acks). *)
let take net =
  match net.queue with
  | [] -> None
  | q ->
      let i = match net.rng with Some rng -> Random.State.int rng (List.length q) | None -> 0 in
      let ev = List.nth q i in
      net.queue <- List.filteri (fun j _ -> j <> i) q;
      let lost, dup =
        match (net.rng, ev) with
        | Some rng, Msg _ -> (Random.State.float rng 1.0 < 0.15, Random.State.float rng 1.0 < 0.15)
        | _ -> (net.lose ev, net.twice ev)
      in
      if dup then enqueue net ev;
      Some (if lost then None else Some ev)

let fire_due net =
  Array.iteri
    (fun id node ->
      if Epoch_change.next_due node.m <= net.now then
        feed net id (Epoch_change.fire_due ~now:net.now))
    net.nodes

(* Events advance the clock a little each; an empty queue jumps it to
   the next retry or deadline. Ends when every machine is idle. *)
let run net =
  let steps = ref 0 in
  let idle () = Array.for_all (fun nd -> Epoch_change.next_due nd.m = infinity) net.nodes in
  while !steps < 100_000 && not (net.queue = [] && idle ()) do
    incr steps;
    net.now <- net.now +. 10.0;
    fire_due net;
    match take net with
    | Some (Some ev) -> deliver net ev
    | Some None -> ()
    | None ->
        let due = Array.fold_left (fun m nd -> Float.min m (Epoch_change.next_due nd.m)) infinity net.nodes in
        if due < infinity then net.now <- Float.max net.now due +. 1.0
  done;
  Alcotest.(check bool) "every machine idle" true (idle ());
  Alcotest.(check (list string)) "no violations" [] net.violations

let commit rep ~seq =
  let t = rmw ~seq (seq mod 8) in
  ignore (Replica.handle_validate rep ~core:(seq mod cores) ~txn:t ~ts:(ts (float_of_int seq)) : Txn.status option);
  ignore (Replica.handle_commit rep ~core:(seq mod cores) ~txn:t ~ts:(ts (float_of_int seq)) ~commit:true : unit option)

(* Replicas 0 and 1 committed four transactions and 0 holds one more
   validated; replica 2 rebooted empty and waits to be readmitted. *)
let cluster ?rng ?(delay_acks = false) ?(lose = fun _ -> false) ?(twice = fun _ -> false) () =
  let net =
    { nodes = [||]; queue = []; now = 0.0; violations = []; rng; delay_acks; lose; twice }
  in
  let reps =
    Array.init n (fun id ->
        let r = Replica.create ~id ~quorum:q3 ~cores in
        for key = 0 to 7 do
          Replica.load r ~key ~value:0
        done;
        Replica.publish r;
        r)
  in
  for seq = 1 to 4 do
    commit reps.(0) ~seq;
    commit reps.(1) ~seq
  done;
  ignore (Replica.handle_validate reps.(0) ~core:1 ~txn:(rmw ~seq:5 5) ~ts:(ts 5.0) : Txn.status option);
  Replica.crash reps.(2);
  Replica.begin_recovery reps.(2);
  net.nodes <- Array.mapi (make_node net) reps;
  net

let start net id = feed net id (Epoch_change.start ~epoch:1 ~recovering:[ 2 ] ~now:net.now)

let rows rep =
  List.sort (fun (a : Replica.store_row) b -> compare a.key b.key) (Replica.store_snapshot rep)
  |> List.map (fun (r : Replica.store_row) -> (r.key, r.value, Timestamp.to_string r.wts))

let check_thawed net =
  Array.iteri
    (fun id nd ->
      Alcotest.(check bool) (Printf.sprintf "node %d thawed" id) true
        (Array.for_all Option.is_none nd.frozen))
    net.nodes

let test_machine_readmits () =
  let net = cluster () in
  start net 0;
  run net;
  let r0 = net.nodes.(0).rep and r2 = net.nodes.(2).rep in
  Alcotest.(check (list (pair bool (list int)))) "initiator succeeded" [ (true, [ 2 ]) ]
    net.nodes.(0).finished;
  Alcotest.(check bool) "recovering replica readmitted" true (Replica.is_available r2);
  Alcotest.(check int) "at the new epoch" 1 (Replica.epoch r2);
  Alcotest.(check bool) "store shipped" true (rows r2 = rows r0);
  Alcotest.(check (list int)) "each replica installed once" [ 1; 1; 1 ]
    (Array.to_list (Array.map (fun nd -> nd.installs) net.nodes));
  check_thawed net

let test_machine_tie_break () =
  let net = cluster () in
  start net 0;
  start net 1;
  run net;
  Alcotest.(check (list (pair bool (list int)))) "replica 0 drives" [ (true, [ 2 ]) ]
    net.nodes.(0).finished;
  Alcotest.(check (list (pair bool (list int)))) "replica 1 turned peer" [ (false, [ 2 ]) ]
    net.nodes.(1).finished;
  let views id = Replica.record_views net.nodes.(id).rep in
  Alcotest.(check bool) "one merge installed everywhere" true (views 1 = views 0 && views 2 = views 0);
  check_thawed net

let test_machine_install_first () =
  (* Replica 1 never sees a [Change]: its first word of the epoch is the
     install, which must wait for its (slow) cores to freeze. *)
  let lose = function Msg { act = Change { dst = 1; _ }; _ } -> true | _ -> false in
  let net = cluster ~delay_acks:true ~lose () in
  start net 0;
  run net;
  Alcotest.(check int) "installed" 1 net.nodes.(1).installs;
  Alcotest.(check bool) "available" true (Replica.is_available net.nodes.(1).rep);
  Alcotest.(check (list (pair bool (list int)))) "acked to the initiator" [ (true, [ 2 ]) ]
    net.nodes.(0).finished;
  check_thawed net

let test_machine_duplicate_install () =
  (* The first install to each replica arrives twice. *)
  let seen = ref [] in
  let twice = function
    | Msg { act = Install { dst; _ }; _ } when not (List.mem dst !seen) ->
        seen := dst :: !seen;
        true
    | _ -> false
  in
  let net = cluster ~twice () in
  start net 0;
  run net;
  Alcotest.(check (list int)) "installed once" [ 1; 1 ]
    [ net.nodes.(1).installs; net.nodes.(2).installs ];
  Alcotest.(check (list int)) "re-acked" [ 2; 2 ]
    [ net.nodes.(1).acks_sent; net.nodes.(2).acks_sent ];
  check_thawed net

let test_machine_peer_deadline () =
  (* Every install to replica 1 is lost: at its deadline it resumes at
     the new epoch with its own records. *)
  let lose = function Msg { act = Install { dst = 1; _ }; _ } -> true | _ -> false in
  let net = cluster ~lose () in
  start net 0;
  run net;
  let r1 = net.nodes.(1).rep in
  Alcotest.(check int) "nothing installed" 0 net.nodes.(1).installs;
  Alcotest.(check int) "at the new epoch" 1 (Replica.epoch r1);
  Alcotest.(check bool) "serving again" true (Replica.is_available r1);
  check_thawed net

let test_machine_reported_peer () =
  (* Replica 2 misses 0's [Change] and reports to 1, which then yields
     to 0: 2 stays with 1, adopts 0's merge and acks it to 0, once. *)
  let lose = function Msg { src = 0; act = Change { dst = 2; _ } } -> true | _ -> false in
  let net = cluster ~lose () in
  start net 1;
  start net 0;
  run net;
  Alcotest.(check (list (pair bool (list int)))) "replica 0 drives" [ (true, [ 2 ]) ]
    net.nodes.(0).finished;
  Alcotest.(check (list int)) "each replica installed once" [ 1; 1; 1 ]
    (Array.to_list (Array.map (fun nd -> nd.installs) net.nodes));
  Alcotest.(check int) "one ack, to the install's sender" 1 net.nodes.(2).acks_sent;
  check_thawed net

(* 40 seeded schedules of drops, duplicates, reorders and late acks,
   with [initiators] each starting epoch 1: every replica that installs
   does so once, and all install the same records. *)
let sweep initiators () =
  for seed = 1 to 40 do
    let net = cluster ~rng:(Random.State.make [| seed |]) () in
    List.iter (start net) initiators;
    run net;
    let installed =
      Array.to_list net.nodes |> List.filter (fun nd -> nd.installs > 0)
    in
    List.iter (fun nd -> Alcotest.(check int) "installed at most once" 1 nd.installs) installed;
    match installed with
    | [] -> ()
    | first :: rest ->
        List.iter
          (fun nd ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: identical installed views" seed)
              true
              (Replica.record_views nd.rep = Replica.record_views first.rep))
          rest
  done

let () =
  Alcotest.run "epoch"
    [
      ( "merge",
        [
          Alcotest.test_case "requires majority" `Quick test_needs_majority;
          Alcotest.test_case "duplicate report counts once" `Quick
            test_duplicate_reports_not_double_counted;
          Alcotest.test_case "duplicates do not reach majority" `Quick
            test_duplicate_reports_not_a_majority;
          Alcotest.test_case "reordered reports merge identically" `Quick
            test_reordered_reports_same_merge;
          Alcotest.test_case "rule 1: final outcome wins" `Quick test_rule1_final_wins;
          Alcotest.test_case "rule 2: latest accepted view" `Quick
            test_rule2_latest_accepted_view_wins;
          Alcotest.test_case "rule 3: majority validated" `Quick
            test_rule3_majority_validated;
          Alcotest.test_case "rule 4: fast-path candidate commits" `Quick
            test_rule4_fast_path_candidate_revalidated;
          Alcotest.test_case "rule 4: conflicting commit rejects candidate" `Quick
            test_rule4_candidate_conflicting_commit_aborts;
          Alcotest.test_case "rule 5: fallback abort" `Quick
            test_rule5_everything_else_aborts;
          Alcotest.test_case "output is all-final" `Quick test_merge_all_final;
          Alcotest.test_case "core partition preserved" `Quick
            test_merge_preserves_core_partition;
          Alcotest.test_case "sorted by timestamp" `Quick test_merge_sorted_by_timestamp;
        ] );
      ( "queue",
        [
          Alcotest.test_case "readmits a recovering replica" `Quick test_machine_readmits;
          Alcotest.test_case "lower id drives a tied epoch" `Quick test_machine_tie_break;
          Alcotest.test_case "install before any change" `Quick test_machine_install_first;
          Alcotest.test_case "duplicate install re-acked once installed" `Quick
            test_machine_duplicate_install;
          Alcotest.test_case "waiting peer resumes at its deadline" `Quick
            test_machine_peer_deadline;
          Alcotest.test_case "drop, duplicate, reorder sweep" `Quick (sweep [ 0 ]);
          (* A peer that reported to one initiator must not report to a
             second at the same epoch: both could reach a majority. *)
          Alcotest.test_case "sweep with two initiators" `Quick (sweep [ 0; 1 ]);
          Alcotest.test_case "reported peer acks the install's sender" `Quick
            test_machine_reported_peer;
        ] );
    ]
