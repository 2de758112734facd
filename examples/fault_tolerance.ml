(* Failure handling walk-through (§5.3): replica crash and recovery
   via the epoch-change protocol, and coordinator failure handled by a
   backup coordinator.

   Run with: dune exec examples/fault_tolerance.exe *)

module Engine = Mk_sim.Engine
module Intf = Mk_model.System_intf
module Meerkat = Mk_meerkat.Sim_system
module Replica = Mk_meerkat.Replica
module View_change = Mk_meerkat.View_change
module Batch = Mk_meerkat.Batch
module Quorum = Mk_meerkat.Quorum
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn

let step = ref 0

let say fmt =
  incr step;
  Format.printf "@.%d. " !step;
  Format.printf fmt

let () =
  let engine = Engine.create ~seed:21 () in
  let cfg = { Meerkat.default_config with threads = 2; n_clients = 4; keys = 64 } in
  let sys = Meerkat.create engine cfg in

  say "Committing 20 transactions on a healthy 3-replica cluster.@.";
  let committed = ref 0 in
  for i = 1 to 20 do
    Meerkat.submit sys ~client:(i mod 4)
      { Intf.reads = [| i |]; writes = [| (i, i * 10) |] }
      ~on_done:(fun ~committed:ok -> if ok then incr committed)
  done;
  Engine.run engine;
  Format.printf "   %d/20 committed; all on the fast path.@." !committed;

  say "Replica 2 crashes (fail-stop, no stable storage: state is gone).@.";
  Meerkat.crash_replica sys 2;

  say "The cluster keeps processing with a majority (slow path only).@.";
  let during = ref 0 in
  for i = 21 to 30 do
    Meerkat.submit sys ~client:(i mod 4)
      { Intf.reads = [| i |]; writes = [| (i, i * 10) |] }
      ~on_done:(fun ~committed:ok -> if ok then incr during)
  done;
  Engine.run engine;
  let counters = Meerkat.counters sys in
  Format.printf "   %d/10 committed while degraded (%d slow-path decisions).@."
    !during counters.Intf.slow_path;

  say
    "Replica 2 restarts empty and rejoins through the epoch-change protocol:@.\
  \   replicas pause validation, a recovery coordinator merges their trecords,@.\
  \   and the recovering replica receives a store snapshot.@.";
  let ok = Meerkat.run_epoch_change sys ~recovering:[ 2 ] in
  Format.printf "   epoch change %s; replica 2 is at epoch %d.@."
    (if ok then "succeeded" else "FAILED")
    (Replica.epoch (Meerkat.replicas sys).(2));
  (match Meerkat.read_committed sys ~replica:2 ~key:25 with
  | Some v -> Format.printf "   replica 2 recovered key 25 = %d (state transfer).@." v
  | None -> Format.printf "   replica 2 missing key 25!@.");

  say "Full-strength cluster again: fast path returns.@.";
  let fast_before = (Meerkat.counters sys).Intf.fast_path in
  let post = ref 0 in
  for i = 31 to 40 do
    Meerkat.submit sys ~client:(i mod 4)
      { Intf.reads = [| i |]; writes = [| (i, i * 10) |] }
      ~on_done:(fun ~committed:ok -> if ok then incr post)
  done;
  Engine.run engine;
  Format.printf "   %d/10 committed, %d on the fast path.@." !post
    ((Meerkat.counters sys).Intf.fast_path - fast_before);

  (* --- Coordinator failure (§5.3.2): the backup coordinator's
     machine ({!View_change}) driven by hand, every message delivered
     at once at the replica API, so the sequence is visible. --- *)
  say
    "A transaction coordinator dies mid-commit: it validated at replicas 0@.\
  \   and 1, then vanished without deciding.@.";
  let replicas = Meerkat.replicas sys in
  let quorum = Quorum.create ~n:3 in
  let orphan =
    Txn.make
      ~tid:(Timestamp.Tid.make ~seq:999 ~client_id:77)
      ~read_set:[ { key = 50; wts = Timestamp.zero } ]
      ~write_set:[ { key = 50; value = 5050 } ]
  in
  let core = 0 in
  let ts = Timestamp.make ~time:1e9 ~client_id:77 in
  ignore (Replica.handle_validate replicas.(0) ~core ~txn:orphan ~ts);
  ignore (Replica.handle_validate replicas.(1) ~core ~txn:orphan ~ts);

  say
    "Replica 1 notices the stalled transaction and starts a view change;@.\
  \   the view-1 backup coordinator polls a majority (Paxos-style prepare).@.";
  let vcs = View_change.create ~n:3 in
  let acts = Batch.create () in
  let acks = ref 0 and chosen = ref false in
  let perform = function
    | View_change.Coord_change { replica; observer; tid; view } -> (
        match Replica.handle_coord_change replicas.(replica) ~core ~tid ~view with
        | Some reply ->
            View_change.coord_reply vcs ~tid ~observer ~view ~replica reply ~into:acts
        | None -> ())
    | View_change.Vc_accept { replica; observer; txn; ts; decision; view } -> (
        if not !chosen then begin
          chosen := true;
          Format.printf
            "   outcome selection says: %s (two VALIDATED-OK replies mean@."
            (match decision with `Commit -> "COMMIT" | `Abort -> "ABORT");
          Format.printf "   the fast path may already have committed — commit is the@.";
          Format.printf "   only safe choice).@.";
          say "The backup coordinator drives the slow path at view 1 and commits.@."
        end;
        match
          Replica.handle_accept replicas.(replica) ~core ~txn ~ts ~decision ~view
        with
        | Some reply ->
            if reply = `Accepted then incr acks;
            View_change.accept_reply vcs ~tid:txn.Txn.tid ~observer ~view ~replica
              reply ~into:acts
        | None -> ())
    | View_change.Write_back { txn; ts; commit; _ } ->
        Format.printf "   accept acks: %d (need %d).@." !acks (Quorum.majority quorum);
        Array.iter
          (fun r -> ignore (Replica.handle_commit r ~core ~txn ~ts ~commit))
          replicas
    | View_change.Done _ -> ()
  in
  (* View 1 belongs to replica 1 (view mod n). *)
  View_change.start vcs ~observer:1
    ~record:
      { Mk_storage.Trecord.txn = orphan; ts; status = Txn.Validated_ok; view = 0;
        accept_view = None }
    ~view:1 ~rto:1.0 ~deadline:infinity ~now:0.0 ~into:acts;
  (* Replies emit into the batch being iterated; iteration visits them. *)
  Batch.iter perform acts;
  (match Meerkat.read_committed sys ~replica:2 ~key:50 with
  | Some v -> Format.printf "   key 50 = %d on every replica.@." v
  | None -> Format.printf "   key 50 missing!@.");

  say "The original coordinator, if it comes back, is fenced by the view:@.";
  (match
     Replica.handle_accept replicas.(0) ~core ~txn:orphan ~ts ~decision:`Abort
       ~view:0
   with
  | Some (`Stale v) -> Format.printf "   its view-0 accept is rejected (stale, view=%d).@." v
  | Some (`Finalized st) ->
      Format.printf "   replica already finalized: %s.@." (Txn.status_to_string st)
  | Some `Accepted -> Format.printf "   UNEXPECTED: view-0 accept succeeded!@."
  | None -> Format.printf "   replica unavailable.@.");

  Format.printf "@.Done: both failure modes recovered without blocking the rest@.";
  Format.printf "of the system — only the affected transaction saw extra rounds.@."
