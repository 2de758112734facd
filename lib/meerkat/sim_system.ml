module Engine = Mk_sim.Engine
module Network = Mk_net.Network
module Costs = Mk_model.Costs
module Intf = Mk_model.System_intf
module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Cluster = Mk_cluster.Cluster
module Obs = Mk_obs.Obs
module Span = Mk_obs.Span

type config = Cluster.config = {
  n_replicas : int;
  threads : int;
  n_clients : int;
  keys : int;
  transport : Mk_net.Transport.t;
  costs : Costs.t;
  clock_offset : float;
  clock_drift : float;
  seed : int;
}

let default_config = Cluster.default_config

(* --- Commit protocol (§5.2.2): validation + fast/slow path.

   The state machine itself lives in {!Protocol} (transport-agnostic,
   shared with the live runtime); an [attempt] binds one machine to
   this simulated deployment — the transaction payload, the steering
   target, and the continuation that runs the write phase. --- *)

type attempt = {
  txn : Txn.t;
  ts : Timestamp.t;
  core_id : int;
  track : int;
      (** Trace track (client id, from the tid) lifecycle spans land
          on; also the coordinator's identity for fault injection. *)
  proto : Protocol.t;
  count_stats : bool;
      (** False when driven by a multi-partition coordinator, which
          does its own accounting (§5.2.4). *)
  mutable on_decided : commit:bool -> fast:bool -> unit;
}

type t = {
  cluster : Cluster.t;
  quorum : Quorum.t;
  replicas : Replica.t array;
  inflight : (int, attempt list) Hashtbl.t;
      (** Undecided attempts per coordinator (client) id, so a
          coordinator crash can freeze and later resume them. *)
  coord_down : (int, unit) Hashtbl.t;
  down_until : float array;
      (** Earliest time a crashed replica can be reintegrated (models
          the machine reboot); indexed by replica. *)
  act_pool : Protocol.action Batch.Pool.t;
      (** Recycled emission batches for [Protocol.start]/[handle].
          Pooled (not a single scratch) because [on_decided] may
          synchronously start the next attempt while the outer batch
          is still being iterated. *)
}

let create ?obs engine cfg =
  let cluster = Cluster.create ?obs engine cfg in
  let quorum = Quorum.create ~n:cfg.n_replicas in
  let replicas =
    Array.init cfg.n_replicas (fun id ->
        Replica.create ~id ~quorum ~cores:cfg.threads)
  in
  Array.iter
    (fun r ->
      for key = 0 to cfg.keys - 1 do
        Replica.load r ~key ~value:0
      done)
    replicas;
  {
    cluster;
    quorum;
    replicas;
    inflight = Hashtbl.create 64;
    coord_down = Hashtbl.create 8;
    down_until = Array.make cfg.n_replicas 0.0;
    act_pool = Batch.Pool.create ();
  }

let engine t = t.cluster.Cluster.engine
let config t = t.cluster.Cluster.cfg
let replicas t = t.replicas
let name _ = "MEERKAT"
let threads t = t.cluster.Cluster.cfg.threads
let obs t = Cluster.obs t.cluster
let counters t = Cluster.counters t.cluster
let net t = t.cluster.Cluster.net
let network = net
let costs t = t.cluster.Cluster.cfg.costs
let core t r c = t.cluster.Cluster.cores.(r).(c)
let alive t r = not (Replica.is_crashed t.replicas.(r))
let coord_down t track = Hashtbl.mem t.coord_down track

let register_attempt t a =
  let l = Option.value ~default:[] (Hashtbl.find_opt t.inflight a.track) in
  Hashtbl.replace t.inflight a.track (a :: l)

let unregister_attempt t a =
  match Hashtbl.find_opt t.inflight a.track with
  | None -> ()
  | Some l -> begin
      match List.filter (fun x -> x != a) l with
      | [] -> Hashtbl.remove t.inflight a.track
      | l -> Hashtbl.replace t.inflight a.track l
    end

(* The fast-path grace base: a few RTTs. See [Protocol.params]. *)
let proto_params t =
  let tr = (config t).transport in
  let grace =
    (3.0 *. (tr.Mk_net.Transport.latency +. tr.Mk_net.Transport.jitter)) +. 2.0
  in
  {
    Protocol.n_replicas = Array.length t.replicas;
    quorum = t.quorum;
    rto = t.cluster.Cluster.rto;
    grace;
  }

let broadcast_commit t ~txn ~ts ~core_id ~track ~commit =
  let nwrites = if commit then Array.length txn.Txn.write_set else 0 in
  let cost = Costs.commit (costs t) ~nwrites in
  let sent_at = Engine.now (engine t) in
  Array.iteri
    (fun r replica ->
      if not (Replica.is_crashed replica) then
        Network.send_work_to_core (net t)
          ~link:(Network.Client track, Network.Replica r)
          ~dst:(core t r core_id) ~cost (fun () ->
            ignore (Replica.handle_commit replica ~core:core_id ~txn ~ts ~commit);
            (* Write-back latency as seen by replica [r]: from the
               asynchronous commit broadcast to the local apply. *)
            Obs.span (obs t) Span.Write_back ~pid:(Obs.replica_pid r)
              ~tid:core_id ~start:sent_at ()))
    t.replicas

(* The driver: performs the actions {!Protocol} emits, over the
   modelled network and engine. All protocol logic (quorum evaluation,
   slow-path entry, retransmission branching, dedup of replies) is in
   [Protocol.handle]; the driver owns what is deployment-specific —
   message costs, spans, stats, and coordinator crash injection (a
   down coordinator neither receives replies nor retransmits, gated
   here before any event reaches the machine). *)

let rec exec_action t a = function
  | Protocol.Send_validates { only_missing } -> send_validates t a ~only_missing
  | Protocol.Send_accepts { decision } -> send_accepts t a ~decision
  | Protocol.Arm_timer { timer; delay } -> arm_timer t a ~timer ~delay
  | Protocol.Note_validated ->
      (* Close the validation span: from the attempt's start to the
         moment a majority of validation replies is in hand (or the
         attempt moved on without one, e.g. learning a finalized
         status from a retransmission). *)
      Obs.span (obs t) Span.Validate ~tid:a.track
        ~start:(Protocol.started a.proto) ()
  | Protocol.Note_decided { commit; fast } ->
      (* The decision is reached: stop the attempt and report. The
         attempt's [on_decided] is responsible for the write phase
         (single-partition transactions broadcast commit immediately;
         a multi-partition coordinator first combines the partitions'
         outcomes). *)
      unregister_attempt t a;
      if fast then
        Obs.span (obs t) Span.Fast_quorum ~tid:a.track
          ~start:(Protocol.started a.proto) ()
      else if not (Float.is_nan (Protocol.accept_started a.proto)) then
        Obs.span (obs t) Span.Slow_accept ~tid:a.track
          ~start:(Protocol.accept_started a.proto) ();
      if a.count_stats then Cluster.note_decision t.cluster ~committed:commit ~fast;
      a.on_decided ~commit ~fast

and feed t a event =
  Batch.Pool.with_batch t.act_pool (fun into ->
      Protocol.handle a.proto ~now:(Engine.now (engine t)) event ~into;
      Batch.iter (exec_action t a) into)

and arm_timer t a ~timer ~delay =
  Engine.schedule (engine t) ~delay (fun () ->
      if not (Protocol.decided a.proto) then begin
        match timer with
        | Protocol.Fast_grace ->
            if not (coord_down t a.track) then feed t a (Protocol.Timer timer)
        | Protocol.Retransmit rto ->
            if coord_down t a.track then
              (* The coordinator process is down: no retransmissions.
                 The timer stays armed so the attempt resumes its
                 backoff schedule when the coordinator restarts. *)
              arm_timer t a ~timer ~delay:rto
            else begin
              Cluster.note_retransmit t.cluster ~rto ~tid:a.track;
              feed t a (Protocol.Timer timer)
            end
      end)

and send_accepts t a ~decision =
  Array.iteri
    (fun r replica ->
      if not (Replica.is_crashed replica) then
        Network.send_work_to_core (net t)
          ~link:(Network.Client a.track, Network.Replica r)
          ~dst:(core t r a.core_id)
          ~cost:((costs t).Costs.accept +. Cluster.tx_cpu t.cluster)
          (fun () ->
            match
              Replica.handle_accept replica ~core:a.core_id ~txn:a.txn ~ts:a.ts
                ~decision ~view:0
            with
            | None -> ()
            | Some reply ->
                Network.send_to_client (net t)
                  ~link:(Network.Replica r, Network.Client a.track)
                  (fun () ->
                    if not (coord_down t a.track) then
                      feed t a (Protocol.Accept_reply { replica = r; reply }))))
    t.replicas

and send_validates t a ~only_missing =
  let cost =
    Costs.validate (costs t) ~nkeys:(Txn.nkeys a.txn) +. Cluster.tx_cpu t.cluster
  in
  Array.iteri
    (fun r replica ->
      if ((not only_missing) || Protocol.needs_validate a.proto r)
         && not (Replica.is_crashed replica)
      then
        Network.send_to_core (net t)
          ~link:(Network.Client a.track, Network.Replica r)
          ~dst:(core t r a.core_id) ~cost (fun ~finish ->
            (match
               Replica.handle_validate replica ~core:a.core_id ~txn:a.txn ~ts:a.ts
             with
            | None -> ()
            | Some st ->
                Network.send_to_client (net t)
                  ~link:(Network.Replica r, Network.Client a.track)
                  (fun () ->
                    if not (coord_down t a.track) then
                      feed t a
                        (Protocol.Validate_reply { replica = r; status = st })));
            finish ()))
    t.replicas

let start_attempt t ~txn ~ts ~count_stats ~on_decided =
  let core_id = Timestamp.Tid.hash txn.Txn.tid mod threads t in
  Batch.Pool.with_batch t.act_pool (fun into ->
      let proto =
        Protocol.start (proto_params t) ~now:(Engine.now (engine t)) ~into
      in
      let a =
        {
          txn;
          ts;
          core_id;
          track = txn.Txn.tid.Timestamp.Tid.client_id;
          proto;
          count_stats;
          on_decided;
        }
      in
      register_attempt t a;
      Batch.iter (exec_action t a) into;
      a)

let finalize_txn t ~txn ~ts ~commit =
  broadcast_commit t ~txn ~ts
    ~core_id:(Timestamp.Tid.hash txn.Txn.tid mod threads t)
    ~track:txn.Txn.tid.Timestamp.Tid.client_id ~commit

let prepare_txn t ~txn ~ts ~on_prepared =
  ignore
    (start_attempt t ~txn ~ts ~count_stats:false ~on_decided:(fun ~commit ~fast ->
         ignore fast;
         on_prepared commit))

let fresh_txn_stamp t ~client =
  let ctx = t.cluster.Cluster.clients.(client) in
  (Cluster.fresh_tid t.cluster ctx, Cluster.fresh_timestamp t.cluster ctx)

let execute_reads t ~client ~keys k =
  let ctx = t.cluster.Cluster.clients.(client) in
  let read ~replica ~key = Replica.handle_get t.replicas.(replica) ~key in
  Array.iteri
    (fun i key ->
      Cluster.do_get t.cluster ctx ~key ~read ~alive:(alive t)
        (fun (value, wts) -> k i value wts))
    keys

let commit_txn t client ~read_set ~writes ~on_done =
  let tid = Cluster.fresh_tid t.cluster client in
  let write_set =
    List.map (fun (key, value) -> ({ key; value } : Txn.write_entry)) writes
  in
  let txn = Txn.make ~tid ~read_set ~write_set in
  let ts = Cluster.fresh_timestamp t.cluster client in
  ignore
    (start_attempt t ~txn ~ts ~count_stats:true ~on_decided:(fun ~commit ~fast ->
         ignore fast;
         finalize_txn t ~txn ~ts ~commit;
         (* The coordinator runs on the client machine, so handing the
            outcome to the application does not cross the (lossy)
            network; the write-phase commit message above is
            asynchronous (piggybacked in the paper). *)
         Engine.schedule (engine t) ~delay:0.0 (fun () ->
             on_done ~committed:commit)))

(* Interactive execute phase (client-side GETs), bracketed by an
   [Execute] span on the client's track. Write-only transactions have
   no execute phase, so no span. *)
let execute_phase t ctx ~keys k =
  let read ~replica ~key = Replica.handle_get t.replicas.(replica) ~key in
  let started = Engine.now (engine t) in
  Cluster.execute_reads t.cluster ctx ~keys ~read ~alive:(alive t)
    (fun read_set values ->
      if Array.length keys > 0 then
        Obs.span (Cluster.obs t.cluster) Span.Execute ~tid:ctx.Cluster.cid
          ~start:started ();
      k read_set values)

let submit t ~client (req : Intf.txn_request) ~on_done =
  let ctx = t.cluster.Cluster.clients.(client) in
  execute_phase t ctx ~keys:req.reads (fun read_set _values ->
      commit_txn t ctx ~read_set ~writes:(Array.to_list req.writes) ~on_done)

let submit_interactive t ~client ~reads ~compute ~on_done =
  let ctx = t.cluster.Cluster.clients.(client) in
  execute_phase t ctx ~keys:reads (fun read_set values ->
      let writes = Array.to_list (compute values) in
      commit_txn t ctx ~read_set ~writes ~on_done)

let read_committed t ~replica ~key =
  match Mk_storage.Vstore.find (Replica.vstore t.replicas.(replica)) key with
  | None -> None
  | Some e -> Some (fst (Mk_storage.Vstore.read_versioned e))

(* --- Fault injection. --- *)

let crash_replica ?(down_for = 0.0) t r =
  t.down_until.(r) <- Engine.now (engine t) +. down_for;
  Replica.crash t.replicas.(r)

(* Resume a frozen attempt after its coordinator restarts: re-fetch
   whatever is missing and re-evaluate. If a backup coordinator
   finished the transaction meanwhile, the retransmitted validates
   return the final status and the attempt learns the outcome. *)
let resume_attempt t a = feed t a Protocol.Resume

let crash_coordinator t ~client ~down_for =
  (* Prefer a coordinator that is actually mid-protocol (between
     validate and write): crashing an idle client exercises nothing. *)
  let victim =
    if Hashtbl.mem t.inflight client then client
    else begin
      let best = ref client in
      (try
         Hashtbl.iter
           (fun c attempts ->
             if attempts <> [] then begin
               best := c;
               raise Exit
             end)
           t.inflight
       with Exit -> ());
      !best
    end
  in
  if not (Hashtbl.mem t.coord_down victim) then begin
    Hashtbl.replace t.coord_down victim ();
    Engine.schedule (engine t) ~delay:down_for (fun () ->
        Hashtbl.remove t.coord_down victim;
        match Hashtbl.find_opt t.inflight victim with
        | None -> ()
        | Some attempts -> List.iter (resume_attempt t) attempts)
  end


(* --- Synchronous epoch change (test helper, §5.3.1). --- *)

let run_epoch_change t ~recovering = Epoch.run_sync t.replicas ~recovering

(* --- Message-driven epoch change (§5.3.1). ---

   CPU costs (µs) for the recovery path; these are cold-path constants
   kept local rather than in {!Costs} (they never affect steady-state
   figures, only the length of the availability gap measured by the
   recovery bench/test). *)

let epoch_gather_base = 2.0
let epoch_per_record = 0.05
let epoch_merge_per_record = 0.2
let epoch_install_base = 2.0
let epoch_install_per_record = 0.1
let epoch_snapshot_per_row = 0.005

type epoch_state = {
  epoch : int;
  coordinator : int;
  targets : int list;  (** All replicas that must install. *)
  recovering : int list;
  reports : (int, Epoch.report) Hashtbl.t;
  mutable merged : (int * Replica.record_view) list option;
  mutable installed : (int, unit) Hashtbl.t option;  (* None until merge *)
  mutable finished : bool;
}

let trigger_epoch_change ?(max_rto = Float.infinity) t ~recovering ~on_complete =
  let n = Array.length t.replicas in
  let healthy r =
    (not (Replica.is_crashed t.replicas.(r))) && not (List.mem r recovering)
  in
  let healthy_ids = List.filter healthy (List.init n (fun r -> r)) in
  if List.length healthy_ids < Quorum.majority t.quorum then
    Engine.schedule (engine t) ~delay:0.0 (fun () -> on_complete ~success:false)
  else begin
    List.iter (fun id -> Replica.begin_recovery t.replicas.(id)) recovering;
    let base_epoch =
      1 + Array.fold_left (fun acc r -> max acc (Replica.epoch r)) 0 t.replicas
    in
    (* The (epoch mod n)th replica coordinates; skip over replicas that
       cannot (crashed or themselves recovering) by bumping the epoch,
       the standard liveness trick. *)
    let rec pick epoch = if healthy (epoch mod n) then epoch else pick (epoch + 1) in
    let epoch = pick base_epoch in
    let coordinator = epoch mod n in
    let st =
      {
        epoch;
        coordinator;
        targets = healthy_ids @ recovering;
        recovering;
        reports = Hashtbl.create 8;
        merged = None;
        installed = None;
        finished = false;
      }
    in
    let coord_core = core t coordinator 0 in
    let record_count records = List.length records in
    let finish ~success =
      if not st.finished then begin
        st.finished <- true;
        if success then Obs.note_epoch_change (obs t);
        on_complete ~success
      end
    in
    (* Phase 2: install the merged trecord everywhere; the recovering
       replicas additionally receive a store snapshot taken from the
       coordinator after its own install. *)
    let send_complete merged snapshot target =
      let is_recovering = List.mem target st.recovering in
      let store = if is_recovering then Some snapshot else None in
      let cost =
        epoch_install_base
        +. (epoch_install_per_record *. float_of_int (record_count merged))
        +. (if is_recovering then
              epoch_snapshot_per_row *. float_of_int (List.length snapshot)
            else 0.0)
      in
      Network.send_work_to_core (net t)
        ~link:(Network.Replica st.coordinator, Network.Replica target)
        ~dst:(core t target 0) ~cost (fun () ->
          match
            Replica.handle_epoch_complete t.replicas.(target) ~epoch:st.epoch
              ~records:merged ~store
          with
          | None -> ()
          | Some () ->
              Network.send_to_client (net t)
                ~link:(Network.Replica target, Network.Replica st.coordinator)
                (fun () ->
                  match st.installed with
                  | None -> ()
                  | Some table ->
                      Hashtbl.replace table target ();
                      if
                        (not st.finished)
                        && Hashtbl.length table >= List.length st.targets
                      then finish ~success:true))
    in
    let do_merge () =
      if st.merged = None then begin
        let reports = Hashtbl.fold (fun _ r acc -> r :: acc) st.reports [] in
        let merged = Epoch.merge ~quorum:t.quorum ~reports in
        st.merged <- Some merged;
        st.installed <- Some (Hashtbl.create 8);
        let merge_cost =
          epoch_merge_per_record *. float_of_int (record_count merged)
        in
        Mk_sim.Core.submit_work coord_core ~cost:merge_cost (fun () ->
            (* Coordinator installs first so the snapshot reflects the
               merged commits. *)
            (match
               Replica.handle_epoch_complete t.replicas.(st.coordinator)
                 ~epoch:st.epoch ~records:merged ~store:None
             with
            | Some () -> begin
                match st.installed with
                | Some table -> Hashtbl.replace table st.coordinator ()
                | None -> ()
              end
            | None -> ());
            let snapshot = Replica.store_snapshot t.replicas.(st.coordinator) in
            List.iter
              (fun target ->
                if target <> st.coordinator then send_complete merged snapshot target)
              st.targets)
      end
    in
    (* Phase 1: gather trecords from the healthy replicas. *)
    let send_gather target =
      Network.send_to_core (net t)
        ~link:(Network.Replica st.coordinator, Network.Replica target)
        ~dst:(core t target 0)
        ~cost:
          (epoch_gather_base
          +. (epoch_per_record
             *. float_of_int
                  (Mk_storage.Trecord.size (Replica.trecord t.replicas.(target)))))
        (fun ~finish ->
          let replica = t.replicas.(target) in
          let records =
            match Replica.handle_epoch_change replica ~epoch:st.epoch with
            | Some _ -> Some (Replica.record_views replica)
            | None ->
                (* Duplicate request for the epoch we already joined:
                   replying again keeps the gather idempotent. *)
                if (not (Replica.is_crashed replica)) && Replica.epoch replica = st.epoch
                then Some (Replica.record_views replica)
                else None
          in
          (match records with
          | None -> ()
          | Some records ->
              let reply_cost =
                epoch_gather_base
                +. (epoch_per_record *. float_of_int (List.length records))
              in
              Network.send_work_to_core (net t)
                ~link:(Network.Replica target, Network.Replica st.coordinator)
                ~dst:coord_core ~cost:reply_cost
                (fun () ->
                  if st.merged = None then begin
                    Hashtbl.replace st.reports target
                      { Epoch.replica = target; records };
                    if Hashtbl.length st.reports >= Quorum.majority t.quorum then
                      do_merge ()
                  end));
          finish ())
    in
    List.iter send_gather healthy_ids;
    (* Retransmission: re-gather from missing reporters, or re-send
       completes to replicas that have not installed. Bounded by
       [max_rto]: when a partition keeps some target unreachable the
       change gives up rather than retrying forever — the run counts
       as a success if a majority installed (the system serves), and
       the replicas left behind stay paused until a later epoch change
       reintegrates them (the failure detector sees them as paused and
       arranges exactly that). *)
    let rec retry ~rto =
      Engine.schedule (engine t) ~delay:rto (fun () ->
          if not st.finished then begin
            if rto > max_rto then begin
              let success =
                match st.installed with
                | Some table -> Hashtbl.length table >= Quorum.majority t.quorum
                | None -> false
              in
              finish ~success
            end
            else begin
              (match (st.merged, st.installed) with
              | Some merged, Some table ->
                  let snapshot = Replica.store_snapshot t.replicas.(st.coordinator) in
                  List.iter
                    (fun target ->
                      if not (Hashtbl.mem table target) then
                        send_complete merged snapshot target)
                    st.targets
              | _ ->
                  List.iter
                    (fun target ->
                      if not (Hashtbl.mem st.reports target) then send_gather target)
                    healthy_ids);
              retry ~rto:(rto *. 2.0)
            end
          end)
    in
    retry ~rto:t.cluster.Cluster.rto
  end

(* --- Failure detectors (the robustness layer). ---

   The detection logic — who suspects whom, which records are stuck,
   who initiates — lives in {!Detector} (transport-agnostic, shared
   with the live runtime). This driver owns what is
   deployment-specific: scheduling heartbeat/scan ticks on engine
   time, carrying heartbeats over the real (faulty) network, and
   running the recovery protocols the detector asks for over the
   simulated transport. *)

type detector_cfg = Detector.cfg = {
  heartbeat_every : float;
  heartbeat_timeout : float;
  pause_timeout : float;
  stuck_timeout : float;
  scan_every : float;
  epoch_cooldown : float;
  give_up_after : float;
}

let default_detector_cfg = Detector.default_cfg

let start_detectors ?(cfg = default_detector_cfg) t ~until () =
  let n = Array.length t.replicas in
  let now () = Engine.now (engine t) in
  let detector = Detector.create ~cfg ~n ~now:(now ()) in
  let det_pool : Detector.action Batch.Pool.t = Batch.Pool.create () in
  (* Heartbeats travel the real (faulty) network, so a partitioned
     replica goes silent exactly like a crashed one. *)
  let rec hb_loop r =
    if now () <= until then begin
      if not (Replica.is_crashed t.replicas.(r)) then begin
        let paused = Replica.is_paused t.replicas.(r) in
        for p = 0 to n - 1 do
          if p <> r then
            Network.send_to_client (net t)
              ~link:(Network.Replica r, Network.Replica p)
              (fun () ->
                if not (Replica.is_crashed t.replicas.(p)) then
                  Detector.heartbeat_received detector ~now:(now ()) ~observer:p
                    ~from_:r ~paused)
        done
      end;
      Engine.schedule (engine t) ~delay:cfg.heartbeat_every (fun () -> hb_loop r)
    end
  in
  (* The §5.3.2 view changes: {!View_change} decides, this driver
     carries its messages over the modelled network (skipping crashed
     replicas) and arms one engine event per retry. *)
  let vcs = View_change.create ~n in
  let vc_pool : View_change.action Batch.Pool.t = Batch.Pool.create () in
  (* One request from observer [o] to replica [r], on [tid]'s core; a
     crashed replica is sent nothing, an answer travels back to [o]. *)
  let vc_request ~o ~r ~tid ~cost handle answer =
    let replica = t.replicas.(r) in
    let core_id = Timestamp.Tid.hash tid mod threads t in
    if not (Replica.is_crashed replica) then
      Network.send_work_to_core (net t)
        ~link:(Network.Replica o, Network.Replica r)
        ~dst:(core t r core_id) ~cost (fun () ->
          match handle replica ~core:core_id with
          | None -> ()
          | Some reply ->
              Network.send_to_client (net t)
                ~link:(Network.Replica r, Network.Replica o)
                (fun () -> answer reply))
  in
  let rec vc_feed : 'a. (into:View_change.action Batch.t -> 'a) -> 'a =
   fun f ->
    Batch.Pool.with_batch vc_pool (fun into ->
        let r = f ~into in
        Batch.iter vc_perform into;
        r)
  and vc_perform = function
    | View_change.Coord_change { replica = r; observer = o; tid; view } ->
        vc_request ~o ~r ~tid ~cost:epoch_gather_base
          (fun replica ~core -> Replica.handle_coord_change replica ~core ~tid ~view)
          (fun reply ->
            vc_feed
              (View_change.coord_reply vcs ~tid ~observer:o ~view ~replica:r reply))
    | View_change.Vc_accept { replica = r; observer = o; txn; ts; decision; view } ->
        let tid = txn.Txn.tid in
        vc_request ~o ~r ~tid ~cost:(costs t).Costs.accept
          (fun replica ~core ->
            Replica.handle_accept replica ~core ~txn ~ts ~decision ~view)
          (fun reply ->
            vc_feed
              (View_change.accept_reply vcs ~tid ~observer:o ~view ~replica:r reply))
    | View_change.Write_back { observer = o; txn; ts; commit } ->
        let core_id = Timestamp.Tid.hash txn.Txn.tid mod threads t in
        let nwrites = if commit then Array.length txn.Txn.write_set else 0 in
        Array.iteri
          (fun r replica ->
            if not (Replica.is_crashed replica) then
              Network.send_work_to_core (net t)
                ~link:(Network.Replica o, Network.Replica r)
                ~dst:(core t r core_id)
                ~cost:(Costs.commit (costs t) ~nwrites)
                (fun () ->
                  ignore
                    (Replica.handle_commit replica ~core:core_id ~txn ~ts ~commit)))
          t.replicas
    | View_change.Done { tid; observer; outcome } ->
        Detector.view_change_finished detector ~now:(now ()) ~observer ~tid ~outcome;
        if outcome = `Finished then Obs.note_view_change (obs t)
  in
  let rec vc_retry tid ~delay =
    Engine.schedule (engine t) ~delay (fun () ->
        match vc_feed (View_change.timer vcs ~now:(now ()) ~tid) with
        | Some delay -> vc_retry tid ~delay
        | None -> ())
  in
  let perform = function
    | Detector.Start_view_change { observer; record; view } ->
        let rto = t.cluster.Cluster.rto in
        vc_feed
          (View_change.start vcs ~observer ~record ~view ~rto
             ~deadline:(now () +. cfg.give_up_after) ~now:(now ()));
        (* Retransmit whichever phase is pending until the deadline,
           then abandon (the scanner retries at a higher view). *)
        vc_retry record.Mk_storage.Trecord.txn.Txn.tid ~delay:rto
    | Detector.Start_epoch_change { recovering } ->
        trigger_epoch_change ~max_rto:cfg.give_up_after t ~recovering
          ~on_complete:(fun ~success ->
            Detector.epoch_change_finished detector ~now:(now ()) ~success
              ~recovering)
  in
  let rec scan_loop o =
    if now () <= until then begin
      (if not (Replica.is_crashed t.replicas.(o)) then
         let rep = t.replicas.(o) in
         Batch.Pool.with_batch det_pool (fun into ->
             Detector.scan detector ~now:(now ()) ~observer:o
               ~paused:(Replica.is_paused rep)
               ~available:(Replica.is_available rep)
               ~records:(fun () ->
                 List.map snd (Mk_storage.Trecord.entries (Replica.trecord rep)))
               ~recoverable:(fun p ->
                 (not (Replica.is_crashed t.replicas.(p)))
                 || now () >= t.down_until.(p))
               ~into;
             Batch.iter perform into));
      Engine.schedule (engine t) ~delay:cfg.scan_every (fun () -> scan_loop o)
    end
  in
  for r = 0 to n - 1 do
    Engine.schedule (engine t)
      ~delay:(float_of_int r *. cfg.heartbeat_every /. float_of_int n)
      (fun () -> hb_loop r);
    Engine.schedule (engine t)
      ~delay:(cfg.scan_every /. 2.0
             +. (float_of_int r *. cfg.scan_every /. float_of_int n))
      (fun () -> scan_loop r)
  done

let server_busy_fraction t = Cluster.server_busy_fraction t.cluster
