(* The failure detectors (§5.3), as a pure state machine.

   Like [Protocol], this module holds every decision and none of the
   transport: drivers feed it heartbeat arrivals and periodic scan
   ticks, and it answers with the recovery actions to start — a
   §5.3.2 view change for a stuck record, or a §5.3.1 epoch change
   for a suspected replica set. The simulator schedules the ticks on
   engine time and carries heartbeats over the modelled (faulty)
   network; the live monitor and the cluster node drive it through
   [Supervisor] on wall-clock time. No backend owns any detector
   state, so all make the same decisions from the same observations.

   Two detectors share the state:

   - the heartbeat detector: every replica pings its peers; silence
     beyond [heartbeat_timeout] (crash or partition), or a peer
     reporting itself paused longer than [pause_timeout] (an epoch
     change that lost its coordinator), makes the observer suspect
     the peer. The lowest-numbered replica that suspects no lower
     replica initiates the epoch change, so detectors do not duel.

   - the stuck-record scanner: each replica watches its own trecord
     for entries sitting in a non-final state past [stuck_timeout] —
     the signature of a coordinator that crashed between validate and
     write — and starts the backup-coordinator view change for them. *)

module Timestamp = Mk_clock.Timestamp
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord

type cfg = {
  heartbeat_every : float;
  heartbeat_timeout : float;
  pause_timeout : float;
  stuck_timeout : float;
  scan_every : float;
  epoch_cooldown : float;
  give_up_after : float;
}

let default_cfg =
  {
    heartbeat_every = 300.0;
    heartbeat_timeout = 1500.0;
    pause_timeout = 4000.0;
    stuck_timeout = 4000.0;
    scan_every = 500.0;
    epoch_cooldown = 3000.0;
    give_up_after = 8000.0;
  }

type action =
  | Start_view_change of {
      observer : int;
      record : Trecord.entry;
      view : int;
    }
  | Start_epoch_change of { recovering : int list }

type t = {
  cfg : cfg;
  n : int;
  hb_last : float array array;
      (** [hb_last.(o).(p)]: when observer [o] last heard from peer
          [p]. *)
  paused_since : float array array;
      (** Since when [p] has been reporting itself paused to [o]
          (NaN = not paused as far as [o] knows). *)
  self_paused_since : float array;
  first_seen : float Timestamp.Tid.Table.t array;
      (** Per observer: when its scanner first saw each non-final
          record. *)
  vc_inflight : unit Timestamp.Tid.Table.t;
      (** Transactions currently driven by a backup coordinator —
          shared across observers so scanners do not duel either. *)
  mutable ec_inflight : bool;
  mutable ec_cooldown_until : float;
}

let create ~cfg ~n ~now =
  {
    cfg;
    n;
    hb_last = Array.init n (fun _ -> Array.make n now);
    paused_since = Array.init n (fun _ -> Array.make n Float.nan);
    self_paused_since = Array.make n Float.nan;
    first_seen = Array.init n (fun _ -> Timestamp.Tid.Table.create 256);
    vc_inflight = Timestamp.Tid.Table.create 64;
    ec_inflight = false;
    ec_cooldown_until = 0.0;
  }

let heartbeat_received t ~now ~observer ~from_ ~paused =
  t.hb_last.(observer).(from_) <- now;
  if paused then begin
    if Float.is_nan t.paused_since.(observer).(from_) then
      t.paused_since.(observer).(from_) <- now
  end
  else t.paused_since.(observer).(from_) <- Float.nan

(* Exposed as [suspected] so a driver can report which peers an
   observer currently considers failed — the cluster backend's nodes
   surface this in their exit stats (a SIGKILLed peer shows up here
   even though, with no reboot path yet, no epoch change follows). *)
let suspects t ~now o =
  List.filter
    (fun p ->
      p <> o
      && (now -. t.hb_last.(o).(p) > t.cfg.heartbeat_timeout
         || ((not (Float.is_nan t.paused_since.(o).(p)))
            && now -. t.paused_since.(o).(p) > t.cfg.pause_timeout)))
    (List.init t.n (fun p -> p))

let maybe_epoch_change t ~now o ~recoverable =
  if t.ec_inflight || now < t.ec_cooldown_until then None
  else begin
    let sus = suspects t ~now o in
    let self_stuck =
      (not (Float.is_nan t.self_paused_since.(o)))
      && now -. t.self_paused_since.(o) > t.cfg.pause_timeout
    in
    let sus = if self_stuck then sus @ [ o ] else sus in
    (* Only the lowest-numbered replica that does not suspect any
       lower replica initiates, so detectors do not duel. *)
    let initiator =
      List.for_all (fun p -> p >= o || List.mem p sus) (List.init t.n (fun p -> p))
    in
    (* A crashed machine can only be reintegrated once it has
       rebooted; partitioned or stuck-paused replicas reintegrate
       through state transfer immediately. *)
    let recovering = List.filter recoverable sus in
    if initiator && recovering <> [] then begin
      t.ec_inflight <- true;
      Some (Start_epoch_change { recovering })
    end
    else None
  end

let scan t ~now ~observer:o ~paused ~available ~records ~recoverable ~into =
  (* Track our own paused state so a replica stranded by a failed
     epoch change can ask to be reintegrated. *)
  if paused then begin
    if Float.is_nan t.self_paused_since.(o) then t.self_paused_since.(o) <- now
  end
  else t.self_paused_since.(o) <- Float.nan;
  if available then
    List.iter
      (fun (e : Trecord.entry) ->
        let tid = e.txn.Txn.tid in
        match e.status with
        | Txn.Committed | Txn.Aborted -> Timestamp.Tid.Table.remove t.first_seen.(o) tid
        | Txn.Validated_ok | Txn.Validated_abort | Txn.Accepted_commit
        | Txn.Accepted_abort -> begin
            match Timestamp.Tid.Table.find_opt t.first_seen.(o) tid with
            | None -> Timestamp.Tid.Table.add t.first_seen.(o) tid now
            | Some since ->
                if
                  now -. since > t.cfg.stuck_timeout
                  && not (Timestamp.Tid.Table.mem t.vc_inflight tid)
                then begin
                  Timestamp.Tid.Table.replace t.vc_inflight tid ();
                  (* The smallest view above the record's current one
                     that this replica proposes for: view v is owned by
                     replica (v mod n). *)
                  let rec pick v = if v mod t.n = o then v else pick (v + 1) in
                  Batch.emit into
                    (Start_view_change
                       { observer = o; record = e; view = pick (e.view + 1) })
                end
          end)
      (records ());
  match maybe_epoch_change t ~now o ~recoverable with
  | Some a -> Batch.emit into a
  | None -> ()

let epoch_change_finished t ~now ~success ~recovering =
  t.ec_inflight <- false;
  t.ec_cooldown_until <- now +. t.cfg.epoch_cooldown;
  if success then
    (* Fresh grace period for the reintegrated replicas, so stale
       silence does not immediately re-suspect them. *)
    List.iter
      (fun p ->
        t.self_paused_since.(p) <- Float.nan;
        for o = 0 to t.n - 1 do
          t.hb_last.(o).(p) <- now;
          t.paused_since.(o).(p) <- Float.nan
        done)
      recovering

let view_change_finished t ~now ~observer ~tid ~outcome =
  Timestamp.Tid.Table.remove t.vc_inflight tid;
  match outcome with
  | `Finished -> Timestamp.Tid.Table.remove t.first_seen.(observer) tid
  | `Abandoned ->
      (* Restart the stuck clock: if the record is still not final the
         scanner will retry, at a higher view. *)
      Timestamp.Tid.Table.replace t.first_seen.(observer) tid now

let view_change_inflight t tid = Timestamp.Tid.Table.mem t.vc_inflight tid
let suspected t ~now ~observer = suspects t ~now observer
