(* The live runtime: the full Meerkat commit protocol on real OCaml 5
   domains, for one shard group or many.

   Topology: per shard group, [server_domains] server domains; plus
   [coordinators] coordinator domains shared by every group; each
   domain owns one {!Mailbox}. Server domain [k] of a group hosts core
   [k] of every replica of that group — a transaction steered to core
   [k] (by [Tid.hash mod server_domains], the same steering the
   simulator uses) has its validate/accept/write-back handled for all
   replicas by that one domain, against each replica's own core-[k]
   trecord partition. Coordinator domains run the clients: each holds
   one {!Mk_meerkat.Attempts} table (the {!Mk_meerkat.Protocol} state
   machine the simulator executes, one attempt per involved group) and
   one {!Mk_shard.Driver} (the client-side cross-shard 2PC of paper
   §5.2.4), and turns the table's broadcasts into mailbox pushes — the
   same coordinator code as the cluster client. A one-group run is the
   S = 1 case: every key lives in group 0, so each transaction is one
   attempt, written back once it decides.

   Zero-coordination: the only cross-domain mutable state on the
   transaction fast path is the mailboxes themselves (and the
   storage layer's own sanctioned entry locks). Coordinators share
   nothing with each other — per-coordinator RNG, workload,
   retransmit count, attempt table, latency histogram, and committed
   sub-histories, merged only after join. Nothing is shared between
   groups at all: the coordinator is the only cross-group party.

   Deadlock freedom: producers block (spin) on a full mailbox, so a
   cycle of full queues must not form. Server inboxes can fill — their
   producers (coordinators) keep draining their own inboxes only
   between pushes, but a server drains continuously unless *it* is
   blocked pushing a reply. Reply traffic is bounded: a coordinator
   with [m] local clients has at most [m] transactions in flight, each
   with at most one attempt per involved group and one outstanding
   request per replica per retransmission round, so a coordinator
   inbox of [coord_inbox] >= a few times [m * n_replicas * shards] can
   never be full when a server pushes — the server never blocks, so
   every cycle contains a non-blocking node. {!run} enforces that
   bound.

   Chaos mode ([config.chaos], one group only): the same topology plus
   one monitor domain hosting the transport-agnostic
   {!Mk_meerkat.Detector} and {!Mk_meerkat.View_change}. Every cross-domain message routes through
   {!Link} (the wall-clock verdict of the run's nemesis plan); server
   domains gain heartbeat agents and trecord snapshots for the
   detector; the monitor injects the plan's crashes, carries the §5.3.2
   view changes' messages over the same mailboxes, and runs §5.3.1
   epoch changes ({!Mk_meerkat.Epoch.run_sync}) under a freeze
   handshake. Chaos-mode deadlock freedom is simpler and stricter:
   every chaos-path push is a [try_push] whose failure counts as a
   link drop (retransmission recovers it), so no chaos-mode producer
   ever blocks. The only
   blocking chaos push is a server's [Mon_frozen] ack, sent exactly
   when the monitor is draining its inbox waiting for it.

   Chaos-mode shutdown is a rendezvous, not a deadline: a coordinator
   may still be retransmitting past the horizon (e.g. an attempt whose
   record a backup view change touched and then abandoned — its accept
   retries answer [`Stale] until a fresh view change finishes it), so
   each coordinator pushes [Mon_coord_done] when its clients are done
   and the monitor keeps scanning and driving recovery until the
   settle deadline has passed AND every coordinator has reported in.
   Server heartbeats and snapshots likewise run until [Stop], feeding
   those late scans. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord
module Intf = Mk_model.System_intf
module Network = Mk_net.Network
module Nemesis = Mk_fault.Nemesis
module Verdict = Mk_fault.Verdict
module Quorum = Mk_meerkat.Quorum
module Batch = Mk_meerkat.Batch
module Protocol = Mk_meerkat.Protocol
module Replica = Mk_meerkat.Replica
module Detector = Mk_meerkat.Detector
module View_change = Mk_meerkat.View_change
module Epoch = Mk_meerkat.Epoch
module Attempts = Mk_meerkat.Attempts
module Workload = Mk_workload.Workload
module Router = Mk_shard.Router
module History = Mk_shard.History
module Histogram = Mk_util.Histogram
module Wal = Mk_durable.Wal
module Walcodec = Mk_durable.Walcodec
module Dsnapshot = Mk_durable.Snapshot
module Recover = Mk_durable.Recover
module Checkpoint = Mk_durable.Checkpoint

type workload_kind = Ycsb_t | Rmw_pair | Retwis

type durable = { dir : string; policy : Wal.policy }

type chaos = {
  plan : Nemesis.plan;
  detector : Detector.cfg;
  horizon_us : float;
  settle_us : float;
}

type config = {
  shards : int;
  policy : Router.policy;
  server_domains : int;
  n_replicas : int;
  coordinators : int;
  clients : int;
  keys : int;
  theta : float;
  workload : workload_kind;
  cross : float;
  txns_per_client : int;
  duration : float option;
  offered_rate : float option;
  seed : int;
  rto_us : float;
  grace_us : float;
  server_inbox : int;
  coord_inbox : int;
  chaos : chaos option;
  durable : durable option;
}

let default_config =
  {
    shards = 1;
    policy = Router.Mod;
    server_domains = 2;
    n_replicas = 3;
    coordinators = 2;
    clients = 8;
    keys = 1024;
    theta = 0.6;
    workload = Ycsb_t;
    cross = 0.1;
    txns_per_client = 50;
    duration = None;
    offered_rate = None;
    seed = 42;
    (* Mailboxes do not lose messages, so the retransmission timer is
       a pure safety net: generous enough never to fire on a loaded
       box. The fast-grace timer is the one that matters live — it
       bounds how long a coordinator waits for fast-quorum stragglers
       before settling for the slow path. *)
    rto_us = 200_000.0;
    grace_us = 5_000.0;
    server_inbox = 1024;
    coord_inbox = 4096;
    chaos = None;
    durable = None;
  }

(* --- Per-(replica, core) durable files (DESIGN.md §12). ---

   Server domain [k] owns core [k] of every replica, so file
   [r<r>-c<k>.wal] has a single writer: the hook's [Finalized {core}]
   fires inside that core's handler. [Installed] fires only from the
   monitor's epoch change while every server domain is parked on its
   control mailbox, so the full-state snapshots it writes race with
   nothing. *)

let durable_wal_path ~dir ~replica ~core =
  Filename.concat dir (Printf.sprintf "r%d-c%d.wal" replica core)

let durable_snap_path ~dir ~replica ~core =
  Filename.concat dir (Printf.sprintf "r%d-c%d.snap" replica core)

let fresh_data_dir ~tag =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let dir =
      Filename.concat base
        (Printf.sprintf "mk-%s-%d-%d" tag (Unix.getpid ()) i)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let read_durable_sources ~dir ~replica ~cores =
  List.init cores (fun core ->
      let log =
        match
          In_channel.with_open_bin
            (durable_wal_path ~dir ~replica ~core)
            In_channel.input_all
        with
        | s -> s
        | exception Sys_error _ -> ""
      in
      {
        Recover.snap = Dsnapshot.read ~path:(durable_snap_path ~dir ~replica ~core);
        log;
      })

let remove_data_dir ~dir ~n_replicas ~cores =
  for r = 0 to n_replicas - 1 do
    for c = 0 to cores - 1 do
      (try Sys.remove (durable_wal_path ~dir ~replica:r ~core:c)
       with Sys_error _ -> ());
      try Sys.remove (durable_snap_path ~dir ~replica:r ~core:c)
      with Sys_error _ -> ()
    done
  done;
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let chaos_detector_cfg ~horizon_us =
  {
    Detector.heartbeat_every = horizon_us /. 100.0;
    heartbeat_timeout = horizon_us /. 16.0;
    pause_timeout = horizon_us /. 8.0;
    stuck_timeout = horizon_us /. 16.0;
    scan_every = horizon_us /. 64.0;
    epoch_cooldown = horizon_us /. 6.0;
    give_up_after = horizon_us /. 2.5;
  }

type report = {
  shards : int;
  server_domains : int;
  coordinators : int;
  clients : int;
  committed : (Txn.t * Timestamp.t) list;
  sub_histories : (int * (Txn.t * Timestamp.t) list) list;
  committed_count : int;
  aborted : int;
  cross_shard : int;
  fast_path : int;
  slow_path : int;
  retransmits : int;
  wall_seconds : float;
  throughput : float;
  abort_rate : float;
  p50_us : float;
  p99_us : float;
  submitted : int;
  acked : int;
  epoch_changes : int;
  view_changes : int;
  fault_events : int;
  link_dropped : int;
  link_duplicated : int;
  link_delayed : int;
  wal_appends : int;
  wal_bytes : int;
  wal_fsyncs : int;
  snapshots : int;
  snapshot_bytes : int;
  gc_minor_words : int;
  gc_majors : int;
  alloc_per_txn : int;
  groups : Replica.t array array;
}

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(* Requests carry (coord, id): [id] is the coordinator's {!Attempts}
   id, unique across its clients and shard groups, so a late reply for
   a finished attempt can never be taken for a live one. Requests need
   no shard — each group has its own server inboxes — but replies share
   the coordinator's inbox, so they name their group.

   One mailbox message per protocol broadcast: server domain [k] hosts
   core [k] of EVERY replica of its group, so a broadcast lands in one
   inbox regardless of fan-out. A request carries the replica bitmask
   of {!Attempts.send}, and the server answers with one batch whose
   statuses are packed four bits per replica — no per-replica envelope
   allocations. The packing caps [n_replicas] at 15 (4-bit lanes in a
   63-bit int); {!run} enforces that. Chaos mode sends single-bit masks
   instead: the link faults each (coordinator, replica) pair
   independently, so batching there would change which partial
   deliveries are possible. *)
type server_msg =
  | Validates of {
      mask : int;  (* bit r: validate at replica r *)
      coord : int;
      id : int;
      txn : Txn.t;
      ts : Timestamp.t;
    }
  | Accepts of {
      mask : int;
      coord : int;
      id : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : [ `Commit | `Abort ];
    }
  | Write_backs of { mask : int; txn : Txn.t; ts : Timestamp.t; commit : bool }
  (* Chaos-mode recovery traffic (monitor-initiated, §5.3.2). *)
  | Coord_change of { replica : int; observer : int; tid : Tid.t; view : int }
  | Vc_accept of {
      replica : int;
      observer : int;
      txn : Txn.t;
      ts : Timestamp.t;
      decision : [ `Commit | `Abort ];
      view : int;
    }
  | Freeze
  | Stop

(* 4-bit status lanes for the batched replies. [Txn.status] has six
   constant constructors, so a code always fits a lane; accept replies
   use code 0 for [`Accepted] and [1 + status] for [`Finalized] —
   [`Stale] carries an unbounded view number and falls back to a
   singleton [Accepted] message (it only arises under view changes). *)
let status_code : Txn.status -> int = function
  | Txn.Validated_ok -> 0
  | Txn.Validated_abort -> 1
  | Txn.Accepted_commit -> 2
  | Txn.Accepted_abort -> 3
  | Txn.Committed -> 4
  | Txn.Aborted -> 5

let status_of_code : int -> Txn.status = function
  | 0 -> Txn.Validated_ok
  | 1 -> Txn.Validated_abort
  | 2 -> Txn.Accepted_commit
  | 3 -> Txn.Accepted_abort
  | 4 -> Txn.Committed
  | 5 -> Txn.Aborted
  | c -> invalid_arg (Printf.sprintf "Runtime.status_of_code: %d" c)

let max_replicas_batched = 15

type coord_msg =
  | Validated_batch of {
      id : int;
      shard : int;
      mask : int;  (* bit r: replica r's status is in lane r *)
      statuses : int;  (* 4 bits per replica: [status_code] *)
    }
  | Accepted_batch of {
      id : int;
      shard : int;
      mask : int;
      replies : int;  (* 4 bits per replica: 0 accepted, 1+s finalized *)
    }
  | Accepted of {
      id : int;
      shard : int;
      replica : int;
      reply : Protocol.accept_reply;
    }
  | Coord_kill of { until_us : float }
      (* Fail the coordinator process until the given wall time: it
         discards its inbox while down and resumes its attempts with
         {!Attempts.resume} on reboot. *)

(* Everything the monitor domain learns arrives as one of these. *)
type mon_msg =
  | Mon_heartbeat of { from_ : int; observer : int; paused : bool }
      (* [from_ = observer] is the sender's own tick (it always hears
         itself, never over the faulty link). *)
  | Mon_records of { core : int; records : (int * Trecord.entry) list }
      (* Snapshot of one core's non-final records, per replica. The
         entries are fresh copies: the live partitions stay owned by
         their server domain. *)
  | Mon_frozen of { core : int }
  | Mon_coord_reply of {
      tid : Tid.t;
      observer : int;
      view : int;
      replica : int;
      reply : [ `View_ok of Replica.record_view option | `Stale of int ];
    }
  | Mon_accept_reply of {
      tid : Tid.t;
      observer : int;
      view : int;
      replica : int;
      reply : [ `Accepted | `Stale of int | `Finalized of Txn.status ];
    }
  | Mon_coord_done
      (* A coordinator's clients are all done: the monitor keeps
         recovery running until every coordinator has reported in, so
         an attempt stranded by an abandoned view change (its accept
         retries answer [`Stale] forever) is always re-recovered
         rather than spinning unbounded. *)

(* ------------------------------------------------------------------ *)
(* Server domains                                                      *)
(* ------------------------------------------------------------------ *)

(* How many messages a server consumes per [Mailbox.drain] before
   letting its producers reclaim the released slots. One batched
   message already covers a whole broadcast, so this bounds latency,
   not fan-out. *)
let server_drain_budget = 128

(* One request, handled against every replica named in its mask. The
   answers pack one 4-bit lane per replica into a single reply for
   [answer]: fault-free, one blocking mailbox push ({!run} sizes
   coordinator inboxes so a server never blocks while a coordinator is
   blocked on it); in chaos mode, {!answer_per_replica}. *)
let server_handle ~shard ~core ~replicas ~answer ~stop msg =
  match msg with
  | Stop -> stop := true
  | Validates { mask; coord; id; txn; ts } ->
      let rmask = ref 0 and statuses = ref 0 in
      let m = ref mask and r = ref 0 in
      while !m <> 0 do
        (if !m land 1 = 1 then
           match Replica.handle_validate replicas.(!r) ~core ~txn ~ts with
           | None -> ()
           | Some status ->
               rmask := !rmask lor (1 lsl !r);
               statuses := !statuses lor (status_code status lsl (4 * !r)));
        incr r;
        m := !m lsr 1
      done;
      if !rmask <> 0 then
        answer coord
          (Validated_batch { id; shard; mask = !rmask; statuses = !statuses })
  | Accepts { mask; coord; id; txn; ts; decision } ->
      let rmask = ref 0 and packed = ref 0 in
      let m = ref mask and r = ref 0 in
      while !m <> 0 do
        (if !m land 1 = 1 then
           match
             Replica.handle_accept replicas.(!r) ~core ~txn ~ts ~decision
               ~view:0
           with
           | None -> ()
           | Some `Accepted -> rmask := !rmask lor (1 lsl !r)
           | Some (`Finalized st) ->
               rmask := !rmask lor (1 lsl !r);
               packed := !packed lor ((1 + status_code st) lsl (4 * !r))
           | Some (`Stale _ as reply) ->
               (* View numbers do not fit a lane; ship the straggler
                  as a singleton. *)
               answer coord (Accepted { id; shard; replica = !r; reply }));
        incr r;
        m := !m lsr 1
      done;
      if !rmask <> 0 then
        answer coord
          (Accepted_batch { id; shard; mask = !rmask; replies = !packed })
  | Write_backs { mask; txn; ts; commit } ->
      let m = ref mask and r = ref 0 in
      while !m <> 0 do
        if !m land 1 = 1 then
          ignore
            (Replica.handle_commit replicas.(!r) ~core ~txn ~ts ~commit
              : unit option);
        incr r;
        m := !m lsr 1
      done
  | Coord_change _ | Vc_accept _ | Freeze ->
      (* Monitor traffic: {!server_chaos_loop} takes it first. *)
      ()

let server_loop ~shard ~core ~replicas ~inbox ~coord_inboxes =
  let stop = ref false in
  let answer coord msg = Mailbox.push coord_inboxes.(coord) msg in
  let handle = server_handle ~shard ~core ~replicas ~answer ~stop in
  while not !stop do
    if Mailbox.drain inbox ~max:server_drain_budget handle = 0 then
      (* Z8: this parking pop IS the drain loop's idle wait — the
         server domain has nothing to do until a message arrives, so
         blocking here is the design, not a hazard. *)
      handle (Mailbox.pop inbox [@mk_lint.allow "Z8"])
  done

(* Chaos mode: the link faults each (replica, coordinator) pair on its
   own, so a batched answer leaves as one single-lane message per
   replica, each a [try_push] whose failure counts as a drop. *)
let answer_per_replica link coord_inboxes coord msg =
  let send replica m =
    Link.send link ~src:(Network.Replica replica) ~dst:(Network.Client coord)
      ~push:(fun () -> ignore (Mailbox.try_push coord_inboxes.(coord) m))
  in
  let lanes mask f =
    for r = 0 to max_replicas_batched - 1 do
      if mask land (1 lsl r) <> 0 then send r (f r)
    done
  in
  let lane bits r = bits land (0xf lsl (4 * r)) in
  match msg with
  | Validated_batch { id; shard; mask; statuses } ->
      lanes mask (fun r ->
          Validated_batch
            { id; shard; mask = 1 lsl r; statuses = lane statuses r })
  | Accepted_batch { id; shard; mask; replies } ->
      lanes mask (fun r ->
          Accepted_batch { id; shard; mask = 1 lsl r; replies = lane replies r })
  | Accepted { replica; _ } -> send replica msg
  | Coord_kill _ -> ()

(* Chaos-mode server domain: the same handler, polling instead of
   parking, with every outbound reply routed through the link, plus a
   heartbeat agent and a periodic trecord snapshot for the detector.
   On [Freeze] the domain acks and parks on its control mailbox until
   the monitor finishes the epoch change — the live analogue of the
   sim pausing every core at one instant. *)
let server_chaos_loop (cfg : config) ~chaos ~t0 ~core ~replicas ~inbox
    ~coord_inboxes ~mon_inbox ~control ~link =
  let n = cfg.n_replicas in
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  let dcfg = chaos.detector in
  let next_hb =
    ref (float_of_int core *. dcfg.heartbeat_every
        /. float_of_int cfg.server_domains)
  in
  let next_snap = ref (dcfg.scan_every /. 2.0) in
  let reply_mon ~replica ~observer msg =
    Link.send link ~src:(Network.Replica replica)
      ~dst:(Network.Replica observer)
      ~push:(fun () -> ignore (Mailbox.try_push mon_inbox msg))
  in
  let heartbeat () =
    for r = 0 to n - 1 do
      if r mod cfg.server_domains = core && not (Replica.is_crashed replicas.(r))
      then begin
        let paused = Replica.is_paused replicas.(r) in
        ignore
          (Mailbox.try_push mon_inbox
             (Mon_heartbeat { from_ = r; observer = r; paused }));
        for p = 0 to n - 1 do
          if p <> r then
            Link.send link ~src:(Network.Replica r) ~dst:(Network.Replica p)
              ~push:(fun () ->
                ignore
                  (Mailbox.try_push mon_inbox
                     (Mon_heartbeat { from_ = r; observer = p; paused })))
        done
      end
    done
  in
  let snapshot () =
    let records = ref [] in
    for r = 0 to n - 1 do
      if not (Replica.is_crashed replicas.(r)) then
        List.iter
          (fun (e : Trecord.entry) ->
            if not (Txn.is_final e.Trecord.status) then
              records := (r, { e with Trecord.ts = e.Trecord.ts }) :: !records)
          (Trecord.core_entries (Replica.trecord replicas.(r)) ~core)
    done;
    ignore (Mailbox.try_push mon_inbox (Mon_records { core; records = !records }))
  in
  let stop = ref false in
  let handle =
    server_handle ~shard:0 ~core ~replicas
      ~answer:(answer_per_replica link coord_inboxes)
      ~stop
  in
  let idle = ref 0 in
  while not !stop do
    match Mailbox.try_pop inbox with
    | Some msg -> (
        idle := 0;
        match msg with
        | Coord_change { replica; observer; tid; view } -> (
            match
              Replica.handle_coord_change replicas.(replica) ~core ~tid ~view
            with
            | None -> ()
            | Some reply ->
                reply_mon ~replica ~observer
                  (Mon_coord_reply { tid; observer; view; replica; reply }))
        | Vc_accept { replica; observer; txn; ts; decision; view } -> (
            match
              Replica.handle_accept replicas.(replica) ~core ~txn ~ts ~decision
                ~view
            with
            | None -> ()
            | Some reply ->
                reply_mon ~replica ~observer
                  (Mon_accept_reply
                     { tid = txn.Txn.tid; observer; view; replica; reply }))
        | Freeze ->
            (* The monitor is draining its inbox waiting for this ack,
               so the blocking push always completes; then park until
               it hands the cores back. *)
            Mailbox.push mon_inbox (Mon_frozen { core });
            ignore (Mailbox.pop control : unit)
        | Validates _ | Accepts _ | Write_backs _ | Stop -> handle msg)
    | None ->
        (* Chatter runs until [Stop]: the monitor may still be driving
           recovery for a straggling coordinator past the settle
           deadline and needs fresh heartbeats and snapshots. After
           the monitor exits these try_pushes fill its inbox and fail,
           which is harmless. *)
        let now = wall_us () in
        if now >= !next_hb then begin
          heartbeat ();
          next_hb := now +. dcfg.heartbeat_every
        end;
        if now >= !next_snap then begin
          snapshot ();
          next_snap := now +. (dcfg.scan_every /. 2.0)
        end;
        Link.flush link;
        incr idle;
        if !idle > 200 then Unix.sleepf 0.0001 else Spawn.relax ()
  done

(* ------------------------------------------------------------------ *)
(* Monitor domain (chaos mode)                                         *)
(* ------------------------------------------------------------------ *)

type mon_result = {
  m_epoch_changes : int;
  m_view_changes : int;
  m_fault_events : int;
}

let monitor (cfg : config) ~chaos ~t0 ~replicas ~server_inboxes ~coord_inboxes
    ~mon_inbox ~controls ~link =
  let n = cfg.n_replicas in
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  let dcfg = chaos.detector in
  let det = Detector.create ~cfg:dcfg ~n ~now:(wall_us ()) in
  (* Latest per-core trecord snapshots, per replica. *)
  let latest = Array.make_matrix cfg.server_domains n [] in
  let down_until = Array.make n neg_infinity in
  let ec_count = ref 0 in
  let vc_count = ref 0 in
  let fault_events = ref 0 in
  let vcs = View_change.create ~n in
  let crashes = ref (Verdict.crashes chaos.plan) in
  let edges = ref (Verdict.window_edges chaos.plan) in
  let frozen_pending = ref 0 in
  let coords_pending = ref cfg.coordinators in
  (* Recovery traffic for [tid] goes to the server domain owning its
     trecord core; a crashed replica is sent nothing. *)
  let to_server ~observer ~tid ~replica msg =
    if not (Replica.is_crashed replicas.(replica)) then begin
      let core = Tid.hash tid mod cfg.server_domains in
      Link.send link ~src:(Network.Replica observer) ~dst:(Network.Replica replica)
        ~push:(fun () -> ignore (Mailbox.try_push server_inboxes.(core) msg))
    end
  in
  (* The §5.3.2 view changes: {!View_change} decides; the monitor
     carries its messages to the server domains over the link. The
     scratch batch is never reentered: performing an action only
     pushes to a server inbox. *)
  let vc_acts : View_change.action Batch.t = Batch.create () in
  let vc_perform = function
    | View_change.Coord_change { replica; observer; tid; view } ->
        to_server ~observer ~tid ~replica
          (Coord_change { replica; observer; tid; view })
    | View_change.Vc_accept { replica; observer; txn; ts; decision; view } ->
        to_server ~observer ~tid:txn.Txn.tid ~replica
          (Vc_accept { replica; observer; txn; ts; decision; view })
    | View_change.Write_back { observer; txn; ts; commit } ->
        for replica = 0 to n - 1 do
          to_server ~observer ~tid:txn.Txn.tid ~replica
            (Write_backs { mask = 1 lsl replica; txn; ts; commit })
        done
    | View_change.Done { tid; observer; outcome } ->
        Detector.view_change_finished det ~now:(wall_us ()) ~observer ~tid ~outcome;
        if outcome = `Finished then incr vc_count
  in
  let vc_feed f =
    Batch.clear vc_acts;
    f ~into:vc_acts;
    Batch.iter vc_perform vc_acts
  in
  let handle_mon msg =
    match msg with
    | Mon_heartbeat { from_; observer; paused } ->
        let now = wall_us () in
        if from_ = observer then Detector.heartbeat_tick det ~now ~replica:from_
        else if not (Replica.is_crashed replicas.(observer)) then
          Detector.heartbeat_received det ~now ~observer ~from_ ~paused
    | Mon_records { core; records } ->
        let by_replica = Array.make n [] in
        List.iter (fun (r, e) -> by_replica.(r) <- e :: by_replica.(r)) records;
        latest.(core) <- by_replica
    | Mon_frozen _ -> decr frozen_pending
    | Mon_coord_done -> decr coords_pending
    | Mon_coord_reply { tid; observer; view; replica; reply } ->
        vc_feed (View_change.coord_reply vcs ~tid ~observer ~view ~replica reply)
    | Mon_accept_reply { tid; observer; view; replica; reply } ->
        vc_feed (View_change.accept_reply vcs ~tid ~observer ~view ~replica reply)
  in
  let drain_some () =
    match Mailbox.try_pop mon_inbox with
    | Some m ->
        handle_mon m;
        true
    | None -> false
  in
  (* §5.3.1 under a freeze handshake: stop every server domain at one
     instant, run the synchronous epoch change ({!Epoch.run_sync}, as
     [Sim_system.run_epoch_change] does), hand the cores back. While the
     freeze tokens go out the monitor keeps draining its own inbox, so
     a server blocked pushing an ack can never deadlock it. *)
  let run_epoch_change ~recovering =
    frozen_pending := cfg.server_domains;
    for k = 0 to cfg.server_domains - 1 do
      while not (Mailbox.try_push server_inboxes.(k) Freeze) do
        ignore (drain_some () : bool);
        Spawn.relax ()
      done
    done;
    while !frozen_pending > 0 do
      if not (drain_some ()) then Spawn.relax ()
    done;
    (* Every server domain is parked on its control mailbox: the
       replicas belong to the monitor alone (coordinator execute-phase
       reads go through the vstore's key index and entry locks and stay
       safe). *)
    let success = Epoch.run_sync replicas ~recovering in
    Array.iter (fun ctl -> Mailbox.push ctl ()) controls;
    Detector.epoch_change_finished det ~now:(wall_us ()) ~success ~recovering;
    if success then incr ec_count
  in
  let perform = function
    | Detector.Start_view_change { observer; record; view } ->
        let now = wall_us () in
        vc_feed
          (View_change.start vcs ~observer ~record ~view ~rto:cfg.rto_us
             ~deadline:(now +. dcfg.give_up_after) ~now)
    | Detector.Start_epoch_change { initiator = _; recovering } ->
        run_epoch_change ~recovering
  in
  let process_due now =
    (match !edges with
    | (at, _name) :: rest when at <= now ->
        incr fault_events;
        edges := rest
    | _ -> ());
    match !crashes with
    | Nemesis.Replica_crash { at; victim; down_for } :: rest when at <= now ->
        crashes := rest;
        incr fault_events;
        Replica.crash replicas.(victim);
        Link.set_down link (Network.Replica victim) ~until:(at +. down_for);
        down_until.(victim) <- at +. down_for
    | Nemesis.Coordinator_crash { at; client; down_for } :: rest when at <= now
      ->
        crashes := rest;
        incr fault_events;
        ignore
          (Mailbox.try_push
             coord_inboxes.(client mod cfg.coordinators)
             (Coord_kill { until_us = at +. down_for }))
    | _ -> ()
  in
  let observer_records o =
    let acc = ref [] in
    for k = 0 to cfg.server_domains - 1 do
      acc := List.rev_append latest.(k).(o) !acc
    done;
    !acc
  in
  let next_scan =
    Array.init n (fun o ->
        ref
          ((dcfg.scan_every /. 2.0)
          +. (float_of_int o *. dcfg.scan_every /. float_of_int n)))
  in
  let det_acts : Detector.action Batch.t = Batch.create () in
  let scan_tick now =
    for o = 0 to n - 1 do
      if now >= !(next_scan.(o)) then begin
        next_scan.(o) := now +. dcfg.scan_every;
        if not (Replica.is_crashed replicas.(o)) then begin
          let rep = replicas.(o) in
          Batch.clear det_acts;
          Detector.scan det ~now ~observer:o
            ~paused:(Replica.is_paused rep)
            ~available:(Replica.is_available rep)
            ~records:(fun () -> observer_records o)
            ~recoverable:(fun p ->
              (not (Replica.is_crashed replicas.(p))) || now >= down_until.(p))
            ~into:det_acts;
          Batch.iter perform det_acts
        end
      end
    done
  in
  let stop_initiate_at = chaos.horizon_us +. (chaos.settle_us /. 2.0) in
  let end_at = chaos.horizon_us +. chaos.settle_us in
  let idle = ref 0 in
  (* The monitor outlives the settle deadline for as long as any
     coordinator is still working: a stranded attempt (see the header
     comment) only finishes when a fresh view change finalizes its
     record, so scans keep initiating until every coordinator has
     pushed [Mon_coord_done]. *)
  let rec main () =
    let now = wall_us () in
    if now < end_at || !coords_pending > 0 then begin
      let progressed = ref false in
      let rec drain budget =
        if budget > 0 && drain_some () then begin
          progressed := true;
          drain (budget - 1)
        end
      in
      drain 256;
      process_due now;
      if now < stop_initiate_at || !coords_pending > 0 then scan_tick now;
      if now >= View_change.next_due vcs then
        vc_feed (View_change.fire_due vcs ~now);
      Link.flush link;
      if !progressed then idle := 0
      else begin
        incr idle;
        if !idle > 200 then Unix.sleepf 0.0001 else Spawn.relax ()
      end;
      main ()
    end
  in
  main ();
  (* Deliver the last stragglers off the wheel. *)
  Link.flush link;
  {
    m_epoch_changes = !ec_count;
    m_view_changes = !vc_count;
    m_fault_events = !fault_events;
  }

(* ------------------------------------------------------------------ *)
(* Coordinator domains                                                 *)
(* ------------------------------------------------------------------ *)

(* One coordinator domain's view of the deployment, shared by its
   per-group {!Live_group} handles. *)
type coord = {
  id : int;
  groups : Replica.t array array;  (* .(shard).(replica) *)
  wall : unit -> float;  (* wall µs since t0 *)
  atts : Attempts.t;
}

(* The four GROUP operations of one shard group, as seen from one
   coordinator domain. *)
module Live_group = struct
  type t = { shard : int; co : coord }

  (* Execute-phase reads go straight to one replica's versioned store —
     shared-memory gets stand in for the paper's closest-replica reads;
     the vstore's key index and entry locks make them safe from any
     domain. A crashed replica answers nothing, so chaos runs fall back
     to its peers.
     Each key is read on its own, in key order. *)
  let execute_reads g ~client ~keys k =
    let replicas = g.co.groups.(g.shard) in
    let n = Array.length replicas in
    let rec attempt ~key i =
      if i >= n then (0, Timestamp.zero)
      else
        match
          Replica.handle_get replicas.((g.co.id + client + i) mod n) ~key
        with
        | Some v -> v
        | None -> attempt ~key (i + 1)
    in
    Array.iteri
      (fun i key ->
        let value, wts = attempt ~key 0 in
        k i value wts)
      keys

  let fresh_txn_stamp g ~client =
    Attempts.mint g.co.atts ~client ~now:(g.co.wall ())

  let prepare_txn g ~txn ~ts ~on_prepared =
    Attempts.start g.co.atts ~now:(g.co.wall ()) ~shard:g.shard ~txn ~ts
      ~on_decided:on_prepared

  let finalize_txn g ~txn ~ts ~commit =
    Attempts.finalize g.co.atts ~shard:g.shard ~txn ~ts ~commit
end

module Driver = Mk_shard.Driver.Make (Live_group)

(* Requests of one transaction go to the same core of every replica of
   its group: the core that owns the tid's trecord partition.
   Fault-free, a broadcast is one blocking push; chaos mode gives each
   replica its own single-bit message through the link, where a full
   mailbox degrades to a link drop (retransmission recovers it). *)
let sender (cfg : config) ~inboxes ~link ~coord =
  let inbox ~shard (txn : Txn.t) =
    inboxes.(shard).(Tid.hash txn.Txn.tid mod cfg.server_domains)
  in
  match link with
  | None ->
      {
        Attempts.validate =
          (fun ~shard ~mask ~id txn ts ->
            Mailbox.push (inbox ~shard txn)
              (Validates { mask; coord; id; txn; ts }));
        accept =
          (fun ~shard ~mask ~id txn ts decision ->
            Mailbox.push (inbox ~shard txn)
              (Accepts { mask; coord; id; txn; ts; decision }));
        write_back =
          (fun ~shard ~mask txn ts ~commit ->
            Mailbox.push (inbox ~shard txn) (Write_backs { mask; txn; ts; commit }));
      }
  | Some l ->
      let each ~shard txn mask msg =
        for r = 0 to cfg.n_replicas - 1 do
          if mask land (1 lsl r) <> 0 then
            Link.send l ~src:(Network.Client coord) ~dst:(Network.Replica r)
              ~push:(fun () ->
                ignore (Mailbox.try_push (inbox ~shard txn) (msg (1 lsl r))))
        done
      in
      {
        Attempts.validate =
          (fun ~shard ~mask ~id txn ts ->
            each ~shard txn mask (fun mask -> Validates { mask; coord; id; txn; ts }));
        accept =
          (fun ~shard ~mask ~id txn ts decision ->
            each ~shard txn mask (fun mask ->
                Accepts { mask; coord; id; txn; ts; decision }));
        write_back =
          (fun ~shard ~mask txn ts ~commit ->
            each ~shard txn mask (fun mask -> Write_backs { mask; txn; ts; commit }));
      }

type client = {
  cid : int;
  mutable active : bool;
  mutable submitted : int;
  mutable acked : int;
  mutable next_launch : float;  (* open-loop: next scheduled launch (µs) *)
}

type coord_result = {
  c_sub : (int * (Txn.t * Timestamp.t) list) list;
  c_committed : int;
  c_aborted : int;
  c_cross : int;
  c_fast : int;
  c_slow : int;
  c_latencies : Histogram.t;
  c_retransmits : int;
  c_submitted : int;
  c_acked : int;
}

let coordinator (cfg : config) ~t0 ~router ~groups ~inboxes ~coord_inboxes
    ~link ~mon_inbox ~coord_id =
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  let lat = Histogram.create () in
  (* The report reads only latencies, decision counts (from the
     tables) and retransmissions: nothing else is recorded. *)
  let retransmits = ref 0 in
  let inbox = coord_inboxes.(coord_id) in
  (* The table caps the armed retransmission interval at 8 x rto: the
     protocol doubles it on every retry, free in virtual sim time, but
     on the wall clock an unlucky chaos run would soon be retrying
     minutes apart. *)
  let atts =
    Attempts.create
      {
        Protocol.n_replicas = cfg.n_replicas;
        quorum = Quorum.create ~n:cfg.n_replicas;
        rto = cfg.rto_us;
        grace = cfg.grace_us;
      }
      ~send:(sender cfg ~inboxes ~link ~coord:coord_id)
      ~on_retransmit:(fun _ -> incr retransmits)
  in
  let co = { id = coord_id; groups; wall = wall_us; atts } in
  let driver =
    Driver.create ~router
      ~groups:(Array.init cfg.shards (fun shard -> { Live_group.shard; co }))
  in
  let rng = Mk_util.Rng.create ~seed:(cfg.seed + (7919 * (coord_id + 1))) in
  let wl =
    match cfg.workload with
    | Ycsb_t -> Workload.ycsb_t ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Rmw_pair -> Workload.rmw_pair ~rng ~keys:cfg.keys ~theta:cfg.theta
    | Retwis -> Workload.retwis ~rng ~keys:cfg.keys ~theta:cfg.theta
  in
  (* The locality knob assumes key-mod-shards placement. *)
  if cfg.shards > 1 && cfg.policy = Router.Mod then
    Workload.set_locality wl
      (Some { Workload.shards = cfg.shards; cross = cfg.cross });
  let spans_groups (req : Intf.txn_request) =
    let s0 = ref (-1) and spans = ref false in
    let see key =
      let s = Router.shard_of_key router key in
      if !s0 < 0 then s0 := s else if s <> !s0 then spans := true
    in
    Array.iter see req.Intf.reads;
    Array.iter (fun (key, _) -> see key) req.Intf.writes;
    !spans
  in
  (* Open-loop load: [offered_rate] is the AGGREGATE offered load in
     txn/s across all clients, so each client launches every
     [clients / rate] seconds, phase-staggered by client id — the
     global launch train is evenly spaced at 1/rate. The schedule is
     arithmetic ([next_launch +. interval], never [now +. interval]),
     so a slow txn does not silently thin the offered load. *)
  let launch_interval_us =
    Option.map
      (fun rate -> 1e6 *. float_of_int cfg.clients /. rate)
      cfg.offered_rate
  in
  let first_launch cid =
    match cfg.offered_rate with
    | Some rate -> float_of_int cid *. (1e6 /. rate)
    | None -> 0.0
  in
  let local =
    List.init cfg.clients Fun.id
    |> List.filter (fun cid -> cid mod cfg.coordinators = coord_id)
    |> List.map (fun cid ->
           {
             cid;
             active = false;
             submitted = 0;
             acked = 0;
             next_launch = first_launch cid;
           })
    |> Array.of_list
  in
  let deadline_us =
    match cfg.duration with Some d -> Some (d *. 1e6) | None -> None
  in
  let quota_done ~now c =
    match deadline_us with
    | Some dl -> now >= dl
    | None -> c.submitted >= cfg.txns_per_client
  in
  let cross = ref 0 in
  let start_txn c ~launch =
    let req = Workload.next wl in
    let is_cross = cfg.shards > 1 && spans_groups req in
    c.active <- true;
    c.submitted <- c.submitted + 1;
    Driver.submit driver ~client:c.cid ~reads:req.Intf.reads
      ~writes:(fun _ -> req.Intf.writes)
      ~on_done:(fun ~committed:_ ->
        (* Latency origin: the stamp mint (the end of the execute
           phase) in closed loop; the INTENDED launch instant in open
           loop, so a client that fell behind its schedule reports the
           queueing delay it actually imposed (no coordinated
           omission). *)
        let minted = Attempts.last_stamp atts ~client:c.cid in
        let origin = match launch with Some l -> l | None -> minted in
        Histogram.add lat (wall_us () -. origin);
        if is_cross then incr cross;
        c.active <- false;
        c.acked <- c.acked + 1)
  in
  (* Fault injection: a killed coordinator process discards its inbox
     while down and replays nothing of it. *)
  let down_until_us = ref neg_infinity in
  let was_down = ref false in
  (* One cached clock read per loop iteration — and, while idling, one
     per eight spins. Each [Unix.gettimeofday] boxes a float, so reading
     the clock per message or per client made the clock itself the
     dominant source of minor allocation on the fast path. Staleness is
     bounded by a few spin iterations (under the 100 µs idle sleep, well
     under the 5 ms fast-grace timer). *)
  let last_now = ref (wall_us ()) in
  let feed ~id ~shard event =
    ignore (Attempts.reply atts ~now:!last_now ~id ~shard event : Attempts.reply)
  in
  (* One lane per replica. An earlier lane's reply may decide the
     attempt; the table then answers the rest [Stale], exactly as the
     remaining singleton messages would have been dropped on arrival. *)
  let lanes ~id ~shard mask bits event =
    let m = ref mask and r = ref 0 in
    while !m <> 0 do
      if !m land 1 = 1 then
        feed ~id ~shard (event !r ((bits lsr (4 * !r)) land 0xf));
      incr r;
      m := !m lsr 1
    done
  in
  let dispatch msg =
    match msg with
    | Coord_kill { until_us } ->
        down_until_us := Float.max !down_until_us until_us
    | Validated_batch { id; shard; mask; statuses } ->
        lanes ~id ~shard mask statuses (fun replica code ->
            Protocol.Validate_reply { replica; status = status_of_code code })
    | Accepted_batch { id; shard; mask; replies } ->
        lanes ~id ~shard mask replies (fun replica code ->
            Protocol.Accept_reply
              {
                replica;
                reply =
                  (if code = 0 then `Accepted
                   else `Finalized (status_of_code (code - 1)));
              })
    | Accepted { id; shard; replica; reply } ->
        feed ~id ~shard (Protocol.Accept_reply { replica; reply })
  in
  let handle_msg msg =
    match msg with
    | Coord_kill _ -> dispatch msg
    | _ when !last_now < !down_until_us ->
        (* Dead: the message is popped and lost, exactly what a
           crashed process does to its socket buffers. *)
        ()
    | _ -> dispatch msg
  in
  let idle = ref 0 in
  let rec loop () =
    if !idle = 0 || !idle land 7 = 0 then last_now := wall_us ();
    let got = Mailbox.drain inbox ~max:256 handle_msg in
    let progressed = ref (got > 0) in
    let now = !last_now in
    let all_done = ref true in
    if now < !down_until_us then begin
      (* Down: no timers fire, no transactions start; the clients are
         not done, so the loop keeps draining (and discarding). *)
      was_down := true;
      for i = 0 to Array.length local - 1 do
        let c = local.(i) in
        if c.active || not (quota_done ~now c) then all_done := false
      done
    end
    else begin
      if !was_down then begin
        was_down := false;
        (* Reboot: whatever is still queued arrived while dead — drain
           and discard it, then resume every interrupted attempt. The
           kept retransmission timers back this up if the resume sends
           are themselves lost. *)
        let rec purge () =
          match Mailbox.try_pop inbox with
          | Some (Coord_kill { until_us }) ->
              down_until_us := Float.max !down_until_us until_us;
              purge ()
          | Some _ -> purge ()
          | None -> ()
        in
        purge ();
        last_now := wall_us ();
        if !last_now >= !down_until_us then Attempts.resume atts ~now:!last_now
      end;
      let now = !last_now in
      Attempts.fire_due atts ~now;
      (* A plain loop, no closure: an idle spin allocates nothing. *)
      for i = 0 to Array.length local - 1 do
        let c = local.(i) in
        (if (not c.active) && not (quota_done ~now c) then
           match launch_interval_us with
           | None ->
               start_txn c ~launch:None;
               progressed := true
           | Some interval ->
               (* Open loop: launch only at the scheduled instant; the
                  schedule advances arithmetically from it. *)
               if now >= c.next_launch then begin
                 start_txn c ~launch:(Some c.next_launch);
                 c.next_launch <- c.next_launch +. interval;
                 progressed := true
               end);
        if c.active || not (quota_done ~now c) then all_done := false
      done
    end;
    if not !all_done then begin
      (match link with Some l -> Link.flush l | None -> ());
      if !progressed then idle := 0
      else begin
        incr idle;
        (* Mostly spin; on an oversubscribed machine yield the OS
           thread now and then so servers can run. *)
        if !idle > 200 then Unix.sleepf 0.0001 else Spawn.relax ()
      end;
      loop ()
    end
  in
  loop ();
  (* Chaos-mode shutdown rendezvous (see the header comment): the
     monitor is guaranteed to keep draining until this arrives, so the
     retry loop terminates. *)
  (match mon_inbox with
  | None -> ()
  | Some mi ->
      while not (Mailbox.try_push mi Mon_coord_done) do
        Spawn.relax ()
      done);
  {
    c_sub = Driver.sub_histories driver;
    c_committed = Driver.committed driver;
    c_aborted = Driver.aborted driver;
    c_cross = !cross;
    c_fast = Attempts.fast atts;
    c_slow = Attempts.slow atts;
    c_latencies = lat;
    c_retransmits = !retransmits;
    c_submitted = Array.fold_left (fun acc c -> acc + c.submitted) 0 local;
    c_acked = Array.fold_left (fun acc c -> acc + c.acked) 0 local;
  }

(* ------------------------------------------------------------------ *)
(* Durability wiring                                                   *)
(* ------------------------------------------------------------------ *)

(* One tally row per server domain, folded after the join — plain
   ints, so the hot path never shares a counter across domains. *)
type wal_tally = {
  mutable t_appends : int;
  mutable t_bytes : int;
  mutable t_fsyncs : int;
}

type durable_state = {
  d_wals : Wal.t array array;  (* .(replica).(core) *)
  d_framers : Walcodec.framer array array;  (* one per WAL *)
  d_tallies : wal_tally array;  (* per server domain *)
  mutable d_snaps : int;  (* monitor-domain only (Installed) *)
  mutable d_snap_bytes : int;
}

let durable_hook ds ~dir ~cores ~replica rep (ev : Replica.durable_event) =
  match ev with
  | Replica.Finalized { core; view } ->
      if core >= 0 && core < Array.length ds.d_tallies then begin
        let f = ds.d_framers.(replica).(core) in
        Walcodec.encode_record_into f { Walcodec.core; view };
        let tally = ds.d_tallies.(core) in
        (match Wal.append_frame ds.d_wals.(replica).(core) f with
        | `Synced -> tally.t_fsyncs <- tally.t_fsyncs + 1
        | `Buffered -> ());
        tally.t_appends <- tally.t_appends + 1;
        tally.t_bytes <- tally.t_bytes + Walcodec.frame_length f
      end
  | Replica.Installed { epoch } ->
      (* Monitor domain, every server domain parked: the merged state
         supersedes whatever the logs say, so write full per-core
         snapshots cutting at the current log lengths. *)
      Array.iter
        (fun (snap : Walcodec.snapshot) ->
          let s = Walcodec.encode_snapshot snap in
          Dsnapshot.write
            ~path:(durable_snap_path ~dir ~replica ~core:snap.Walcodec.core)
            s;
          ds.d_snaps <- ds.d_snaps + 1;
          ds.d_snap_bytes <- ds.d_snap_bytes + String.length s)
        (Checkpoint.images ~cores ~epoch
           ~wal_cut:(fun core -> Wal.length ds.d_wals.(replica).(core))
           ~views:(Replica.record_views rep)
           ~rows:(Replica.store_snapshot rep))

(* ------------------------------------------------------------------ *)
(* Whole-system run                                                    *)
(* ------------------------------------------------------------------ *)

let run (cfg : config) : report =
  if cfg.shards < 1 then invalid_arg "Runtime.run: shards must be >= 1";
  if cfg.server_domains < 1 then
    invalid_arg "Runtime.run: server_domains must be >= 1";
  if cfg.coordinators < 1 then
    invalid_arg "Runtime.run: coordinators must be >= 1";
  if cfg.clients < 1 then invalid_arg "Runtime.run: clients must be >= 1";
  if cfg.n_replicas < 3 || cfg.n_replicas mod 2 = 0 then
    invalid_arg "Runtime.run: n_replicas must be odd and >= 3";
  if cfg.n_replicas > max_replicas_batched then
    invalid_arg
      (Printf.sprintf
         "Runtime.run: n_replicas must be <= %d (replica masks and 4-bit \
          status lanes pack into one immediate int)"
         max_replicas_batched);
  if cfg.cross < 0.0 || cfg.cross > 1.0 then
    invalid_arg "Runtime.run: cross must be in [0, 1]";
  if cfg.shards > 1 && (Option.is_some cfg.chaos || Option.is_some cfg.durable)
  then
    invalid_arg
      "Runtime.run: chaos and durability need shards = 1 (the cluster \
       backend covers multi-shard faults)";
  (* The deadlock-freedom argument (see the header comment): a
     coordinator inbox must hold the worst-case burst of outstanding
     replies, a few times local clients × replicas × shards (a client
     holds one attempt per involved group). Enforced, not just
     documented — an undersized box can deadlock the whole topology. *)
  let local_clients =
    (cfg.clients + cfg.coordinators - 1) / cfg.coordinators
  in
  let coord_inbox_floor = 4 * local_clients * cfg.n_replicas * cfg.shards in
  if cfg.coord_inbox < coord_inbox_floor then
    invalid_arg
      (Printf.sprintf
         "Runtime.run: coord_inbox %d below the deadlock-freedom floor %d (4 \
          x %d local clients x %d replicas x %d shards)"
         cfg.coord_inbox coord_inbox_floor local_clients cfg.n_replicas
         cfg.shards);
  (match cfg.chaos with
  | Some _ when cfg.duration = None ->
      invalid_arg "Runtime.run: chaos runs need a duration (the horizon)"
  | _ -> ());
  (match cfg.offered_rate with
  | Some r when not (r > 0.0) ->
      invalid_arg "Runtime.run: offered_rate must be > 0"
  | _ -> ());
  let router =
    Router.create ~policy:cfg.policy ~shards:cfg.shards ~keys:cfg.keys ()
  in
  let quorum = Quorum.create ~n:cfg.n_replicas in
  let groups =
    Array.init cfg.shards (fun shard ->
        let replicas =
          Array.init cfg.n_replicas (fun id ->
              Replica.create ~id ~quorum ~cores:cfg.server_domains)
        in
        Array.iter
          (fun r ->
            for key = 0 to max 1 (Router.local_keys router ~shard) - 1 do
              Replica.load r ~key ~value:0
            done)
          replicas;
        replicas)
  in
  (* Chaos and durability run one group: its replicas and inboxes. *)
  let replicas = groups.(0) in
  let durable_state =
    match cfg.durable with
    | None -> None
    | Some { dir; policy } ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let ds =
          {
            d_wals =
              Array.init cfg.n_replicas (fun replica ->
                  Array.init cfg.server_domains (fun core ->
                      Wal.open_log
                        ~path:(durable_wal_path ~dir ~replica ~core)
                        ~policy));
            d_framers =
              Array.init cfg.n_replicas (fun _ ->
                  Array.init cfg.server_domains (fun _ -> Walcodec.framer ()));
            d_tallies =
              Array.init cfg.server_domains (fun _ ->
                  { t_appends = 0; t_bytes = 0; t_fsyncs = 0 });
            d_snaps = 0;
            d_snap_bytes = 0;
          }
        in
        Array.iteri
          (fun replica rep ->
            Replica.set_durable_hook rep
              (durable_hook ds ~dir ~cores:cfg.server_domains ~replica rep))
          replicas;
        Some ds
  in
  let inboxes =
    Array.init cfg.shards (fun _ ->
        Array.init cfg.server_domains (fun _ ->
            Mailbox.create ~capacity:cfg.server_inbox))
  in
  let server_inboxes = inboxes.(0) in
  let coord_inboxes =
    Array.init cfg.coordinators (fun _ ->
        Mailbox.create ~capacity:cfg.coord_inbox)
  in
  (* Allocation footprint of the whole run: in OCaml 5 a terminated
     domain folds its allocation counters into the global totals at
     join, so the post-join [quick_stat] delta covers every domain
     spawned in between. *)
  let gc0 = Gc.quick_stat () in
  let t0 = Spawn.wall () in
  let wall_us () = (Spawn.wall () -. t0) *. 1e6 in
  let link =
    match cfg.chaos with
    | None -> None
    | Some ch -> Some (Link.create ~plan:ch.plan ~seed:cfg.seed ~now:wall_us)
  in
  let mon_inbox =
    match cfg.chaos with
    | None -> None
    | Some _ -> Some (Mailbox.create ~capacity:8192)
  in
  let controls =
    match cfg.chaos with
    | None -> [||]
    | Some _ ->
        Array.init cfg.server_domains (fun _ -> Mailbox.create ~capacity:2)
  in
  let servers =
    List.concat_map
      (fun shard ->
        List.init cfg.server_domains (fun core ->
            Spawn.spawn (fun () ->
                match (cfg.chaos, link, mon_inbox) with
                | Some ch, Some l, Some mi ->
                    server_chaos_loop cfg ~chaos:ch ~t0 ~core ~replicas
                      ~inbox:server_inboxes.(core) ~coord_inboxes ~mon_inbox:mi
                      ~control:controls.(core) ~link:l
                | _ ->
                    server_loop ~shard ~core ~replicas:groups.(shard)
                      ~inbox:inboxes.(shard).(core) ~coord_inboxes)))
      (List.init cfg.shards Fun.id)
  in
  let mon =
    match (cfg.chaos, link, mon_inbox) with
    | Some ch, Some l, Some mi ->
        Some
          (Spawn.spawn (fun () ->
               monitor cfg ~chaos:ch ~t0 ~replicas ~server_inboxes
                 ~coord_inboxes ~mon_inbox:mi ~controls ~link:l))
    | _ -> None
  in
  let coords =
    List.init cfg.coordinators (fun coord_id ->
        Spawn.spawn (fun () ->
            coordinator cfg ~t0 ~router ~groups ~inboxes ~coord_inboxes ~link
              ~mon_inbox ~coord_id))
  in
  let results = List.map Spawn.join coords in
  let mon_result = Option.map Spawn.join mon in
  (* Deliver any last wheel stragglers while the servers still drain,
     then stop them. All coordinators have pushed their last message
     (write-backs included) before these Stops are enqueued, so each
     server drains everything and then exits: the final replica state
     is quiescent. *)
  (match link with Some l -> Link.flush l | None -> ());
  Array.iter (Array.iter (fun inbox -> Mailbox.push inbox Stop)) inboxes;
  List.iter Spawn.join servers;
  (* Every domain has joined: fold the per-domain durability tallies
     and close the logs (flushing any group-commit buffer) so the data
     directory is complete before the caller replays it. *)
  let wal_appends, wal_bytes, wal_fsyncs, snapshots, snapshot_bytes =
    match durable_state with
    | None -> (0, 0, 0, 0, 0)
    | Some ds ->
        Array.iter (fun row -> Array.iter Wal.close row) ds.d_wals;
        let a, b, f =
          Array.fold_left
            (fun (a, b, f) t -> (a + t.t_appends, b + t.t_bytes, f + t.t_fsyncs))
            (0, 0, 0) ds.d_tallies
        in
        (a, b, f, ds.d_snaps, ds.d_snap_bytes)
  in
  let wall_seconds = Spawn.wall () -. t0 in
  let gc1 = Gc.quick_stat () in
  let gc_minor_words =
    int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words)
  in
  let gc_majors = gc1.Gc.major_collections - gc0.Gc.major_collections in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let sub_histories =
    List.init cfg.shards (fun shard ->
        (shard, List.concat_map (fun r -> List.assoc shard r.c_sub) results))
  in
  let committed =
    (* One group's sub-history is already over global keys. *)
    match sub_histories with
    | [ (_, history) ] -> history
    | _ -> History.merge ~router sub_histories
  in
  let lat =
    List.fold_left
      (fun acc r -> Histogram.merge acc r.c_latencies)
      (Histogram.create ()) results
  in
  let committed_count = total (fun r -> r.c_committed) in
  let aborted = total (fun r -> r.c_aborted) in
  let decided = committed_count + aborted in
  let alloc_per_txn =
    if committed_count = 0 then 0 else gc_minor_words / committed_count
  in
  let link_dropped, link_duplicated, link_delayed =
    match link with Some l -> Link.stats l | None -> (0, 0, 0)
  in
  {
    shards = cfg.shards;
    server_domains = cfg.server_domains;
    coordinators = cfg.coordinators;
    clients = cfg.clients;
    committed;
    sub_histories;
    committed_count;
    aborted;
    cross_shard = total (fun r -> r.c_cross);
    fast_path = total (fun r -> r.c_fast);
    slow_path = total (fun r -> r.c_slow);
    retransmits = total (fun r -> r.c_retransmits);
    wall_seconds;
    throughput = float_of_int committed_count /. wall_seconds;
    abort_rate =
      (if decided = 0 then 0.0
       else float_of_int aborted /. float_of_int decided);
    p50_us = Histogram.percentile lat 50.0;
    p99_us = Histogram.percentile lat 99.0;
    submitted = total (fun r -> r.c_submitted);
    acked = total (fun r -> r.c_acked);
    epoch_changes =
      (match mon_result with Some m -> m.m_epoch_changes | None -> 0);
    view_changes =
      (match mon_result with Some m -> m.m_view_changes | None -> 0);
    fault_events =
      (match mon_result with Some m -> m.m_fault_events | None -> 0);
    link_dropped;
    link_duplicated;
    link_delayed;
    wal_appends;
    wal_bytes;
    wal_fsyncs;
    snapshots;
    snapshot_bytes;
    gc_minor_words;
    gc_majors;
    alloc_per_txn;
    groups;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>shards=%d servers=%dx%d coordinators=%d clients=%d@,\
     committed=%d aborted=%d (abort rate %.1f%%) cross-shard=%d@,\
     fast=%d slow=%d retransmits=%d@,\
     %.2f s wall, %.0f committed txn/s, latency p50=%.0f us p99=%.0f us@]"
    r.shards r.shards r.server_domains r.coordinators r.clients
    r.committed_count r.aborted (100.0 *. r.abort_rate) r.cross_shard
    r.fast_path r.slow_path r.retransmits r.wall_seconds r.throughput r.p50_us
    r.p99_us;
  if r.fault_events > 0 || r.epoch_changes > 0 || r.view_changes > 0 then
    Format.fprintf ppf
      "@,chaos: %d fault events, %d epoch changes, %d view changes, link \
       drop=%d dup=%d delay=%d"
      r.fault_events r.epoch_changes r.view_changes r.link_dropped
      r.link_duplicated r.link_delayed;
  if r.wal_appends > 0 || r.snapshots > 0 then
    Format.fprintf ppf "@,durable: %d wal appends (%d bytes, %d fsyncs), %d snapshots"
      r.wal_appends r.wal_bytes r.wal_fsyncs r.snapshots;
  Format.fprintf ppf "@,alloc: %d minor words/txn (%d total, %d major gcs)"
    r.alloc_per_txn r.gc_minor_words r.gc_majors

let report_json r =
  Printf.sprintf
    "{\"shards\": %d, \"server_domains\": %d, \"coordinators\": %d, \
     \"clients\": %d, \"committed\": %d, \"aborted\": %d, \"cross_shard\": \
     %d, \"abort_rate\": %.4f, \"fast_path\": %d, \"slow_path\": %d, \
     \"retransmits\": %d, \"wall_seconds\": %.4f, \"throughput\": %.1f, \
     \"p50_us\": %.1f, \"p99_us\": %.1f, \"submitted\": %d, \"acked\": %d, \
     \"epoch_changes\": %d, \"view_changes\": %d, \"fault_events\": %d, \
     \"link_dropped\": %d, \"link_duplicated\": %d, \"link_delayed\": %d, \
     \"wal_appends\": %d, \"wal_bytes\": %d, \"wal_fsyncs\": %d, \
     \"snapshots\": %d, \"gc_minor_words\": %d, \"gc_majors\": %d, \
     \"alloc_per_txn\": %d}"
    r.shards r.server_domains r.coordinators r.clients r.committed_count
    r.aborted r.cross_shard r.abort_rate r.fast_path r.slow_path r.retransmits
    r.wall_seconds r.throughput r.p50_us r.p99_us r.submitted r.acked
    r.epoch_changes r.view_changes r.fault_events r.link_dropped
    r.link_duplicated r.link_delayed r.wal_appends r.wal_bytes r.wal_fsyncs
    r.snapshots r.gc_minor_words r.gc_majors r.alloc_per_txn
