(* A Meerkat server node: one whole replica hosted by one OS process,
   speaking the wire protocol over a {!Shim} socket.

   Topology inside the process: [cores] trecord cores (the same
   partitioning as the simulator and the live runtime — a transaction
   is steered to core [Tid.hash tid mod cores]). The shim's loop
   thread owns the socket's receive side, the supervisor and the
   epoch-change machine, and it IS core 0: a request for core 0 runs to
   completion on the thread that received it — receive, handle, reply
   — with no hand-off, as the paper's flow steering delivers a request
   straight to its core (§4.2). Cores [1 .. cores-1] each run on their
   own domain; their requests are steered to that core's mailbox (a
   full mailbox drops the datagram — retransmission recovers), which
   the core drains in bursts and parks on when it is empty. So a
   [--cores 1] node is one domain: the main thread parks in {!wait}
   and the loop thread does all the work. Every core runs the same
   [step] function and answers on the socket itself, through its own
   {!Shim} packer, to the datagram's source address — so a node never
   needs to know where clients live. Execute-phase reads ([Get], and
   [Reads]: every key one transaction reads in this group, answered by
   one [Read_replies]) are answered inline on the loop thread and
   packed with core 0's replies: the
   vstore's key index and entry locks make versioned reads safe from any domain,
   exactly as the live runtime's shared-memory reads.

   Durability (DESIGN.md §12): with [data_dir] set, every finalized
   record is appended to the owning core's write-ahead log (per-core
   files, per-core fsync schedules — no shared commit point, the ZCP
   argument carried to the disk). A core folds its partition into a
   snapshot file carrying the epoch and a [wal_cut] token whenever
   its log has grown past the cut by more than the last snapshot's
   size ({!Mk_durable.Checkpoint.due}), so replay stays within about
   twice the state and checkpoint cost stays proportional to the
   log. A SIGKILLed process reboots by replaying snapshot +
   log-suffix in {!create}, then rejoins the cluster through the
   §5.3.1 epoch change below.

   Failure handling (§5.3): each node runs its own {!Supervisor}, the
   control plane the live monitor runs too, with one observer, [me]. It
   decides; the loop thread carries its heartbeats and view-change
   messages over the wire, hands its record pushes to the cores (core
   0 right there, the others through their inboxes, answering over a
   control mailbox — so the loop thread never touches another core's
   live partition), feeds back what arrives and calls its [tick]. A
   peer that reboots and advertises itself paused is [recoverable] (it
   heartbeats again; this reboot rule is the one failure-handling
   decision the node keeps), so the supervisor asks for the §5.3.1
   epoch change. The shared {!Epoch_change} machine runs it (freeze
   the local cores, gather [Epoch_records] from a majority,
   {!Epoch.merge}, install locally, then retransmit [Epoch_install],
   with a store snapshot to the recovering peers, until every replica
   acks [Epoch_installed]); the loop thread only carries its messages
   over the wire, its freezes and thaws to the cores (core 0 inline,
   the others through their inboxes), fires its retries from [tick]
   and reports its end back to the supervisor. *)

module Timestamp = Mk_clock.Timestamp
module Tid = Timestamp.Tid
module Txn = Mk_storage.Txn
module Trecord = Mk_storage.Trecord
module Quorum = Mk_meerkat.Quorum
module Batch = Mk_meerkat.Batch
module Replica = Mk_meerkat.Replica
module Detector = Mk_meerkat.Detector
module Supervisor = Mk_meerkat.Supervisor
module Epoch = Mk_meerkat.Epoch
module Epoch_change = Mk_meerkat.Epoch_change
module Codec = Mk_wire.Codec
module Mailbox = Mk_live.Mailbox
module Spawn = Mk_live.Spawn
module Obs = Mk_obs.Obs
module Wal = Mk_durable.Wal
module Walcodec = Mk_durable.Walcodec
module Snapshot = Mk_durable.Snapshot
module Recover = Mk_durable.Recover
module Checkpoint = Mk_durable.Checkpoint

(* Messages travel stamped with their shard group id (wire v2): one
   socket fabric can carry several independent groups, and a node
   refuses frames addressed to another group before acting on the
   payload. *)
module Net = Shim.Make (struct
  type msg = int * Codec.t

  let encode_into ~scratch ~out (shard, m) =
    Codec.encode_shard_into ~scratch ~out ~shard m

  let decode_at = Codec.decode_shard_at
end)

type config = {
  me : int;
  shard : int;
  cores : int;
  keys : int;
  core_inbox : int;
  detector : Detector.cfg option;
  rto_us : float;
  data_dir : string option;
  fsync : Wal.policy;
}

let default_config =
  {
    me = 0;
    shard = 0;
    cores = 2;
    keys = 1024;
    core_inbox = 1024;
    detector = None;
    rto_us = 100_000.0;
    data_dir = None;
    fsync = Wal.Every 8;
  }

(* Wall-clock detector timings from one knob, mirroring the live
   runtime's horizon scaling: suspect after 6 missed heartbeats, call
   a record stuck after 8 periods, scan twice a period. *)
let detector_cfg ~heartbeat_ms =
  let hb = heartbeat_ms *. 1000.0 in
  {
    Detector.heartbeat_every = hb;
    heartbeat_timeout = 6.0 *. hb;
    pause_timeout = 12.0 *. hb;
    stuck_timeout = 8.0 *. hb;
    scan_every = 2.0 *. hb;
    epoch_cooldown = 20.0 *. hb;
    give_up_after = 40.0 *. hb;
  }

type core_msg =
  | Net_req of { src : Unix.sockaddr; msg : Codec.t }
  | Net_commit of { tid : Tid.t; commit : bool }
      (** A write-back for a record this core holds, named by its tid:
          no transaction is decoded for it. *)
  | Core_freeze of { gen : int }
      (** Epoch change: stop touching the stores and ack [Frozen];
          drop protocol datagrams until the matching [Core_thaw]. *)
  | Core_thaw of { gen : int }
  | Core_push
      (** Send the detector this core's non-final records. *)
  | Core_quit

type ctl_msg =
  | Records of { core : int; entries : Trecord.entry list }
  | Frozen of { core : int; gen : int }

type stats = {
  me : int;
  committed : int;
  aborted : int;
  validations_ok : int;
  validations_abort : int;
  view_changes : int;
  epoch_changes : int;
  suspected : int list;
  wire_msgs_tx : int;
  wire_msgs_rx : int;
  wire_bytes_tx : int;
  wire_bytes_rx : int;
  wire_dgrams_tx : int;
  wire_dgrams_rx : int;
  wire_decode_errors : int;
  wire_shard_drops : int;
  wire_send_errors : int;
  wal_appends : int;
  wal_bytes : int;
  wal_fsyncs : int;
  wal_replayed : int;
  wal_snapshots_used : int;
  wal_decode_errors : int;
  snapshots : int;
  core_snapshots : int list;
  gc_minor_words : int;
  gc_promoted_words : int;
}

(* Per-core durability tally: bumped only by whoever steps the owning
   core (or the loop thread while that core is frozen), folded into
   the single-threaded Obs registry at [wait]. *)
type tally = {
  mutable t_appends : int;
  mutable t_bytes : int;
  mutable t_fsyncs : int;
  mutable t_snaps : int;
  mutable t_snap_bytes : int;
  mutable t_cut : int;  (** [wal_cut] of this core's latest snapshot. *)
  mutable t_last_bytes : int;  (** Its encoded size; 0 before the first. *)
}

type durable = {
  dir : string;
  wals : Wal.t array;
  framers : Walcodec.framer array;  (** One per WAL, used by its writer. *)
  tallies : tally array;
}

(* One trecord core's private state, owned by whoever steps it: a
   spawned core domain for cores [1 .. cores-1], the shim's loop
   thread for core 0. *)
type core = {
  index : int;
  packer : Net.packer;
      (** The core's reply sender; its tallies fold into [obs] at
          [wait], like the durability tallies. Core 0's also carries
          the loop thread's [Get_reply]s and [Read_replies]. *)
  mutable frozen : int option;
      (** The epoch-change freeze generation in force, if any. *)
}

(* Launched means the loop thread runs (and holds core 0) and the
   other cores' domains were spawned — possibly none of them. *)
type phase = Idle | Running of unit Spawn.handle array

type t = {
  cfg : config;
  replica : Replica.t;
  net : Net.t;
  core0 : core;  (** Stepped inline by the shim's loop thread. *)
  spawned : (core * core_msg Mailbox.t) array;
      (** Cores [1 .. cores-1] with their inboxes, one domain each. *)
  ctl_inbox : ctl_msg Mailbox.t;
  done_box : unit Mailbox.t;
  obs : Obs.t;
  durable : durable option;
  mutable phase : phase;
  mutable final_suspected : int list;
  mutable core0_failure : (exn * Printexc.raw_backtrace) option;
      (** What core 0's step raised, if it did: core 0 is dead from
          then on, and {!wait} re-raises it. *)
  mutable gc_at_launch : float * float;
      (** Process minor and promoted words when {!launch} began. *)
}

let wal_path dir core = Filename.concat dir (Printf.sprintf "core%d.wal" core)
let snap_path dir core = Filename.concat dir (Printf.sprintf "core%d.snap" core)

(* Write one core's image and make it the checkpoint that core's
   log-growth trigger measures against. Called by the owning core, or
   by the loop thread while every core is frozen. *)
let write_checkpoint d (snap : Walcodec.snapshot) =
  let s = Walcodec.encode_snapshot snap in
  Snapshot.write ~path:(snap_path d.dir snap.Walcodec.core) s;
  let tally = d.tallies.(snap.Walcodec.core) in
  tally.t_snaps <- tally.t_snaps + 1;
  tally.t_snap_bytes <- tally.t_snap_bytes + String.length s;
  tally.t_cut <- snap.Walcodec.wal_cut;
  tally.t_last_bytes <- String.length s

(* Every core's image of the whole replica, cut at [wal_cut core]. *)
let checkpoint_all d replica ~epoch ~wal_cut =
  Array.iter (write_checkpoint d)
    (Checkpoint.images ~cores:(Array.length d.wals) ~epoch ~wal_cut
       ~views:(Replica.record_views replica)
       ~rows:(Replica.store_snapshot replica))

(* The persistence callback. [Finalized] fires on the thread stepping
   the owning core (core 0's is the loop thread) — each per-core WAL
   has a single writer, so plain appends and a private tally row
   suffice. [Installed] fires on the loop
   thread while every core is frozen: the merged epoch state
   supersedes whatever the logs say, so write full per-core snapshots
   cutting at the current log lengths. *)
let on_durable t (d : durable) (ev : Replica.durable_event) =
  match ev with
  | Replica.Finalized { core; view } ->
      if core >= 0 && core < Array.length d.wals then begin
        let f = d.framers.(core) in
        Walcodec.encode_record_into f { Walcodec.core; view };
        let tally = d.tallies.(core) in
        (match Wal.append_frame d.wals.(core) f with
        | `Synced -> tally.t_fsyncs <- tally.t_fsyncs + 1
        | `Buffered -> ());
        tally.t_appends <- tally.t_appends + 1;
        tally.t_bytes <- tally.t_bytes + Walcodec.frame_length f
      end
  | Replica.Installed { epoch } ->
      checkpoint_all d t.replica ~epoch ~wal_cut:(fun core ->
          Wal.length d.wals.(core))

(* The versions of a [Reads] frame's keys, in key order, read off the
   receive cursor — or [None] if the replica is paused or crashed,
   which answers no read at all. *)
let read_versions replica keys =
  let n = Codec.keys_count keys in
  let values = Array.make n 0 and wts = Array.make n Timestamp.zero in
  if Replica.read_into replica keys ~key:Codec.key_at ~values ~wts then
    Some (values, wts)
  else None

(* A node keeps ~70 words per transaction (trecord entries, store
   versions), and promoting them through the remembered set is most of
   every node minor pause (OCaml runtime events, 3-node --cores 1
   benchmark shape), so a pause grows with the transactions per minor
   cycle: the heap is sized in transactions, not bytes. When decoding
   stopped allocating, the default 256 Ki-word heap held ~2.6x more of
   them and client p99 rose ~30%; 64 Ki words restored the pause. Once
   the key path and the hot frames stopped allocating too (~490 ->
   ~170 words per transaction), 64 Ki words held ~2.8x more again: node
   pause p50 ~175-200 -> ~420-450 us, client p99 ~585 -> ~825 us. At
   24 Ki words (192 KB) a cycle holds as many transactions as before
   and the pause p50 is ~170-175 us. The client's coordinator domains
   run the same size. *)
let minor_heap_words = 24_576

(* The socket is bound before the replica exists: with [--port auto]
   the launcher needs the port announcement to finish assembling the
   very cluster config that tells this node its replica id and the
   deployment size. *)
type bound = Net.t

let bind ?(port = 0) () : (bound, string) result = Net.bind ~port ()
let bound_port (b : bound) = Net.port b

let new_core net index =
  { index; packer = Net.packer net; frozen = None }

let create (net : bound) (cfg : config) ~n_replicas =
  if cfg.cores < 1 then invalid_arg "Node.create: cores must be >= 1";
  if cfg.shard < 0 || cfg.shard > Mk_wire.Wire.max_shard then
    invalid_arg "Node.create: shard out of range";
  if n_replicas < 3 || n_replicas mod 2 = 0 then
    invalid_arg "Node.create: n_replicas must be odd and >= 3";
  if cfg.me < 0 || cfg.me >= n_replicas then
    invalid_arg "Node.create: me out of range";
  let quorum = Quorum.create ~n:n_replicas in
  let replica = Replica.create ~id:cfg.me ~quorum ~cores:cfg.cores in
  for key = 0 to cfg.keys - 1 do
    Replica.load replica ~key ~value:0
  done;
  Replica.publish replica;
  let obs = Obs.create ~clock:(fun () -> Spawn.wall () *. 1e6) () in
  let durable =
    match cfg.data_dir with
    | None -> None
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        (* Reboot: read whatever the previous incarnation left behind
           and fold it back into the fresh stores before any domain
           spawns. A torn tail or corrupt snapshot degrades (counted
           in [wal.decode_errors]), never faults the boot. *)
        let sources =
          List.init cfg.cores (fun c ->
              {
                Recover.snap = Snapshot.read ~path:(snap_path dir c);
                log = Wal.read_file (wal_path dir c);
              })
        in
        let prior =
          List.exists
            (fun (s : Recover.source) -> s.snap <> None || s.log <> "")
            sources
        in
        let parsed = Recover.parse ~cores:cfg.cores sources in
        Recover.apply replica parsed;
        Obs.note_wal_replayed obs ~snapshots:parsed.snapshots_used
          ~records:parsed.replayed ~errors:parsed.decode_errors;
        let d =
          {
            dir;
            wals =
              Array.init cfg.cores (fun c ->
                  Wal.open_log ~path:(wal_path dir c) ~policy:cfg.fsync);
            framers = Array.init cfg.cores (fun _ -> Walcodec.framer ());
            tallies =
              Array.init cfg.cores (fun _ ->
                  {
                    t_appends = 0;
                    t_bytes = 0;
                    t_fsyncs = 0;
                    t_snaps = 0;
                    t_snap_bytes = 0;
                    t_cut = 0;
                    t_last_bytes = 0;
                  });
          }
        in
        if prior then begin
          (* Compact: fold the replay into fresh snapshots (cut 0),
             then drop the logs. Snapshot-before-truncate is
             crash-safe — dying between the two just replays the same
             prefix again, and replay is idempotent. Then advertise
             ourselves paused: the survivors' detectors drive the
             §5.3.1 epoch change that merges us back. *)
          checkpoint_all d replica ~epoch:parsed.epoch ~wal_cut:(fun _ -> 0);
          Array.iter (fun wal -> Wal.truncate wal ~len:0) d.wals;
          Replica.begin_recovery replica
        end;
        Some d
  in
  let t =
    {
      cfg;
      replica;
      net;
      core0 = new_core net 0;
      spawned =
        Array.init (cfg.cores - 1) (fun i ->
            (new_core net (i + 1), Mailbox.create ~capacity:cfg.core_inbox));
      ctl_inbox = Mailbox.create ~capacity:64;
      done_box = Mailbox.create ~capacity:2;
      obs;
      durable;
      phase = Idle;
      final_suspected = [];
      core0_failure = None;
      gc_at_launch = (0.0, 0.0);
    }
  in
  (match durable with
  | Some d -> Replica.set_durable_hook replica (on_durable t d)
  | None -> ());
  t

let port t = Net.port t.net

(* ------------------------------------------------------------------ *)
(* Cores                                                               *)
(* ------------------------------------------------------------------ *)

(* Core [core]'s step: one message handled to completion — a protocol
   request, a freeze, a thaw or a record push. Every core runs
   this same function: a spawned core applies it to what it drains
   from its inbox, the loop thread applies core 0's to what it
   receives. [report] carries the core's [Records] and [Frozen] to the
   loop thread's control handler. *)
let step t (core : core) ~report =
  let me = t.cfg.me in
  let replica = t.replica in
  let index = core.index in
  let packer = core.packer in
  let reply src msg = Net.pack packer ~dst:src (t.cfg.shard, msg) in
  let handle src (msg : Codec.t) =
    match msg with
    | Codec.Validate { slot; seq; txn; ts; _ } -> (
        match Replica.handle_validate replica ~core:index ~txn ~ts with
        | None -> ()
        | Some status -> reply src (Codec.Validated { slot; seq; replica = me; status }))
    | Codec.Accept { slot; seq; txn; ts; decision; view; _ } -> (
        match Replica.handle_accept replica ~core:index ~txn ~ts ~decision ~view with
        | None -> ()
        | Some r -> reply src (Codec.Accepted { slot; seq; replica = me; reply = r }))
    | Codec.Write_back { txn; ts; commit } ->
        ignore
          (Replica.handle_commit replica ~core:index ~txn ~ts ~commit : unit option)
    | Codec.Coord_change { observer; tid; view } -> (
        match Replica.handle_coord_change replica ~core:index ~tid ~view with
        | None -> ()
        | Some r ->
            reply src
              (Codec.Coord_reply { observer; replica = me; tid; view; reply = r }))
    | Codec.Vc_accept { observer; txn; ts; decision; view } -> (
        match Replica.handle_accept replica ~core:index ~txn ~ts ~decision ~view with
        | None -> ()
        | Some r ->
            reply src
              (Codec.Vc_accept_reply
                 { observer; replica = me; tid = txn.Txn.tid; view; reply = r }))
    | _ ->
        (* The steering layer only routes the five kinds above. *)
        ()
  in
  (* Durable checkpoint, written by the core that owns the data once
     its log has outgrown the last image: its own trecord partition,
     its own vstore keys (the table lock makes the filtered scan
     safe), its own log length — no cross-core coordination (ZCP). *)
  let checkpoint () =
    match t.durable with
    | None -> ()
    | Some d ->
        let tally = d.tallies.(index) in
        let log_len = Wal.length d.wals.(index) in
        if Checkpoint.due ~log_len ~cut:tally.t_cut ~last_bytes:tally.t_last_bytes
        then
          write_checkpoint d
            (Checkpoint.image ~cores:t.cfg.cores ~core:index
               ~epoch:(Replica.epoch replica) ~wal_cut:log_len
               ~views:(Replica.core_record_views replica ~core:index)
               ~rows:(Replica.store_snapshot replica))
  in
  (* A write-back may append to this core's log and fsync it: replies
     already packed leave first, not behind the disk. *)
  let before_write_back () = if t.durable <> None then Net.flush packer in
  function
  | Net_req { src; msg } ->
      (* A frozen core drops protocol datagrams: the epoch change owns
         the stores; retransmission recovers, as for any other loss. *)
      if core.frozen = None then begin
        (match msg with Codec.Write_back _ -> before_write_back () | _ -> ());
        handle src msg;
        (* Handling is the only way this core's log grows, so the
           suffix past the last cut stays bounded under any load. *)
        checkpoint ()
      end
  | Net_commit { tid; commit } ->
      if core.frozen = None then begin
        before_write_back ();
        (* The receive path saw the record held on this same thread,
           with nothing stepped since: it is still held. *)
        ignore (Replica.handle_commit_held replica ~core:index ~tid ~commit : bool);
        checkpoint ()
      end
  | Core_freeze { gen } ->
      core.frozen <- Some gen;
      (* Re-acks on duplicate freezes cover a dropped [Frozen]. *)
      report (Frozen { core = index; gen })
  | Core_thaw { gen } -> (
      match core.frozen with
      | Some g when g = gen -> core.frozen <- None
      | _ -> ())
  | Core_push ->
      if core.frozen = None then
        report
          (Records
             {
               core = index;
               entries = Trecord.core_pending (Replica.trecord replica) ~core:index;
             })
  | Core_quit ->
      (* Ends a spawned core's loop, which intercepts it; core 0 is
         never sent one. *)
      ()

(* A spawned core's domain: drain a burst, park when the inbox is
   empty, flush the replies once per burst, end on [Core_quit]. *)
let core_loop t (core : core) inbox =
  let quit = ref false in
  let step =
    let step =
      step t core ~report:(fun m ->
          ignore (Mailbox.try_push t.ctl_inbox m : bool))
    in
    function Core_quit -> quit := true | msg -> step msg
  in
  while not !quit do
    if Mailbox.drain inbox ~max:64 step = 0 then
      (* Z8: this parking pop IS the core's idle wait — the core has
         nothing to do until a message arrives, so blocking here is
         the design, not a hazard. *)
      step (Mailbox.pop inbox [@mk_lint.allow "Z8"]);
    (* One flush per burst: replies to the same peer leave coalesced. *)
    Net.flush core.packer
  done

(* ------------------------------------------------------------------ *)
(* Loop thread: steering, supervisor, epoch changes                     *)
(* ------------------------------------------------------------------ *)

(* Replica ids and core tags taken straight off the wire index the
   supervisor's and the epoch-change machine's per-replica tables and
   the trecord partitions, and count toward quorum majorities: one
   well-framed datagram carrying an out-of-range id (hostile peer,
   misconfigured deployment, bit-flipped genuine frame) must be a
   counted drop like any other undecodable input — never an
   [Invalid_argument] on the loop thread, and never a phantom quorum
   vote. *)
let wire_ids_ok ~n ~cores (msg : Codec.t) =
  let replica_ok r = r >= 0 && r < n in
  let core_ok (c, _) = c >= 0 && c < cores in
  match msg with
  | Codec.Heartbeat { from_; _ } -> replica_ok from_
  | Codec.Coord_reply { replica; _ } | Codec.Vc_accept_reply { replica; _ } ->
      replica_ok replica
  | Codec.Epoch_change { initiator; _ } -> replica_ok initiator
  | Codec.Epoch_records { replica; records; _ } ->
      replica_ok replica && List.for_all core_ok records
  | Codec.Epoch_install { records; _ } -> List.for_all core_ok records
  | Codec.Epoch_installed { replica; _ } -> replica_ok replica
  | _ -> true

let launch t ~cluster =
  match Cluster_config.sockaddrs cluster with
  | Error _ as e -> e
  | Ok addrs ->
      (* The process's words so far: this is its only domain yet, and
         [Gc.minor_words] counts its minor heap in use, which nothing
         has promoted. *)
      t.gc_at_launch <- (Gc.minor_words (), (Gc.quick_stat ()).Gc.promoted_words);
      let cfg = t.cfg in
      let me = cfg.me in
      let n = Array.length cluster in
      if n <= me then invalid_arg "Node.launch: cluster smaller than me";
      let r = t.replica in
      let quorum = Replica.quorum r in
      let now () = Spawn.wall () *. 1e6 in
      let send ~dst msg = Net.send t.net ~dst (cfg.shard, msg) in
      (* Z7: the machines name replica ids in [0, n) only. *)
      let[@mk_lint.allow "Z7"] addr p = addrs.(p) in
      (* Last heartbeat wall-clock per peer, for the reboot rule. *)
      let hb_seen = Array.make n neg_infinity in
      let sup =
        Option.map
          (fun (d : Detector.cfg) ->
            Supervisor.create ~cfg:d ~n ~cores:cfg.cores ~observers:[ me ]
              ~rto:cfg.rto_us ~now:(now ())
              {
                Supervisor.up = (fun _ -> true);
                paused = (fun _ -> Replica.is_paused r);
                available = (fun _ -> Replica.is_available r);
                recoverable =
                  (fun ~now p ->
                    (* A suspect that still heartbeats (a rebooted
                       paused process) can be merged back right now; a
                       silent one must reboot first, and this node never
                       readmits itself. Z7: [p] is a detector id in
                       [0, n). *)
                    p <> me
                    && now -. (hb_seen.(p) [@mk_lint.allow "Z7"])
                       <= d.Detector.heartbeat_timeout);
              })
          cfg.detector
      in
      (* Core 0 runs on this thread: its [Records] and [Frozen] wait
         here for the next [drain_ctl], like the other cores' do in
         [ctl_inbox] — never handled from inside the step that made
         them. *)
      let core0_ctl : ctl_msg Queue.t = Queue.create () in
      (* Core 0's step runs inside the shim's [deliver], whose
         catch-all would count a raise (an assertion, an
         [Owner.Violation] under MK_CHECK) as a decode error. So a
         raise kills core 0 here instead, as it ends a spawned core's
         domain: core 0 steps nothing more, and {!wait} re-raises the
         exception, as [Spawn.join] does for the other cores. *)
      let step0 =
        let step = step t t.core0 ~report:(fun m -> Queue.add m core0_ctl) in
        fun msg ->
          if Option.is_none t.core0_failure then
            try step msg
            with e -> t.core0_failure <- Some (e, Printexc.get_raw_backtrace ())
      in
      (* Control for core [core]: core 0's is stepped right here. The
         others' is a [push], not a [try_push]: control messages must
         not be lost, and a core draining its inbox unblocks the push
         promptly. Z7: every caller passes [core] in [0, cores), so
         [core - 1] indexes [spawned] when [core >= 1]. *)
      let[@mk_lint.allow "Z7"] control core msg =
        if core = 0 then step0 msg
        else Mailbox.push (snd t.spawned.(core - 1)) msg
      in
      (* The §5.3.1 epoch change: {!Epoch_change} decides, the loop
         thread carries its messages over the wire and its freezes and
         thaws to the cores. Performing an action never reenters the
         machine: core 0's [Frozen] waits in [core0_ctl]. *)
      let ec =
        Epoch_change.create ~me ~n ~cores:cfg.cores ~quorum ~rto:cfg.rto_us
          ~give_up_after:
            (match cfg.detector with
            | Some d -> d.Detector.give_up_after
            | None -> 40.0 *. cfg.rto_us)
          ~epoch:(Replica.epoch r) ~addr
          {
            Epoch_change.handle_epoch_change = Replica.handle_epoch_change r;
            record_views = (fun () -> Replica.record_views r);
            handle_epoch_complete = Replica.handle_epoch_complete r;
            store_snapshot = (fun () -> Replica.store_snapshot r);
            resume = Replica.resume r;
            merge = (fun reports -> Epoch.merge ~quorum ~reports);
          }
      in
      let ec_acts : Unix.sockaddr Epoch_change.action Batch.t = Batch.create () in
      let ec_perform : Unix.sockaddr Epoch_change.action -> unit = function
        | Change { dst; epoch } ->
            send ~dst (Codec.Epoch_change { initiator = me; epoch })
        | Records { dst; epoch; records } ->
            send ~dst (Codec.Epoch_records { replica = me; epoch; records })
        | Install { dst; epoch; records; store } ->
            send ~dst (Codec.Epoch_install { epoch; records; store })
        | Installed { dst; epoch } ->
            send ~dst (Codec.Epoch_installed { replica = me; epoch })
        | Freeze { core; gen } -> control core (Core_freeze { gen })
        | Thaw { core; gen } -> control core (Core_thaw { gen })
        | Finished { success; recovering } ->
            Option.iter
              (fun s ->
                Supervisor.epoch_change_finished s ~now:(now ()) ~success ~recovering)
              sup;
            if success then Obs.note_epoch_change t.obs
      in
      let ec_feed f =
        Batch.clear ec_acts;
        f ~into:ec_acts;
        Batch.iter ec_perform ec_acts
      in
      (* The failure detector and the §5.3.2 view changes: {!Supervisor}
         decides, the loop thread carries its messages over the wire and
         its record pushes to the cores, and hands its epoch-change
         requests to [ec]. Performing an action never reenters the
         supervisor. *)
      let sup_acts : Supervisor.action Batch.t = Batch.create () in
      let sup_perform : Supervisor.action -> unit = function
        | Heartbeat { from_; dst; paused } ->
            send ~dst:(addr dst) (Codec.Heartbeat { from_; paused })
        | Push_records ->
            (* A full inbox drops the request; the next comes half a
               scan later. *)
            step0 Core_push;
            Array.iter
              (fun (_, inbox) -> ignore (Mailbox.try_push inbox Core_push : bool))
              t.spawned
        | Coord_change { replica; observer; tid; view } ->
            send ~dst:(addr replica) (Codec.Coord_change { observer; tid; view })
        | Vc_accept { replica; observer; txn; ts; decision; view } ->
            send ~dst:(addr replica) (Codec.Vc_accept { observer; txn; ts; decision; view })
        | Write_back { observer = _; txn; ts; commit } ->
            Array.iter (fun dst -> send ~dst (Codec.Write_back { txn; ts; commit })) addrs
        | Start_epoch_change { recovering } ->
            ec_feed
              (Epoch_change.start ec ~epoch:(Replica.epoch r + 1) ~recovering ~now:(now ()))
      in
      let view_changes = ref 0 in
      let sup_feed f =
        match sup with
        | None -> ()
        | Some s ->
            Batch.clear sup_acts;
            f s ~into:sup_acts;
            Batch.iter sup_perform sup_acts;
            (* A finished view change reaches the registry right away. *)
            while !view_changes < Supervisor.view_changes s do
              Obs.note_view_change t.obs;
              incr view_changes
            done
      in
      (* ------------------------------------------------------------- *)
      (* Core 0's requests run to completion right here; the others
         cross to their core's inbox. Z7: [Tid.hash] is masked
         non-negative, so [hash mod cores] lands in 0..cores-1 and
         [core - 1] indexes [spawned] for any wire tid. *)
      let[@mk_lint.allow "Z7"] steer (src : Unix.sockaddr) (msg : Codec.t) tid =
        let core = Tid.hash tid mod cfg.cores in
        if core = 0 then step0 (Net_req { src; msg })
        else
          (* A full core inbox drops the datagram — retransmission
             recovers, like any other network loss. *)
          ignore
            (Mailbox.try_push (snd t.spawned.(core - 1)) (Net_req { src; msg })
              : bool)
      in
      (* A frame stamped for another shard group is a counted drop
         before the payload is acted on: the groups are independent
         deployments that merely share a socket fabric, and a crossed
         port must never inject traffic (or a phantom quorum vote) into
         the wrong group. *)
      let foreign shard =
        if shard = cfg.shard then false
        else begin
          Obs.note_wire_shard_drop t.obs;
          true
        end
      in
      let on_message src ~shard (msg : Codec.t) =
        if foreign shard then ()
        else if not (wire_ids_ok ~n ~cores:cfg.cores msg) then
          Obs.note_wire_decode_error t.obs
        else
        match msg with
        | Codec.Get { slot; seq; key; _ } -> (
            match Replica.handle_get r ~key with
            | None -> ()
            | Some (value, wts) ->
                (* Packed with core 0's replies; [tick] flushes them. *)
                Net.pack t.core0.packer ~dst:src
                  ( cfg.shard,
                    Codec.Get_reply { slot; seq; replica = me; key; value; wts } ))
        | Codec.Reads _ ->
            (* Taken from the cursor ([frames] below), never built. *)
            ()
        | Codec.Validate { txn; _ } | Codec.Vc_accept { txn; _ } ->
            steer src msg txn.Txn.tid
        | Codec.Accept { txn; _ } | Codec.Write_back { txn; _ } ->
            steer src msg txn.Txn.tid
        | Codec.Coord_change { tid; _ } -> steer src msg tid
        | Codec.Heartbeat { from_; paused } -> (
            let now = now () in
            (* Z7: [from_] was range-checked by [wire_ids_ok]. *)
            (hb_seen.(from_) <- now) [@mk_lint.allow "Z7"];
            match sup with
            | Some s -> Supervisor.heartbeat s ~now ~observer:me ~from_ ~paused
            | None -> ())
        | Codec.Coord_reply { observer; replica; tid; view; reply } ->
            sup_feed (fun s ->
                Supervisor.coord_reply s ~now:(now ()) ~tid ~observer ~view ~replica reply)
        | Codec.Vc_accept_reply { observer; replica; tid; view; reply } ->
            sup_feed (fun s ->
                Supervisor.accept_reply s ~now:(now ()) ~tid ~observer ~view ~replica reply)
        | Codec.Epoch_change { initiator; epoch } ->
            ec_feed (Epoch_change.on_change ec ~initiator ~epoch ~now:(now ()))
        | Codec.Epoch_records { replica; epoch; records } ->
            ec_feed (Epoch_change.on_records ec ~replica ~epoch ~records)
        | Codec.Epoch_install { epoch; records; store } ->
            ec_feed (Epoch_change.on_install ec ~src ~epoch ~records ~store ~now:(now ()))
        | Codec.Epoch_installed { replica; epoch } ->
            ec_feed (Epoch_change.on_installed ec ~replica ~epoch)
        | Codec.Get_reply _ | Codec.Read_replies _ | Codec.Validated _
        | Codec.Accepted _ ->
            (* Client-side traffic; a server node is never its
               destination. *)
            ()
        | Codec.Shutdown ->
            t.final_suspected <-
              (match sup with
              | Some s -> Supervisor.suspected s ~now:(now ()) ~observer:me
              | None -> []);
            ignore (Mailbox.try_push t.done_box () : bool)
      in
      (* The receive path: the hot kinds straight from the shim's
         cursor, everything else built as a message for [on_message].
         Client-side kinds are only shard-checked, as [on_message]
         would. *)
      let client_kind _ ~shard ~slot:_ ~seq:_ ~replica:_ _ = ignore (foreign shard : bool) in
      let frames =
        Codec.dispatcher
          {
            Codec.validated = client_kind;
            accepted = client_kind;
            read_replies = client_kind;
            reads =
              (fun src ~shard ~coord:_ ~slot ~seq keys ->
                if not (foreign shard) then
                  (* One reply for the whole batch, or none at all from
                     a paused or crashed replica (the client rotates
                     the batch to the next replica on silence). *)
                  match read_versions r keys with
                  | None -> ()
                  | Some (values, wts) ->
                      Net.pack t.core0.packer ~dst:src
                        ( cfg.shard,
                          Codec.Read_replies { slot; seq; replica = me; values; wts } ));
            (* A write-back steered to core 0 whose record core 0 holds
               is named by its tid alone; the others are built, and
               those for cores 1.. cross their mailbox as before. *)
            held =
              (fun _ tid ->
                Tid.hash tid mod cfg.cores = 0
                && Trecord.mem (Replica.trecord r) ~core:0 tid);
            write_back_held =
              (fun _ ~shard tid ~commit ->
                if not (foreign shard) then step0 (Net_commit { tid; commit }));
            other = on_message;
          }
      in
      let deliver ~src c = Codec.dispatch frames src c in
      let on_ctl = function
        | Records { core; entries } ->
            Option.iter (fun s -> Supervisor.records s ~observer:me ~core entries) sup
        | Frozen { core; gen } -> ec_feed (Epoch_change.core_frozen ec ~core ~gen)
      in
      let rec drain_ctl () =
        match Queue.take_opt core0_ctl with
        | Some m ->
            on_ctl m;
            drain_ctl ()
        | None -> (
            match Mailbox.try_pop t.ctl_inbox with
            | Some m ->
                on_ctl m;
                drain_ctl ()
            | None -> ())
      in
      let tick ~now_us =
        (* Once per loop iteration, after the receive burst: core 0's
           replies and the [Get_reply]s leave coalesced. *)
        Net.flush t.core0.packer;
        drain_ctl ();
        (* Both checked here so an idle tick allocates no closure. *)
        (match sup with
        | Some s when now_us >= Supervisor.next_due s -> sup_feed (Supervisor.tick ~now:now_us)
        | Some _ | None -> ());
        if now_us >= Epoch_change.next_due ec then
          ec_feed (Epoch_change.fire_due ec ~now:now_us)
      in
      (* A spawned domain starts with the runtime's default minor heap,
         not the launching domain's: carry the node process's size
         (bin/meerkat_node.ml) over to every core. *)
      let minor_heap_size = (Gc.get ()).minor_heap_size in
      t.phase <-
        Running
          (Array.map
             (fun (core, inbox) ->
               Spawn.spawn (fun () ->
                   Gc.set { (Gc.get ()) with minor_heap_size };
                   core_loop t core inbox))
             t.spawned);
      Net.start_receiver t.net ~obs:t.obs ~tick deliver;
      Ok ()

(* Route the local trigger through the wire path: the shim loop
   delivers the frame to itself, so the suspicion latch and the
   done-signal behave exactly as for a remote [Shutdown]. Before
   [launch] there is no loop thread; signal directly. *)
let shutdown t =
  match t.phase with
  | Idle -> ignore (Mailbox.try_push t.done_box () : bool)
  | Running _ ->
      let self = Unix.ADDR_INET (Unix.inet_addr_loopback, Net.port t.net) in
      Net.send t.net ~dst:self (t.cfg.shard, Codec.Shutdown)

let wait t =
  Mailbox.pop t.done_box;
  let joined =
    match t.phase with
    | Idle -> []
    | Running handles ->
        Array.iter (fun (_, inbox) -> Mailbox.push inbox Core_quit) t.spawned;
        Array.to_list handles
        |> List.filter_map (fun h ->
               match Spawn.join h with
               | () -> None
               | exception e -> Some (e, Printexc.get_raw_backtrace ()))
  in
  t.phase <- Idle;
  Net.stop t.net;
  (* The loop thread has stopped: a core that raised — core 0 on it,
     or a spawned one on its domain — fails the node here. *)
  (match Option.to_list t.core0_failure @ joined with
  | (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | [] -> ());
  (* Cores and loop thread are quiescent: fold the per-core send and
     durability tallies into the (single-threaded) registry, and let
     the close flush any group-commit tail. *)
  Net.fold_tally t.core0.packer t.obs;
  Array.iter (fun ((c : core), _) -> Net.fold_tally c.packer t.obs) t.spawned;
  (match t.durable with
  | None -> ()
  | Some d ->
      Array.iter
        (fun ta ->
          Obs.note_wal_appends t.obs ~appends:ta.t_appends ~bytes:ta.t_bytes
            ~fsyncs:ta.t_fsyncs;
          Obs.note_snapshots t.obs ~count:ta.t_snaps ~bytes:ta.t_snap_bytes)
        d.tallies;
      Array.iter Wal.close d.wals);
  let c name = Obs.counter_value t.obs name in
  (* Every other domain has been joined and the loop thread stopped.
     [Gc.quick_stat] counts a domain's words at its minor collections
     and keeps a joined domain's, so one last collection folds in the
     minor heap in use (its promotions count too): the counters then
     hold the whole process. *)
  Gc.minor ();
  let gc = Gc.quick_stat () in
  let minor0, promoted0 = t.gc_at_launch in
  {
    me = t.cfg.me;
    committed = Replica.committed t.replica;
    aborted = Replica.aborted t.replica;
    validations_ok = Replica.validations_ok t.replica;
    validations_abort = Replica.validations_abort t.replica;
    view_changes = c "recovery.view_changes";
    epoch_changes = c "recovery.epoch_changes";
    suspected = t.final_suspected;
    wire_msgs_tx = c "wire.msgs_tx";
    wire_msgs_rx = c "wire.msgs_rx";
    wire_bytes_tx = c "wire.bytes_tx";
    wire_bytes_rx = c "wire.bytes_rx";
    wire_dgrams_tx = c "wire.dgrams_tx";
    wire_dgrams_rx = c "wire.dgrams_rx";
    wire_decode_errors = c "wire.decode_errors";
    wire_shard_drops = c "wire.shard_drops";
    wire_send_errors = c "wire.send_errors";
    wal_appends = c "wal.appends";
    wal_bytes = c "wal.bytes";
    wal_fsyncs = c "wal.fsyncs";
    wal_replayed = c "wal.replayed";
    wal_snapshots_used = c "wal.snapshots_used";
    wal_decode_errors = c "wal.decode_errors";
    snapshots = c "snapshot.count";
    core_snapshots =
      (match t.durable with
      | None -> []
      | Some d -> Array.to_list (Array.map (fun ta -> ta.t_snaps) d.tallies));
    gc_minor_words = int_of_float (gc.Gc.minor_words -. minor0);
    gc_promoted_words = int_of_float (gc.Gc.promoted_words -. promoted0);
  }

let obs t = t.obs
let replica t = t.replica

let stats_json (s : stats) =
  Printf.sprintf
    "{\"me\": %d, \"committed\": %d, \"aborted\": %d, \"validations_ok\": %d, \
     \"validations_abort\": %d, \"view_changes\": %d, \"epoch_changes\": %d, \
     \"suspected\": [%s], \"wire_msgs_tx\": %d, \"wire_msgs_rx\": %d, \
     \"wire_bytes_tx\": %d, \"wire_bytes_rx\": %d, \"wire_dgrams_tx\": %d, \
     \"wire_dgrams_rx\": %d, \"wire_decode_errors\": %d, \
     \"wire_shard_drops\": %d, \"wire_send_errors\": %d, \
     \"wal_appends\": %d, \"wal_bytes\": %d, \"wal_fsyncs\": %d, \
     \"wal_replayed\": %d, \"wal_snapshots_used\": %d, \
     \"wal_decode_errors\": %d, \"snapshots\": %d, \"gc_minor_words\": %d, \
     \"gc_promoted_words\": %d}"
    s.me s.committed s.aborted s.validations_ok s.validations_abort
    s.view_changes s.epoch_changes
    (String.concat ", " (List.map string_of_int s.suspected))
    s.wire_msgs_tx s.wire_msgs_rx s.wire_bytes_tx s.wire_bytes_rx
    s.wire_dgrams_tx s.wire_dgrams_rx s.wire_decode_errors s.wire_shard_drops
    s.wire_send_errors s.wal_appends s.wal_bytes
    s.wal_fsyncs s.wal_replayed s.wal_snapshots_used s.wal_decode_errors
    s.snapshots s.gc_minor_words s.gc_promoted_words
