(** A Meerkat server node: one whole replica in one OS process,
    speaking the wire protocol over UDP (DESIGN.md §11), optionally
    persisting to a per-core WAL + snapshot data directory
    (DESIGN.md §12).

    The third execution backend, same protocol code as the other two:
    the replica's trecord is split into [cores] cores (steering by
    [Tid.hash mod cores], as everywhere else), and the node runs to
    completion. The shim's loop thread is core 0: it receives, and
    handles core 0's requests and execute-phase [Get]s right there
    (the vstore's key index and entry locks make the reads safe), packing the
    replies into core 0's shim packer and flushing it once per loop
    iteration. Cores [1 .. cores-1] run on [cores - 1] spawned
    domains; each drains its mailbox in bursts, parks on it when it is
    empty, and answers on the socket itself through its own packer,
    flushed once per burst. A [cores = 1] node is therefore a single
    domain with no mailbox hop. The loop thread also runs this node's
    own {!Mk_meerkat.Supervisor} (observer [me]): it carries its
    heartbeats and §5.3.2 view-change messages over the wire, feeds it
    peer heartbeats and the non-final records each core reports when
    asked, and runs the §5.3.1 epoch changes it asks for, for
    recoverable peers, through {!Mk_meerkat.Epoch_change}.

    With [data_dir] set, every finalized record is appended to the
    owning core's log, and each core checkpoints its own partition
    whenever its log has grown past the last checkpoint's cut by more
    than that checkpoint's size ({!Mk_durable.Checkpoint.due}) —
    per-core files, per-core fsync schedules, no shared commit point,
    no timer. A SIGKILLed process reboots by replaying snapshot + log suffix in
    {!create}, then advertises itself paused; a survivor's detector
    notices the paused heartbeats and initiates the epoch change that
    merges the rebooted replica back in.

    Lifecycle: {!bind} the socket (reserving the port — the
    [--port auto] handshake reports it before the cluster config
    exists), {!create} the replica once the config names this node's
    id and the deployment size (replaying [data_dir] if it holds a
    previous incarnation), {!launch} with the final membership, then
    {!wait} until a [Shutdown] frame (or {!shutdown}) arrives. *)

type config = {
  me : int;  (** This node's replica id (its line in the config). *)
  shard : int;
      (** This node's shard group (DESIGN.md §13). Every frame it
          sends is stamped with it; a well-formed frame stamped for
          another group is counted ([wire.shard_drops]) and dropped
          before the payload is acted on. [0] (the default) is a
          single-group deployment. *)
  cores : int;
      (** Trecord cores: core 0 on the shim's loop thread, one spawned
          domain for each of the others. *)
  keys : int;  (** Pre-loaded key space, values 0. *)
  core_inbox : int;
      (** Mailbox capacity (power of two) of each spawned core; core 0
          has no mailbox. *)
  detector : Mk_meerkat.Detector.cfg option;
      (** [None] disables heartbeats, suspicion, view changes and
          epoch-change initiation (answering a peer's epoch change
          still works). *)
  rto_us : float;  (** View/epoch-change retransmission base. *)
  data_dir : string option;
      (** Where the per-core [coreN.wal] / [coreN.snap] files live
          ({!wal_path}, {!snap_path}); [None] runs without durability
          (the pre-WAL behaviour). Core [c] rewrites [coreN.snap]
          once its log holds more bytes past the snapshot's [wal_cut]
          than the snapshot itself, so a reboot replays at most about
          twice the state; every completed epoch install and every
          reboot compaction also snapshots all cores. *)
  fsync : Mk_durable.Wal.policy;
      (** When appends reach the platter; see {!Mk_durable.Wal.policy}. *)
}

val default_config : config

val detector_cfg : heartbeat_ms:float -> Mk_meerkat.Detector.cfg
(** Wall-clock detector timings from one knob (suspect after 6 missed
    heartbeats, records stuck after 8 periods). *)

type t

type stats = {
  me : int;
  committed : int;
  aborted : int;
  validations_ok : int;
  validations_abort : int;
  view_changes : int;
  epoch_changes : int;
      (** §5.3.1 epoch changes this node initiated to completion. *)
  suspected : int list;
      (** Peers this node still suspected at shutdown. *)
  wire_msgs_tx : int;
      (** Frames sent, by the shim thread and by every core. *)
  wire_msgs_rx : int;
  wire_bytes_tx : int;
  wire_bytes_rx : int;
  wire_dgrams_tx : int;
      (** UDP datagrams sent (one per successful [sendto]), by the
          shim thread and by every core; [wire_msgs_tx] over this is
          the coalescing factor. *)
  wire_dgrams_rx : int;  (** UDP datagrams received. *)
  wire_decode_errors : int;
  wire_shard_drops : int;
      (** Well-formed frames stamped for another shard group. *)
  wire_send_errors : int;
      (** Frames dropped at send because no retransmit could deliver
          them (e.g. larger than one UDP datagram). *)
  wal_appends : int;
  wal_bytes : int;
  wal_fsyncs : int;
  wal_replayed : int;
      (** Log records replayed at boot, past the snapshot cuts. *)
  wal_snapshots_used : int;
      (** Snapshot images restored at boot.
          [wal_replayed + wal_snapshots_used > 0] proves this process
          rebooted from a previous incarnation's data directory — a
          snapshot taken just before the crash can leave an empty log
          suffix, so neither field alone is the reboot witness. *)
  wal_decode_errors : int;
  snapshots : int;
  core_snapshots : int list;
      (** Snapshots written per core (element [c] for core [c]),
          including install and reboot-compaction images; [[]]
          without a data directory. *)
  gc_minor_words : int;
  gc_promoted_words : int;
      (** Words the whole process allocated on, and promoted from,
          the minor heaps of all its domains while it served: from
          {!launch} (after the keys are loaded) to {!wait}'s return. *)
}

type bound
(** A bound socket without a replica yet — what the [--port auto]
    handshake announces. *)

val bind : ?port:int -> unit -> (bound, string) result
(** Bind the UDP socket ([port] 0 = ephemeral). *)

val bound_port : bound -> int

val create : bound -> config -> n_replicas:int -> t
(** Create the replica behind the bound socket; if [data_dir] holds a
    previous incarnation's files, replay them (snapshot + log suffix),
    compact, and mark the replica paused-for-recovery. Raises
    [Invalid_argument] on a nonsensical config ([cores] < 1,
    [n_replicas] not odd >= 3, [me] or [shard] out of range). *)

val port : t -> int

val minor_heap_words : int
(** The minor heap a node process and each of its core domains run
    (24 Ki words): a minor pause grows with the transactions one
    cycle holds. {!Client_driver}'s coordinator domains use it too. *)

val launch : t -> cluster:Cluster_config.t -> (unit, string) result
(** Spawn the domains of cores [1 .. cores-1] (none at [cores = 1])
    and start the shim loop, which runs core 0. Errors if the cluster
    endpoints do not resolve. *)

val wait : t -> stats
(** Block until shutdown, then stop cores and socket, fold the
    per-core send and durability tallies, close the logs and
    report. Re-raises, once the socket is stopped, the exception that
    ended a core, core 0 included: a core whose step raised handles
    nothing more, and the node fails here. *)

val shutdown : t -> unit
(** Local shutdown trigger (tests); remote peers send the [Shutdown]
    frame instead. *)

val obs : t -> Mk_obs.Obs.t
(** The node's observability handle ([--metrics] dumps it). *)

val replica : t -> Mk_meerkat.Replica.t
(** The hosted replica, for inspecting its final state after {!wait}. *)

val wal_path : string -> int -> string
(** [wal_path dir core]: core [core]'s log file under [data_dir]. *)

val snap_path : string -> int -> string
(** [snap_path dir core]: core [core]'s snapshot file. *)

val stats_json : stats -> string
(** One JSON object, the node's exit report to the launcher. *)
