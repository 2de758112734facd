(** Closed-loop clients driving S >= 1 shard groups of {!Node}
    processes over UDP — the cluster backend's only client, the
    cross-process mirror of the live runtime's coordinator domains
    (DESIGN.md §11, §13).

    Each coordinator domain owns one poll-mode shim socket serving
    every group, its RNG, workload stream, read table and attempt
    table (coordinators share nothing; results merge after join), and
    runs the node's minor heap ({!Node.minor_heap_words}). A
    transaction first resolves its read set with one [Reads] frame per
    involved group, carrying all its keys there, against one replica
    of that group — the whole batch rotating to the next replica on
    timeout, the paper's closest-replica read with failover
    ({!Read_table}) — then
    commits through the client-side 2PC of {!Mk_shard.Driver}: one
    {!Mk_meerkat.Protocol} attempt per involved group, held in a
    {!Mk_meerkat.Attempts} table, decided without write-back; the
    global outcome is the conjunction, broadcast only then. One group
    is simply the one-shard case. Frames are stamped with their
    group's index; a reply stamped otherwise is a counted
    [wire.shard_drops] drop. *)

type workload_kind = Ycsb_t | Rmw_pair | Retwis

type config = {
  coordinators : int;  (** Driver domains. *)
  clients : int;  (** Closed-loop clients, spread round-robin. *)
  keys : int;  (** Global keyspace, spread over the groups. *)
  theta : float;
  workload : workload_kind;
  cross : float;
      (** Probability a multi-key transaction spans more than one
          group (the {!Mk_workload.Workload.locality} knob); unused
          with one group. *)
  txns_per_client : int;
  duration : float option;  (** Overrides [txns_per_client] (seconds). *)
  seed : int;
  rto_us : float;  (** Commit-phase retransmission base (doubles, capped). *)
  grace_us : float;  (** Fast-path grace (see {!Mk_meerkat.Protocol}). *)
  get_rto_us : float;  (** Execute-phase read timeout before rotating. *)
}

val default_config : config

type result = {
  committed : (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list;
      (** Every acknowledged commit over global keys (merged across
          groups via {!Mk_shard.History.merge}) — the history the
          checker replays. *)
  sub_histories : (int * (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list) list;
      (** The same commits as per-group sub-histories over local keys
          (ascending by group). *)
  committed_count : int;
  aborted : int;
  cross_shard : int;  (** Acknowledged transactions that spanned groups. *)
  fast_path : int;  (** Per-group sub-attempts, not global transactions. *)
  slow_path : int;
  retransmits : int;
  submitted : int;  (** Transactions launched. *)
  acked : int;  (** Transactions whose outcome reached their client. *)
  wall_seconds : float;
  throughput : float;
  abort_rate : float;
  p50_us : float;
      (** Latency from the stamp mint (the end of the execute phase)
          to the global decision. *)
  p99_us : float;
  wire_msgs_tx : int;
  wire_msgs_rx : int;
  wire_dgrams_tx : int;
      (** UDP datagrams sent: one per successful [sendto], however
          many frames it carries. *)
  wire_dgrams_rx : int;  (** UDP datagrams received. *)
  wire_decode_errors : int;
  wire_shard_drops : int;
  minor_heap_words : int;
      (** The smallest minor heap (words) a coordinator domain ran. *)
}

val run_groups :
  config -> clusters:Cluster_config.t array -> (result, string) Stdlib.result
(** Drive the whole workload against [clusters] — one node fleet per
    group, all of the same (odd) size; fleet [s] must have been
    launched with shard stamp [s] and its share of the keyspace under
    {!Mk_shard.Router.Mod} placement. Errors if any endpoint fails to
    resolve; raises [Invalid_argument] on a malformed config (no
    fleet, fleets of unequal size, [cross] outside \[0, 1\], fewer
    clients than coordinators). *)

val run : config -> cluster:Cluster_config.t -> (result, string) Stdlib.result
(** [run cfg ~cluster] is [run_groups cfg ~clusters:[| cluster |]]. *)

val shutdown :
  ?shard:int -> cluster:Cluster_config.t -> unit -> (unit, string) Stdlib.result
(** Broadcast the [Shutdown] frame (stamped [shard], default 0) to
    every node (from an ephemeral socket). *)

val result_json : result -> string
(** One flat JSON object (no histories), the same shape for every
    group count. *)
