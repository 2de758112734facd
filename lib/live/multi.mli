(** Multi-group live deployment (DESIGN.md §13): S independent Meerkat
    groups on real OCaml 5 domains, coordinator domains driving the
    client-side cross-shard 2PC of {!Mk_shard} over bounded mailboxes.

    Each shard is a full single-group topology of its own
    ([server_domains] domains hosting one core of every replica of
    that shard), so the deployment runs [shards x server_domains]
    server domains plus [coordinators] coordinator domains. Nothing is
    shared between shards; the only cross-shard party is the
    coordinator, which runs one {!Mk_meerkat.Protocol} validation per
    involved shard (held in the shared {!Mk_meerkat.Attempts} table)
    to a decision with the write-back withheld, then
    broadcasts the global conjunction (paper §5.2.4 — the
    client-chosen globally-unique timestamp makes this free of any
    shard-to-shard coordination).

    Fault-free by design: chaos stays single-group (DESIGN.md §10) and
    the cluster backend covers multi-shard fault injection with real
    process kills. *)

type config = {
  shards : int;
  policy : Mk_shard.Router.policy;
  server_domains : int;  (** Per shard; also cores per replica. *)
  n_replicas : int;  (** Per shard. Odd, >= 3. *)
  coordinators : int;
  clients : int;  (** Closed-loop clients, split round-robin. *)
  keys : int;  (** Global keyspace, spread over the shards. *)
  theta : float;
  workload : Runtime.workload_kind;
  cross : float;
      (** Probability a multi-key transaction spans more than one
          shard ({!Mk_workload.Workload.locality}; only applied under
          the Mod placement policy). *)
  txns_per_client : int;
  duration : float option;
  seed : int;
  rto_us : float;
  grace_us : float;
  server_inbox : int;
  coord_inbox : int;
      (** Auto-raised to the deadlock-freedom floor of
          4 x local clients x replicas x shards (next power of two) —
          a coordinator can hold one open attempt per involved shard
          per client. *)
}

val default_config : config

type report = {
  shards : int;
  server_domains : int;
  coordinators : int;
  clients : int;
  committed_count : int;
  aborted : int;
  cross_shard : int;  (** Decided transactions that involved >1 shard. *)
  fast_path : int;  (** Per-shard sub-attempts, not global txns. *)
  slow_path : int;
  wall_seconds : float;
  throughput : float;
  abort_rate : float;
  p50_us : float;
  p99_us : float;
  submitted : int;  (** Transactions launched. *)
  acked : int;  (** Transactions whose outcome reached their client. *)
  history : (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list;
      (** The merged global history (via {!Mk_shard.History.merge}) —
          feed to {!Mk_harness.Checker.check}. *)
  sub_histories : (int * (Mk_storage.Txn.t * Mk_clock.Timestamp.t) list) list;
      (** The same commits per shard, over local keys. *)
  router : Mk_shard.Router.t;
  groups : Mk_meerkat.Replica.t array array;
      (** [.(shard).(replica)], quiescent after the join. *)
}

val run : config -> report
(** Spawn the whole topology, run every client to its quota (or the
    duration), join all domains. The replicas are quiescent when this
    returns: every involved shard's write-back is applied.
    @raise Invalid_argument on nonsensical sizes (see {!config}). *)

val pp_report : Format.formatter -> report -> unit

val report_json : report -> string
(** One flat JSON object (no histories), for [BENCH_shard.json]. *)
