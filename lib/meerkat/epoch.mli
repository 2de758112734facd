(** The epoch-change merge (§5.3.1): compute the consistent trecord a
    recovery coordinator installs after polling a majority of
    replicas.

    [merge] is pure logic. {!run_sync} drives a whole change over a
    replica array in one step (the simulator's test helper and the
    live runtime, with its server domains frozen); the message-driven
    drivers gather and distribute over their own transports — the
    simulator's cost-modelled {!Sim_system.trigger_epoch_change}, and
    {!Epoch_change}, the pure machine the cluster node's loop thread
    drives. Given reports from at least f+1 replicas, [merge]
    produces a trecord in which {e every} entry is final, applying the
    paper's rules in order:

    + transactions COMMITTED or ABORTED anywhere keep that outcome;
    + transactions with an accepted slow-path proposal adopt the
      decision with the highest view;
    + transactions with ≥ f+1 matching VALIDATED-* reports become
      COMMITTED / ABORTED accordingly;
    + transactions with ≥ ⌈f/2⌉+1 VALIDATED-OK reports — the ones that
      may have committed on the fast path — are re-validated with OCC
      checks (Alg. 1) against a scratch store replaying the already
      merged commits in timestamp order;
    + everything else is ABORTED. *)

type report = {
  replica : int;
  records : (int * Replica.record_view) list;  (** (core, record). *)
}

val merge :
  quorum:Quorum.t -> reports:report list -> (int * Replica.record_view) list
(** @raise Invalid_argument if reports from fewer than
    [majority quorum] {e distinct} replicas are supplied. Duplicate
    reports from the same replica are dropped (first wins) before any
    counting, so a retransmitted report can not inflate the majority
    or fast-recovery tallies. The result preserves each record's core
    partition and is sorted by commit timestamp (deterministic). *)

val run_sync : Replica.t array -> recovering:int list -> bool
(** One synchronous epoch change over every replica, which nothing
    else may touch meanwhile: the healthy replicas (neither crashed nor
    in [recovering]) enter the next epoch and report, {!merge} folds a
    majority of reports, the healthy replicas install the result, and
    the [recovering] ones install it together with a store snapshot of
    the first healthy replica. [false] (nothing installed) when fewer
    than a majority are healthy or report. *)
