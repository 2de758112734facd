(** Backup-coordinator outcome selection (§5.3.2).

    When a replica suspects a transaction's coordinator has failed, it
    starts a view change: the new view's proposer (the (view mod n)th
    replica) collects {!Replica.handle_coord_change} replies from a
    majority and must pick a {e safe} outcome — one that can not
    contradict anything a previous coordinator may already have told a
    client. The selection priority is the paper's:

    + an outcome already COMMITTED or ABORTED anywhere wins;
    + otherwise the decision accepted in the highest view wins;
    + otherwise, if enough VALIDATED-OK replies exist that the fast
      path {e may} have committed (⌈f/2⌉+1 within the majority — the
      quorum-intersection bound implied by the f+⌈f/2⌉+1 fast quorum),
      propose commit; symmetrically for VALIDATED-ABORT;
    + otherwise no coordinator can have decided, and abort is safe.

    The chosen outcome must then be driven through the slow path
    (accept at the new view, then commit) — {!View_change} does this
    for all three backends. *)

type reply = No_record | Record of Replica.record_view

val choose : quorum:Quorum.t -> replies:(int * reply) list -> [ `Commit | `Abort ]
(** [choose ~quorum ~replies] picks the safe outcome from replica
    replies tagged with the replying replica's id. Replies are
    deduplicated by replica (first one wins) before any counting, so a
    duplicated or retransmitted reply can not double-count toward the
    ⌈f/2⌉+1 fast-recovery bound.

    @raise Invalid_argument on replies from fewer than a majority of
    {e distinct} replicas. *)
