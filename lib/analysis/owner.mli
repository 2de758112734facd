(** Dynamic lock-discipline and ownership checker — layer 2 of the
    ZCP-conformance tooling ([Mk_check]).

    The static lint ([Mk_check_lint]) proves lexical properties; this
    module checks the runtime ones it cannot see: that the domain
    mutating a [Vstore] entry actually holds that entry's lock (or the
    table lock for table operations), and that a [Trecord] partition is
    only touched by the core that owns it.

    Cost model (the [Mk_obs] tracing pattern): disabled — the default —
    every function here is one bool load and an untaken branch; no
    allocation, no synchronization. Enable explicitly with {!enable} or
    by setting [MK_CHECK=1] in the environment before start-up. The
    flag must be flipped before domains are spawned. *)

exception Violation of string
(** Raised (only when enabled) at the faulty call site when a guarded
    mutation runs without its lock or a partition is touched by a
    foreign core. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** {2 Lock holdership}

    A [slot] shadows one mutex. The code path that takes the mutex
    calls {!acquired}/{!released}; every mutation the mutex protects
    calls {!check}. *)

type slot

val slot : string -> slot
(** [slot name] — [name] appears in violation messages. *)

val acquired : slot -> unit
(** Record the calling domain as holder. Call with the mutex held. *)

val released : slot -> unit
(** Clear the holder. Call before releasing the mutex. *)

val check : slot -> what:string -> unit
(** Assert the calling domain is the recorded holder; raises
    {!Violation} otherwise (when enabled). *)

(** {2 Partition ownership}

    The simulator dispatches replica work to logical cores; trecord
    partitions are single-owner per core. Handlers bracket their body
    with {!with_core}; [Trecord] operations call {!check_partition}. *)

val with_core : int -> (unit -> 'a) -> 'a
(** Run [f] with the ambient actor set to [core] (per-domain; nests and
    restores on exit). Identity when disabled. *)

val enter_core : int -> int option
(** {!with_core} without the closure, for handlers on an allocation
    budget: set the ambient actor to [core] and return the previous
    one, to be handed to {!leave_core} on every exit path. [None] and
    no allocation when disabled. *)

val leave_core : int option -> unit
(** Restore the actor {!enter_core} returned. *)

val current_core : unit -> int option
(** Ambient actor, if any ([None] when disabled). *)

val check_partition : core:int -> what:string -> unit
(** Assert that, if an ambient actor is set, it matches [core]. Code
    running outside any {!with_core} scope (recovery merges, tests) is
    not constrained. *)
