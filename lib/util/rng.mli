(** Deterministic pseudo-random number generation.

    The simulator must be reproducible: every run with the same seed
    produces the same event sequence. We therefore avoid the global
    [Random] state and thread explicit generators everywhere. The
    generator is xoshiro256** seeded via splitmix64, following the
    reference implementation of Blackman and Vigna.

    The state lives in unboxed words: {!int} and {!bool} allocate
    nothing, and {!uniform}, {!float} and {!exponential} only their
    boxed float result. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Generators
    with distinct seeds produce independent-looking streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing
    [t]. Used to give each simulated client/replica its own stream so
    adding an entity does not perturb the others. *)

val copy : t -> t
(** [copy t] duplicates the current state of [t]. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform : t -> float
(** [uniform t] is uniform in \[0, 1). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed variate with the given mean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
