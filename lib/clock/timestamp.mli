(** Transaction timestamps and transaction ids (§5.2.2 step 1).

    A proposed commit timestamp is the pair (client local time,
    client id); a tid is (client-local sequence number, client id).
    Including the client id makes both globally unique, which the
    protocol requires: timestamps are the serialization order, tids
    key the trecord. *)

type t = { time : float; client_id : int }

val compare : t -> t -> int
(** Lexicographic on (time, client_id); a total order. *)

val equal : t -> t -> bool
val zero : t
(** Smaller than every timestamp a client can produce. *)

val infinity : t
(** Larger than every timestamp a client can produce. *)

val make : time:float -> client_id:int -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
(** Ordered sets of timestamps, used for the vstore's pending
    [readers]/[writers] lists — [min_elt]/[max_elt] give the
    MIN(writers)/MAX(readers) terms of Alg. 1. *)

module Tid : sig
  type t = { seq : int; client_id : int }

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  (** Mixed hash of both fields, always non-negative (safe as
      [hash mod n] for partition steering). Use this — never
      [Hashtbl.hash] — on tids (lint rule Z2). *)

  val make : seq:int -> client_id:int -> t
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  module Table : Hashtbl.S with type key = t
  (** Tid-keyed hash tables over {!equal} and {!hash}. *)
end
