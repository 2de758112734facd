(* Dynamic lock-discipline and ownership checker (layer 2 of Mk_check).

   Same cost model as Mk_obs tracing: when disabled, every entry point
   is a single immutable bool load and an untaken branch — nothing is
   allocated, no table is touched, and the hot paths of the storage
   layer are unchanged. When enabled (tests, chaos runs, CI), each
   guarded lock records which domain holds it and each guarded
   mutation asserts that the mutating domain is the holder, so a
   missing-lock bug fails loudly at the faulty call site instead of
   corrupting a hash table once in a thousand runs. *)

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation msg -> Some (Printf.sprintf "Mk_check.Owner.Violation: %s" msg)
    | _ -> None)

(* A plain ref, not an atomic: the flag is flipped before domains are
   spawned (test main, env var at startup) and only read afterwards,
   so there is no write/write race to order. *)
let enabled =
  ref
    (match Sys.getenv_opt "MK_CHECK" with
    | Some ("1" | "true" | "on") -> true
    | _ -> false)

let enable () = enabled := true
let disable () = enabled := false
let is_enabled () = !enabled

type slot = { name : string; mutable holder : int }

let no_holder = -1
let slot name = { name; holder = no_holder }
let self () = (Domain.self () :> int)

let acquired s = if !enabled then s.holder <- self ()
let released s = if !enabled then s.holder <- no_holder

let check s ~what =
  if !enabled then begin
    let me = self () in
    if s.holder <> me then
      raise
        (Violation
           (Printf.sprintf
              "%s: %s by domain %d without holding the lock (holder: %s)" s.name
              what me
              (if s.holder = no_holder then "nobody"
               else string_of_int s.holder)))
  end

(* Ambient actor for partition-ownership checks: which logical core the
   current domain is executing on behalf of. Per-domain so the real
   multicore layer and the single-domain simulator share one mechanism. *)
let actor : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let enter_core core =
  if not !enabled then None
  else begin
    let prev = Domain.DLS.get actor in
    Domain.DLS.set actor (Some core);
    prev
  end

let leave_core prev = if !enabled then Domain.DLS.set actor prev

let with_core core f =
  let prev = enter_core core in
  match f () with
  | r ->
      leave_core prev;
      r
  | exception e ->
      leave_core prev;
      raise e

let current_core () = if !enabled then Domain.DLS.get actor else None

let check_partition ~core ~what =
  if !enabled then begin
    match Domain.DLS.get actor with
    | Some c when c <> core ->
        raise
          (Violation
             (Printf.sprintf
                "trecord partition %d: %s while executing on core %d (ZCP: \
                 partitions are single-owner)"
                core what c))
    | Some _ | None -> ()
  end
