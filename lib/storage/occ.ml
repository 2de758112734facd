module Timestamp = Mk_clock.Timestamp

type outcome = [ `Ok | `Abort ]

(* Each check below resolves its key's entry once (a lock-free index
   probe for a loaded key) and brackets its critical section with the
   entry's plain lock/unlock — no closure per key. The [set_*]
   mutators still let [Mk_check.Owner] catch an unguarded write. *)

let unmark_reader store (r : Txn.read_entry) ~ts =
  let e = Vstore.find_or_create store r.key in
  Vstore.lock e;
  match Vstore.set_readers e (Timestamp.Set.remove ts e.readers) with
  | () -> Vstore.unlock e
  | exception exn ->
      Vstore.unlock e;
      raise exn

let unmark_writer store (w : Txn.write_entry) ~ts =
  let e = Vstore.find_or_create store w.key in
  Vstore.lock e;
  match Vstore.set_writers e (Timestamp.Set.remove ts e.writers) with
  | () -> Vstore.unlock e
  | exception exn ->
      Vstore.unlock e;
      raise exn

(* Remove [ts] from the reader sets of read-set entries [0, upto) and
   the writer sets of write-set entries [0, wupto) — Alg. 1's
   cleanup_readers_writers, restricted to what was actually added. *)
let cleanup store (txn : Txn.t) ~ts ~upto ~wupto =
  for i = 0 to upto - 1 do
    unmark_reader store txn.read_set.(i) ~ts
  done;
  for i = 0 to wupto - 1 do
    unmark_writer store txn.write_set.(i) ~ts
  done

(* One read's check under its entry lock; on success [ts] joins the
   entry's pending readers. *)
let read_ok e (r : Txn.read_entry) ~ts =
  let stale = Timestamp.compare e.Vstore.wts r.wts > 0 in
  (* Not in Alg. 1 as printed, but required once clocks may be far
     apart: a client whose clock lags can read a version written at a
     *larger* timestamp than its own proposal. Serializing that reader
     below the version it observed is not sound (it may simultaneously
     read other keys as of its own, earlier, timestamp), so reject —
     another conservative check in the spirit of the paper's "small
     atomic regions at the cost of precision". With PTP-grade
     synchronization it essentially never fires. *)
  let future = Timestamp.compare r.wts ts > 0 in
  let behind_writer =
    (not (Timestamp.Set.is_empty e.writers))
    && Timestamp.compare ts (Timestamp.Set.min_elt e.writers) > 0
  in
  if stale || future || behind_writer then false
  else begin
    Vstore.set_readers e (Timestamp.Set.add ts e.readers);
    true
  end

(* One write's check under its entry lock; on success [ts] joins the
   entry's pending writers. *)
let write_ok e ~ts =
  let before_rts = Timestamp.compare ts e.Vstore.rts < 0 in
  let before_reader =
    (not (Timestamp.Set.is_empty e.readers))
    && Timestamp.compare ts (Timestamp.Set.max_elt e.readers) < 0
  in
  if before_rts || before_reader then false
  else begin
    Vstore.set_writers e (Timestamp.Set.add ts e.writers);
    true
  end

let check_read store (r : Txn.read_entry) ~ts =
  let e = Vstore.find_or_create store r.key in
  Vstore.lock e;
  match read_ok e r ~ts with
  | ok ->
      Vstore.unlock e;
      ok
  | exception exn ->
      Vstore.unlock e;
      raise exn

let check_write store (w : Txn.write_entry) ~ts =
  let e = Vstore.find_or_create store w.key in
  Vstore.lock e;
  match write_ok e ~ts with
  | ok ->
      Vstore.unlock e;
      ok
  | exception exn ->
      Vstore.unlock e;
      raise exn

(* The first read (resp. write) at or after [i] that fails its check,
   or the set's length if none does. *)
let rec first_bad_read store (reads : Txn.read_entry array) ~ts i =
  if i >= Array.length reads || not (check_read store reads.(i) ~ts) then i
  else first_bad_read store reads ~ts (i + 1)

let rec first_bad_write store (writes : Txn.write_entry array) ~ts i =
  if i >= Array.length writes || not (check_write store writes.(i) ~ts) then i
  else first_bad_write store writes ~ts (i + 1)

let validate store (txn : Txn.t) ~ts =
  let nreads = Array.length txn.read_set in
  let bad_read = first_bad_read store txn.read_set ~ts 0 in
  if bad_read < nreads then begin
    cleanup store txn ~ts ~upto:bad_read ~wupto:0;
    `Abort
  end
  else
    let bad_write = first_bad_write store txn.write_set ~ts 0 in
    if bad_write < Array.length txn.write_set then begin
      cleanup store txn ~ts ~upto:nreads ~wupto:bad_write;
      `Abort
    end
    else `Ok

let abort_pending store (txn : Txn.t) ~ts =
  cleanup store txn ~ts ~upto:(Array.length txn.read_set)
    ~wupto:(Array.length txn.write_set)

(* The write phase for one key: Thomas write rule (an older write is
   simply skipped), then [ts] leaves the pending writers. *)
let install_write e (w : Txn.write_entry) ~ts =
  if Timestamp.compare ts e.Vstore.wts > 0 then begin
    Vstore.set_value e w.value;
    Vstore.set_wts e ts
  end;
  Vstore.set_writers e (Timestamp.Set.remove ts e.writers)

let commit_read e ~ts =
  if Timestamp.compare ts e.Vstore.rts > 0 then Vstore.set_rts e ts;
  Vstore.set_readers e (Timestamp.Set.remove ts e.readers)

let finish store (txn : Txn.t) ~ts ~commit =
  if commit then begin
    for i = 0 to Array.length txn.write_set - 1 do
      let w = txn.write_set.(i) in
      let e = Vstore.find_or_create store w.key in
      Vstore.lock e;
      match install_write e w ~ts with
      | () -> Vstore.unlock e
      | exception exn ->
          Vstore.unlock e;
          raise exn
    done;
    for i = 0 to Array.length txn.read_set - 1 do
      let e = Vstore.find_or_create store txn.read_set.(i).key in
      Vstore.lock e;
      match commit_read e ~ts with
      | () -> Vstore.unlock e
      | exception exn ->
          Vstore.unlock e;
          raise exn
    done
  end
  else abort_pending store txn ~ts
