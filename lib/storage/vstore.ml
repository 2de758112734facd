module Timestamp = Mk_clock.Timestamp
module Owner = Mk_check.Owner

type entry = {
  key : Txn.key;
  lock : Mutex.t;
  owner : Owner.slot;
  mutable value : Txn.value;
  mutable wts : Timestamp.t;
  mutable rts : Timestamp.t;
  mutable readers : Timestamp.Set.t;
  mutable writers : Timestamp.Set.t;
}

(* The published key index: an open-addressed table of every entry
   the tables held when it was built, with [absent] in the empty
   slots. It is never written after [publish] builds it, so readers
   on any domain probe it with no lock (Z3: no [Hashtbl] here). *)
type index = { slots : entry array; imask : int; count : int }

(* The entry of no key: fills the index's empty slots and answers
   {!lookup} misses. Nobody locks or mutates it. *)
let absent =
  {
    key = min_int;
    lock = Mutex.create ();
    owner = Owner.slot "vstore.absent";
    value = 0;
    wts = Timestamp.zero;
    rts = Timestamp.zero;
    readers = Timestamp.Set.empty;
    writers = Timestamp.Set.empty;
  }

let empty_index = { slots = [| absent |]; imask = 0; count = 0 }

(* [tables] are the store of record, partitioned as they always were
   so {!iter} walks entries in the same order (checkpoint and Memlog
   bytes depend on it). Every operation on them runs under the one
   table lock; only a miss in the published index, a load and a walk
   take it. *)
type t = {
  tables : (Txn.key, entry) Hashtbl.t array;
  mask : int;
  table_lock : Mutex.t;
  table_owner : Owner.slot;
  index : index Atomic.t;
  mutable stored : int;  (** Entries in [tables]; under the lock. *)
}

let create ?(shards = 64) () =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg "Vstore.create: shards must be a positive power of two";
  {
    tables = Array.init shards (fun _ -> Hashtbl.create 1024);
    mask = shards - 1;
    table_lock = Mutex.create ();
    table_owner = Owner.slot "vstore.tables";
    index = Atomic.make empty_index;
    stored = 0;
  }

(* Finalize-style mix so adjacent keys land in different partitions
   and index slots. *)
let hash_key k =
  let k = k * 0x9E3779B1 in
  (k lxor (k lsr 16)) land max_int

let table_of t key = t.tables.(hash_key key land t.mask)

(* The table lock (named [with_shard], the guard rule Z3 knows): every
   table operation runs inside it, and the dynamic checker learns who
   holds it so unguarded accesses fail loudly (Mk_check.Owner). *)
let with_shard t f =
  Mutex.lock t.table_lock;
  Owner.acquired t.table_owner;
  match f () with
  | r ->
      Owner.released t.table_owner;
      Mutex.unlock t.table_lock;
      r
  | exception e ->
      Owner.released t.table_owner;
      Mutex.unlock t.table_lock;
      raise e

(* The per-key entry lock, without a closure: [lock]/[unlock] bracket
   each critical section of the OCC checks, and [with_entry] is the
   same pair around a function for the cold paths. *)
let lock e =
  Mutex.lock e.lock;
  Owner.acquired e.owner

let unlock e =
  Owner.released e.owner;
  Mutex.unlock e.lock

let with_entry e f =
  lock e;
  match f e with
  | r ->
      unlock e;
      r
  | exception exn ->
      unlock e;
      raise exn

(* Entry mutations go through these so the checker can assert, at the
   mutation itself, that the mutating domain holds the entry lock. *)
let set_value e v =
  Owner.check e.owner ~what:"value<-";
  e.value <- v

let set_wts e ts =
  Owner.check e.owner ~what:"wts<-";
  e.wts <- ts

let set_rts e ts =
  Owner.check e.owner ~what:"rts<-";
  e.rts <- ts

let set_readers e s =
  Owner.check e.owner ~what:"readers<-";
  e.readers <- s

let set_writers e s =
  Owner.check e.owner ~what:"writers<-";
  e.writers <- s

let fresh_entry key value =
  {
    key;
    lock = Mutex.create ();
    owner = Owner.slot (Printf.sprintf "vstore.entry[%d]" key);
    value;
    wts = Timestamp.zero;
    rts = Timestamp.zero;
    readers = Timestamp.Set.empty;
    writers = Timestamp.Set.empty;
  }

(* Linear probing from the key's home slot; the table is at most half
   full, so a probe ends at the key or at an [absent] slot. *)
let rec probe slots imask key i =
  let e = slots.(i) in
  if e == absent || e.key = key then e else probe slots imask key ((i + 1) land imask)

let indexed t key =
  let ix = Atomic.get t.index in
  probe ix.slots ix.imask key (hash_key key land ix.imask)

(* The index only ever holds the tables' current entries (a load
   that replaces a published entry withdraws the index first), so it
   lags the tables by exactly the entries it lacks. *)
let lag t = t.stored - (Atomic.get t.index).count

(* Build the index of every entry in the tables and publish it.
   O(entries), so the bulk paths call it once ({!publish}) and a miss
   only when the index lags by a fraction of its size (below). Z3:
   every caller holds the table lock (checked below). *)
let[@mk_lint.allow "Z3"] rebuild t =
  Owner.check t.table_owner ~what:"Vstore index rebuild";
  let cap = ref 16 in
  while !cap < 2 * t.stored do
    cap := 2 * !cap
  done;
  let slots = Array.make !cap absent and imask = !cap - 1 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun key e ->
          let rec place i =
            if slots.(i) == absent then slots.(i) <- e
            else place ((i + 1) land imask)
          in
          place (hash_key key land imask))
        table)
    t.tables;
  Atomic.set t.index { slots; imask; count = t.stored }

(* A miss republishes once the index lags the tables by more than an
   eighth of its size: every key inserted one at a time costs O(1)
   amortized, and a lagging key meanwhile answers from the tables
   under the lock. *)
let catch_up t = if lag t > (Atomic.get t.index).count / 8 then rebuild t

let publish t = with_shard t (fun () -> if lag t > 0 then rebuild t)

let load t ~key ~value =
  with_shard t (fun () ->
      let table = table_of t key in
      if not (Hashtbl.mem table key) then t.stored <- t.stored + 1
      else if indexed t key != absent then
        (* The index holds the entry being replaced: withdraw it, so no
           reader can reach the old version; the next miss or publish
           rebuilds. *)
        Atomic.set t.index empty_index;
      Hashtbl.replace table key (fresh_entry key value))

(* The slow half of a lookup: under the table lock, the entry the
   tables hold (creating it with the zero version if [create]), or
   [absent]; then, if [republish], the index catches up. *)
let miss t key ~create ~republish =
  with_shard t (fun () ->
      let table = table_of t key in
      let e =
        match Hashtbl.find_opt table key with
        | Some e -> e
        | None when create ->
            let e = fresh_entry key 0 in
            Hashtbl.add table key e;
            t.stored <- t.stored + 1;
            e
        | None -> absent
      in
      if republish then catch_up t;
      e)

let find_or_create t key =
  let e = indexed t key in
  if e != absent then e else miss t key ~create:true ~republish:true

let lookup t key =
  let e = indexed t key in
  if e != absent then e else miss t key ~create:false ~republish:true

let set_version t ~key ~value ~wts ~rts =
  let e = indexed t key in
  let e = if e != absent then e else miss t key ~create:true ~republish:false in
  with_entry e (fun e ->
      set_value e value;
      set_wts e wts;
      set_rts e rts)

let find t key =
  let e = lookup t key in
  if e == absent then None else Some e

let find_exn t key =
  match find t key with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Vstore.find_exn: key %d not loaded" key)

let size t = with_shard t (fun () -> t.stored)

let read_versioned e =
  lock e;
  let v = (e.value, e.wts) in
  unlock e;
  v

let iter t f =
  with_shard t (fun () ->
      Array.iter (fun table -> Hashtbl.iter (fun _ e -> f e) table) t.tables)

let clear_pending t =
  iter t (fun e ->
      with_entry e (fun e ->
          set_readers e Timestamp.Set.empty;
          set_writers e Timestamp.Set.empty))

let pending_counts t =
  let readers = ref 0 and writers = ref 0 in
  iter t (fun e ->
      with_entry e (fun e ->
          readers := !readers + Timestamp.Set.cardinal e.readers;
          writers := !writers + Timestamp.Set.cardinal e.writers));
  (!readers, !writers)

module For_testing = struct
  (* The pre-fix shape of [find]: a read of the shared tables that
     takes no lock. Kept (never called by production code) so the
     dynamic checker's ability to catch the original race stays
     demonstrable; the static twin lives in test/lint_fixtures/. *)
  let[@mk_lint.allow "Z3"] unguarded_find t key =
    Owner.check t.table_owner ~what:"Hashtbl.find_opt (pre-fix Vstore.find shape)";
    Hashtbl.find_opt (table_of t key) key

  (* An entry mutation that skips the entry lock. *)
  let unguarded_bump_rts e ts = set_rts e ts

  let index_size t = (Atomic.get t.index).count
  let holding_table_lock t f = with_shard t f
end
