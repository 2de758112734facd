(* Deterministic in-memory durable device for the simulator: the same
   framed bytes as the on-disk WAL/snapshot, held in a buffer. The
   sim's golden suites must stay bit-identical, so this consumes no
   randomness, touches no clock, and does no I/O — "durability" in
   the sim means the bytes survive [Replica.crash] (which wipes the
   stores but not the nemesis harness holding these). *)

type t = { log : Buffer.t; mutable snap : string option }

let create () = { log = Buffer.create 256; snap = None }
let append_frame t f =
  Buffer.add_subbytes t.log (Walcodec.frame_bytes f) 0 (Walcodec.frame_length f)
let log_contents t = Buffer.contents t.log
let log_length t = Buffer.length t.log
let set_snapshot t s = t.snap <- Some s
let snapshot t = t.snap

let reset t =
  Buffer.clear t.log;
  t.snap <- None
