(* Per-core append-only log over a Unix fd.

   ZCP on disk: one file per (replica, core), appended only by the
   domain/thread that owns that core's trecord partition, so there is
   no shared fsync point and no cross-core convoy — exactly the
   per-core data layout the paper demands of memory, extended to
   stable storage. Group commit is the [Every n] policy: an fsync
   every [n] appends bounds the unsynced window without paying a disk
   barrier per transaction. The module is observability-free; callers
   translate the [`synced] results into [wal.*] counters. *)

type policy = Always | Every of int | Never

let policy_to_string = function
  | Always -> "always"
  | Every n -> Printf.sprintf "every=%d" n
  | Never -> "never"

let policy_of_string s =
  match s with
  | "always" -> Some Always
  | "never" -> Some Never
  | _ -> (
      match String.index_opt s '=' with
      | Some i when String.sub s 0 i = "every" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n > 0 -> Some (Every n)
          | _ -> None)
      | _ -> None)

type t = {
  fd : Unix.file_descr;
  policy : policy;
  mutable length : int;
  mutable unsynced : int;
}

let open_log ~path ~policy =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let length = (Unix.fstat fd).Unix.st_size in
  { fd; policy; length; unsynced = 0 }

let length t = t.length

let write_all fd b n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let fsync t =
  Unix.fsync t.fd;
  t.unsynced <- 0

let append_bytes t b n =
  write_all t.fd b n;
  t.length <- t.length + n;
  t.unsynced <- t.unsynced + 1;
  match t.policy with
  | Always ->
      fsync t;
      `Synced
  | Every n ->
      if t.unsynced >= n then begin
        fsync t;
        `Synced
      end
      else `Buffered
  | Never -> `Buffered

let append_frame t f =
  append_bytes t (Walcodec.frame_bytes f) (Walcodec.frame_length f)

(* [Unix.write] only reads the bytes. *)
let append t s = append_bytes t (Bytes.unsafe_of_string s) (String.length s)

let sync t = if t.unsynced > 0 then fsync t

let truncate t ~len =
  Unix.ftruncate t.fd len;
  t.length <- min t.length len;
  t.unsynced <- 0

let close t =
  sync t;
  Unix.close t.fd

(* Whole-file read for replay. Total by design: recovery must work on
   whatever is (or is not) on disk, so a missing or unreadable file is
   simply an empty log. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | s ->
          close_in_noerr ic;
          s
      | exception (Sys_error _ | End_of_file) ->
          close_in_noerr ic;
          "")
