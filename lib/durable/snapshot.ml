(* Atomic snapshot files: write to a [.tmp] sibling, fsync, rename,
   fsync the directory. The rename is the commit point — a crash
   mid-write leaves the old snapshot intact, a crash after the rename
   the new one; recovery never sees a half-written file (and the CRC
   frame inside would reject one even if the filesystem broke that
   promise). The directory fsync makes the rename itself durable
   before [write] returns: a caller that truncates the log the
   snapshot covers must never find the truncate on disk and the
   rename not. *)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* Some filesystems cannot fsync a directory; their renames are
         as durable as they get. *)
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let write ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let n = String.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd data !off (n - !off)
  done;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

let read ~path =
  match Wal.read_file path with "" -> None | s -> Some s
