(** CRC-32 (IEEE 802.3, reflected — the zlib/PNG polynomial),
    slicing-by-4. Pure; the check value of ["123456789"] is
    [0xCBF43926]. Frames every WAL record and snapshot file
    ({!Walcodec}) so a torn or bit-flipped tail is detected, never
    replayed. *)

val digest : string -> int
(** Over the whole string; in [\[0, 0xffffffff\]]. *)

val digest_sub : string -> pos:int -> len:int -> int
(** [digest_sub s ~pos ~len = digest (String.sub s pos len)], without
    the copy. Raises [Invalid_argument] if the range is not inside
    [s]. *)
