(** The socket shim: a Verdi-style event loop binding an
    {!ARRANGEMENT}'s messages to one UDP socket (DESIGN.md §11).

    This is the cluster backend's only socket/thread boundary — the
    one file the ZCP lint allowlist sanctions, alongside
    [Mk_live.Mailbox]/[Spawn]. Everything above it (node, client
    driver) stays coordination-free: outbound messages go through a
    bounded mailbox whose overflow is a UDP drop (retransmission
    recovers) or through a {!Make.packer} with a single owner,
    inbound datagrams are decoded totally (garbage is counted and
    dropped, never fatal) and handed to [deliver].

    The message plane is batched: messages are framed into buffers a
    {!Make.packer} owns and reuses, which keeps one open datagram per
    destination (up to the UDP maximum, a small fixed number of
    destinations at once), so a flush is one [sendto] per peer however
    the frames to different peers interleave; inbound datagrams are
    burst-decoded frame by frame at offsets. The send fast path
    allocates no per-message strings. The outbox consumer owns one
    packer; a node's cores own one each and send their replies on the
    socket directly.

    Two driving modes, never mixed on one shim:
    - {!Make.start} runs the loop on a background systhread
      multiplexing the socket and a self-pipe with [select] — for
      server nodes, whose main domain parks while waiting for
      shutdown (a parked domain releases the runtime lock, so the
      thread runs freely).
    - {!Make.poll} drains outbox and socket inline, and {!Make.wait}
      flushes the outbox and blocks until the socket is readable or a
      timeout passes — for client drivers, which own their loop and
      its timers (a sibling systhread would contend with it for the
      domain's runtime lock). *)

module type ARRANGEMENT = sig
  type msg

  val encode_into : scratch:Buffer.t -> out:Buffer.t -> msg -> unit
  (** Append one complete frame to [out], staging the payload through
      [scratch] (see {!Mk_wire.Wire.frame_into}). [out] is not
      cleared: the shim coalesces several frames into one datagram. *)

  val decode_at :
    ?limit:int -> string -> pos:int -> (msg * int, Mk_wire.Wire.error) result
  (** Decode the frame starting at [pos] and return it with the offset
      just past it (always [> pos]). The shim passes its reused receive
      buffer with [limit] = the datagram's length: no byte at or past
      [limit] may be read, and the message must not keep a reference
      into the buffer. Total: truncated or hostile datagrams yield
      [Error], never an exception. *)
end

module Make (A : ARRANGEMENT) : sig
  type t

  type handlers = {
    deliver : src:Unix.sockaddr -> A.msg -> unit;
        (** One decoded frame. Runs on the loop thread; must not
            block (steer into mailboxes, answer, or drop). A raised
            exception is caught and counted under
            [wire.decode_errors] — it cannot kill the loop. *)
    tick : now_us:float -> unit;
        (** Called once per loop iteration (at least every 50 µs)
            with the wall clock in µs — the hook for
            timers: heartbeats, detector scans, retransmissions. *)
  }

  type receiver = src:Unix.sockaddr -> Mk_wire.Wire.cursor -> unit
  (** A consumer that reads each inbound frame itself, off the shim's
      one reused cursor ({!start_receiver}, {!poll_receiver}): the
      cursor is aimed at the frame's first byte and the datagram's
      end; the receiver reads exactly that frame (e.g. with
      {!Mk_wire.Codec.dispatch}) and acts only if it decodes to its
      last byte. Afterwards the shim counts the frame and moves past
      it if the cursor is neither failed nor short of the frame's end
      ({!Mk_wire.Wire.frame_end}), and otherwise counts a decode error
      and drops the rest of the datagram — the counters of the
      [deliver] path. A raise is caught and counted as there. *)

  val bind : ?port:int -> ?outbox:int -> unit -> (t, string) result
  (** Create and bind the UDP socket. [port] defaults to 0 — bind an
      ephemeral port, reported by {!port} (the launcher handshake).
      [outbox] is the bounded send-queue capacity (a power of two,
      default 4096). *)

  val port : t -> int
  (** The actually bound port. *)

  val start : t -> ?obs:Mk_obs.Obs.t -> handlers -> unit
  (** Launch the background loop; it wakes at least every 50 µs, so a
      node whose cores park never leaves a CPU idle for long. [obs]
      receives the wire counters
      ([wire.msgs_tx/rx], [wire.bytes_tx/rx], [wire.dgrams_tx/rx],
      [wire.decode_errors], [wire.send_errors]). *)

  val start_receiver :
    t -> ?obs:Mk_obs.Obs.t -> tick:(now_us:float -> unit) -> receiver -> unit
  (** {!start} with a {!receiver} in place of [deliver]: no message is
      built for a frame the receiver takes from the cursor. *)

  val poll : t -> deliver:(src:Unix.sockaddr -> A.msg -> unit) -> int
  (** Inline mode: flush the outbox, then decode and deliver every
      datagram currently readable (bounded burst); returns how many
      were delivered. The caller owns the loop and its timers. *)

  val poll_receiver : t -> receive:receiver -> int
  (** {!poll} with a {!receiver} in place of [deliver]. *)

  val wait : t -> timeout:float -> bool
  (** Inline mode's idle wait: flush the outbox, then block until a
      datagram is readable (returns [true]) or [timeout] seconds pass
      ([false]; a negative timeout counts as 0). Nothing is received:
      the next {!poll} delivers. *)

  val set_obs : t -> Mk_obs.Obs.t -> unit
  (** Attach the counter sink in poll mode (start-mode shims pass it
      to {!start}). *)

  val send : t -> dst:Unix.sockaddr -> A.msg -> unit
  (** Send one message; never blocks. On a shim that was never
      {!start}ed (poll mode: one owner, no loop thread) it packs the
      message straight into the outbox packer, which the next {!poll},
      {!wait} or {!stop} flushes. On a started shim it enqueues the
      message unencoded and framing happens at flush time on the loop
      thread; a full outbox drops it (UDP semantics), and from a
      thread other than the loop's own it also wakes the loop. Either
      way a frame too large for one UDP datagram is dropped and
      counted under [wire.send_errors], since no retransmit could
      ever deliver it. *)

  val send_mask : t -> dsts:Unix.sockaddr array -> mask:int -> A.msg -> unit
  (** Broadcast one message to every [dsts.(r)] whose bit [r] is set
      in [mask], in ascending [r]: the same frames and datagrams as
      one {!send} per destination in that order. On a poll-mode shim
      the message is encoded once, however many destinations it
      goes to (an oversized frame counts one send error per
      destination); a started shim falls back to one {!send} per
      destination. *)

  type packer
  (** Flush-side state for one sender: payload scratch, frame staging
      buffer, a fixed table of open datagrams with their destinations,
      the reused [sendto] bytes, and tallies of what it sent. Not
      thread-safe: one owner at a time. *)

  val open_slots : int
  (** How many destinations a packer keeps a datagram open to at
      once. *)

  val packer : t -> packer
  (** A fresh packer sending on this shim's socket — for a domain that
      answers on the socket directly instead of through the outbox. *)

  val pack : packer -> dst:Unix.sockaddr -> A.msg -> unit
  (** Frame one message onto the packer's open datagram for [dst].
      Sends only that datagram first if the frame would outgrow one
      UDP payload; sends every open datagram first if [dst] has none
      and the table is full. Frames to one destination keep their
      order. An oversized frame is dropped and tallied as a send
      error, leaving the open datagrams as they were. Beyond what
      the encoder allocates, packing allocates nothing. *)

  val flush : packer -> unit
  (** Send every open datagram, one [sendto] each. *)

  val fold_tally : packer -> Mk_obs.Obs.t -> unit
  (** Add the frames, datagrams, bytes and send errors the packer sent
      since the last fold to [wire.msgs_tx], [wire.dgrams_tx],
      [wire.bytes_tx] and [wire.send_errors], and zero its tallies.
      Call from the owner, or once the owner is quiescent. *)

  val stop : t -> unit
  (** Stop the loop (joining the thread if one runs), flush the last
      queued sends, and close the socket. *)
end
