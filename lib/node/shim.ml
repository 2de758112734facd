(* The socket shim: the only file in the cluster backend that touches
   sockets or threads (it is the lint allowlist's shim boundary, like
   Mailbox/Spawn in the live runtime — everything above it is
   coordination-free by construction).

   One shim owns one UDP socket. The send side is a [packer]: the
   payload scratch, a one-frame staging buffer, a small fixed table of
   open datagrams (one per destination), the reused [sendto] bytes and
   the packer's own sent-frame tallies. Each message is framed into
   those reused buffers (no per-message string on the send path) and
   appended to the open datagram for its destination, up to
   [max_datagram] bytes; [flush] ships every open datagram. A
   broadcast that goes r0, r1, r2, r0, ... thus leaves as one [sendto]
   per replica per flush, not one per message. Frames to one
   destination keep their order; order across destinations is not
   kept (UDP never promised it). A packer has one
   owner. The shim's own packer drains the outbox: on a started shim,
   messages enqueued UNENCODED on a bounded MPSC mailbox by any thread
   ([send]) — a full mailbox drops the message, which is exactly UDP's
   contract, and retransmission recovers it. A poll-mode shim has a
   single owner and no loop thread, so its [send] packs straight into
   that packer, and its [send_mask] encodes a broadcast once and
   appends the one frame to every named destination's datagram. A
   node's cores each own another packer
   on the same socket ({!packer}) and send their replies directly,
   with no hop through the outbox; every packer runs the
   same pack/coalesce/[sendto] code below.

   The receive side mirrors this: one reused receive buffer, and each
   datagram is burst-decoded frame by frame at offsets ([decode_at]),
   in place — the decoder reads the buffer up to the datagram's length
   and no further, with no copy of the datagram — so a coalesced
   datagram delivers every message it carries. A decode
   failure is counted and drops the rest of that datagram (framing is
   not self-resynchronizing), never fatal — garbage on the port cannot
   take a node down.

   The event loop is either a background systhread, for server nodes
   whose main domain parks in [wait]; or inline [poll]/[wait] calls,
   for client drivers, which own their loop and would starve a sibling
   systhread of the domain's runtime lock. The threaded loop
   multiplexes with [select] over the socket and a self-pipe: a [send]
   from another thread writes one wake byte after enqueueing, so
   outbound traffic leaves immediately instead of on the next tick
   boundary, and the loop sleeps (releasing the runtime lock) whenever
   there is genuinely nothing to do. A [send] from the loop thread
   itself writes no byte: the loop flushes at the top of its next
   iteration anyway. *)

module Mailbox = Mk_live.Mailbox
module Obs = Mk_obs.Obs

module type ARRANGEMENT = sig
  type msg

  val encode_into : scratch:Buffer.t -> out:Buffer.t -> msg -> unit
  val decode_at :
    ?limit:int -> string -> pos:int -> (msg * int, Mk_wire.Wire.error) result
end

module Make (A : ARRANGEMENT) = struct
  type handlers = {
    deliver : src:Unix.sockaddr -> A.msg -> unit;
    tick : now_us:float -> unit;
  }

  type receiver = src:Unix.sockaddr -> Mk_wire.Wire.cursor -> unit

  (* How many destinations a packer keeps a datagram open to at once.
     A replica group is three or five peers and a node's replies go to
     a handful of coordinators, so 8 covers one flush's fan-out in the
     common shapes; a packer that meets a ninth destination ships
     everything it holds and starts over (a spill, not a loss). *)
  let open_slots = 8

  type packer = {
    p_sock : Unix.file_descr;
    scratch : Buffer.t;
    frame : Buffer.t;
    (* Open datagram [i < n_open]: its bytes, destination and frame
       count. Preallocated, so packing a frame allocates nothing. *)
    dgrams : Buffer.t array;
    dsts : Unix.sockaddr array;
    frames : int array;
    mutable n_open : int;
    send_buf : Bytes.t;
    (* Tallies since the last [fold_tally]: plain ints, bumped only by
       the packer's owner. *)
    mutable sent_frames : int;
    mutable sent_dgrams : int;
    mutable sent_bytes : int;
    mutable send_errors : int;
  }

  type t = {
    sock : Unix.file_descr;
    port : int;
    wake_rd : Unix.file_descr;
    wake_wr : Unix.file_descr;
    outbox : (Unix.sockaddr * A.msg) Mailbox.t;
    stop : bool ref;
    mutable threaded : bool;
        (** Set by [start], before its thread exists: from then on
            every [send] goes through the outbox. *)
    mutable thread : Thread.t option;
    mutable obs : Obs.t option;
    out : packer;  (** The outbox consumer's (loop thread, or poller). *)
    (* Receive-side state, owned by the same consumer. *)
    recv_buf : Bytes.t;
    cur : Mk_wire.Wire.cursor;
        (** The one cursor over [recv_buf], re-aimed at each frame a
            {!receiver} is handed. *)
    wake_buf : Bytes.t;
  }

  let new_packer sock =
    {
      p_sock = sock;
      scratch = Buffer.create 512;
      frame = Buffer.create 512;
      dgrams = Array.init open_slots (fun _ -> Buffer.create 2048);
      (* A placeholder: only slots below [n_open] are ever read. *)
      dsts = Array.make open_slots (Unix.ADDR_UNIX "");
      frames = Array.make open_slots 0;
      n_open = 0;
      send_buf = Bytes.create 65535;
      sent_frames = 0;
      sent_dgrams = 0;
      sent_bytes = 0;
      send_errors = 0;
    }

  let packer t = new_packer t.sock

  let bind ?(port = 0) ?(outbox = 4096) () =
    match
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_any, port));
      Unix.set_nonblock sock;
      let bound =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let wake_rd, wake_wr = Unix.pipe () in
      Unix.set_nonblock wake_rd;
      Unix.set_nonblock wake_wr;
      let recv_buf = Bytes.create 65535 in
      {
        sock;
        port = bound;
        wake_rd;
        wake_wr;
        outbox = Mailbox.create ~capacity:outbox;
        stop = ref false;
        threaded = false;
        thread = None;
        obs = None;
        out = new_packer sock;
        recv_buf;
        cur = Mk_wire.Wire.cursor (Bytes.unsafe_to_string recv_buf);
        wake_buf = Bytes.create 64;
      }
    with
    | t -> Ok t
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

  let port t = t.port

  (* Largest UDP payload over IPv4: 65535 minus IP and UDP headers.
     Anything bigger dies in [sendto] with EMSGSIZE on every attempt,
     so retransmission can never recover it — reject it at pack time
     and count it, or the sender retries forever with no diagnostic. *)
  let max_datagram = 65507

  (* Ship open datagram [i], which holds at least one frame: blit into
     the reused send bytes (no string extraction) and one [sendto] for
     all the frames in it. The slot stays open to the same
     destination, empty. *)
  let ship p i =
    let dgram = p.dgrams.(i) in
    let len = Buffer.length dgram in
    Buffer.blit dgram 0 p.send_buf 0 len;
    (try
       ignore (Unix.sendto p.p_sock p.send_buf 0 len [] p.dsts.(i) : int);
       p.sent_frames <- p.sent_frames + p.frames.(i);
       p.sent_dgrams <- p.sent_dgrams + 1;
       p.sent_bytes <- p.sent_bytes + len
     with
    | Unix.Unix_error (Unix.EMSGSIZE, _, _) ->
        (* A datagram too large for the path MTU fails identically on
           every retransmit: count it so the hang is diagnosable (the
           pack-side guard caps at [max_datagram]; this covers
           smaller-MTU paths). *)
        p.send_errors <- p.send_errors + 1
    | Unix.Unix_error (_, _, _) ->
        (* Unreachable peer (ECONNREFUSED from a dead localhost node,
           ENETUNREACH, ...): drop, like the network would. *)
        ());
    Buffer.clear dgram;
    p.frames.(i) <- 0

  (* Ship every open datagram and close all the slots. *)
  let flush p =
    for i = 0 to p.n_open - 1 do
      ship p i
    done;
    p.n_open <- 0

  (* The open slot for [dst], or -1. A loop, not [Array.find_index]
     with a closure, so the lookup allocates nothing. *)
  let rec slot_of p dst i =
    if i >= p.n_open then -1
    else if p.dsts.(i) = dst then i
    else slot_of p dst (i + 1)

  (* Encode one message into the staging buffer; its length. *)
  let stage p msg =
    Buffer.clear p.frame;
    A.encode_into ~scratch:p.scratch ~out:p.frame msg;
    Buffer.length p.frame

  (* Append the staged frame ([flen] bytes, at most [max_datagram]) to
     the open datagram for [dst]: opening one (after shipping them all
     if the table is full), or shipping that one datagram first if the
     frame would overflow it. Neither ship touches the staging buffer,
     so one staged frame can go to several destinations. *)
  let append p ~dst flen =
    let i =
      match slot_of p dst 0 with
      | -1 ->
          if p.n_open = open_slots then flush p;
          let i = p.n_open in
          p.dsts.(i) <- dst;
          p.n_open <- i + 1;
          i
      | i ->
          if Buffer.length p.dgrams.(i) + flen > max_datagram then ship p i;
          i
    in
    p.frames.(i) <- p.frames.(i) + 1;
    Buffer.add_buffer p.dgrams.(i) p.frame

  let pack p ~dst msg =
    let flen = stage p msg in
    if flen > max_datagram then p.send_errors <- p.send_errors + 1
    else append p ~dst flen

  (* A shim that was never started has one owner, the thread that
     polls it: its sends pack straight into the outbox packer, which
     [poll], [wait] and [stop] flush — no mailbox entry per message.
     A started shim's loop thread owns that packer, so every other
     sender goes through the outbox; a full outbox drops the message
     (UDP semantics, retransmission recovers it). *)
  let send t ~dst msg =
    if not t.threaded then pack t.out ~dst msg
    else if Mailbox.try_push t.outbox (dst, msg) then
      match t.thread with
      | Some th when Thread.id th <> Thread.id (Thread.self ()) -> (
          (* Wake a threaded loop blocked in select. EAGAIN means the
             pipe already holds a pending wakeup; either way the loop
             will see the message. The loop thread itself has nobody
             to wake. *)
          try ignore (Unix.write_substring t.wake_wr "w" 0 1 : int)
          with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
      | Some _ | None -> ()

  (* One broadcast: the destinations [dsts.(r)] whose bit [r] is set in
     [mask], in ascending [r]. A poll-mode shim encodes the message
     once and appends that one frame to each destination's datagram —
     the bytes on the wire are exactly those of one [send] per
     destination, in the same order. A started shim has no single
     owner of its packer, so each destination goes through [send]. *)
  let send_mask t ~dsts ~mask msg =
    if not t.threaded then begin
      if mask <> 0 then begin
        let p = t.out in
        let flen = stage p msg in
        for r = 0 to Array.length dsts - 1 do
          if mask land (1 lsl r) <> 0 then
            if flen > max_datagram then p.send_errors <- p.send_errors + 1
            else append p ~dst:dsts.(r) flen
        done
      end
    end
    else
      for r = 0 to Array.length dsts - 1 do
        if mask land (1 lsl r) <> 0 then send t ~dst:dsts.(r) msg
      done

  let fold_tally p obs =
    Obs.note_wire_tx_burst obs ~msgs:p.sent_frames ~bytes:p.sent_bytes;
    Obs.note_wire_dgrams_tx obs p.sent_dgrams;
    Obs.note_wire_send_errors obs p.send_errors;
    p.sent_frames <- 0;
    p.sent_dgrams <- 0;
    p.sent_bytes <- 0;
    p.send_errors <- 0

  let flush_outbox t =
    let pack_entry (dst, msg) = pack t.out ~dst msg in
    let rec go () =
      if Mailbox.drain t.outbox ~max:64 pack_entry > 0 then go ()
    in
    go ();
    flush t.out;
    match t.obs with Some obs -> fold_tally t.out obs | None -> ()

  let note_decode_error t =
    match t.obs with Some obs -> Obs.note_wire_decode_error obs | None -> ()

  let note_rx t bytes =
    match t.obs with Some obs -> Obs.note_wire_rx obs ~bytes | None -> ()

  (* One frame of a datagram, [pos] into its [len] bytes: the offset
     just past it, or -1 when it does not decode (counted) and the
     rest of the datagram is dropped. A consumer that raises must not
     kill the loop thread (a wedged node looks alive from outside): the
     frame decoded but could not be acted on — count it with the other
     unusable-input drops. *)
  let msg_frame t deliver src datagram pos len =
    match A.decode_at ~limit:len datagram ~pos with
    | Ok (msg, next) ->
        note_rx t (next - pos);
        (try deliver ~src msg with _ -> note_decode_error t);
        next
    | Error _ ->
        note_decode_error t;
        -1

  (* The same on the shim's cursor: [receive] reads the frame there and
     acts only on one that decodes to its last byte, so the cursor says
     afterwards whether it did. *)
  let cursor_frame t (receive : receiver) src _datagram pos len =
    let c = t.cur in
    Mk_wire.Wire.reset c ~pos ~limit:len;
    let raised = (try receive ~src c; false with _ -> true) in
    if Mk_wire.Wire.failed c = None && Mk_wire.Wire.remaining c = 0 then begin
      let next = Mk_wire.Wire.frame_end c in
      note_rx t (next - pos);
      if raised then note_decode_error t;
      next
    end
    else begin
      note_decode_error t;
      -1
    end

  (* [frame] is [msg_frame] or [cursor_frame], [h] its consumer. *)
  let recv_burst t frame h =
    let delivered = ref 0 in
    let attempts = ref 0 in
    let continue = ref true in
    (* Bounded on *attempts*, not deliveries: a storm of garbage
       datagrams or repeated socket errors must still let the loop get
       back to its outbox and timers. *)
    while !continue && !attempts < 512 && !delivered < 256 do
      incr attempts;
      match Unix.recvfrom t.sock t.recv_buf 0 (Bytes.length t.recv_buf) [] with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
          (* Linux surfaces async ICMP errors (a previous sendto to a
             dead peer) as ECONNREFUSED on recvfrom: swallow and keep
             receiving. *)
          ()
      | exception Unix.Unix_error (_, _, _) ->
          (* Anything else (EBADF after a close, ENOMEM, ...) would
             recur on the next recvfrom too: end the burst instead of
             spinning on it at 100% CPU. *)
          continue := false
      | len, src ->
          (* One datagram, possibly several coalesced frames: decode
             each at its offset. A frame always advances, so this
             terminates on any input; a bad frame drops the rest of
             the datagram (framing cannot resynchronize mid-stream). *)
          (match t.obs with
          | Some obs -> Obs.note_wire_dgram_rx obs
          | None -> ());
          (* Decoded in place: the string view of [recv_buf] lives only
             until the next [recvfrom], and no decoded message keeps a
             reference into it (readers copy what they keep), so the
             buffer may be overwritten once this datagram is walked.
             [len] keeps the decoder off the stale bytes of earlier,
             longer datagrams. *)
          let datagram = Bytes.unsafe_to_string t.recv_buf in
          let pos = ref 0 in
          while !pos >= 0 && !pos < len do
            let next = frame t h src datagram !pos len in
            if next >= 0 then incr delivered;
            pos := next
          done
    done;
    !delivered

  let poll t ~deliver =
    flush_outbox t;
    recv_burst t msg_frame deliver

  let poll_receiver t ~receive =
    flush_outbox t;
    recv_burst t cursor_frame receive

  let wait t ~timeout =
    flush_outbox t;
    (* A negative timeout would make select block forever. *)
    match Unix.select [ t.sock ] [] [] (Float.max 0.0 timeout) with
    | readable, _, _ -> readable <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  let drain_wake t =
    let continue = ref true in
    while !continue do
      match Unix.read t.wake_rd t.wake_buf 0 (Bytes.length t.wake_buf) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | 0 -> continue := false
      | _ -> ()
    done

  (* The threaded loop's select timeout: the longest the loop thread
     blocks and so, with a node's cores parked on their inboxes, the
     longest the node leaves a CPU idle. On a virtual machine whose
     host is shared, a vCPU idle longer than the hypervisor's
     halt-polling window (commonly 200 µs) is handed to another guest,
     and the next datagram waits for the host to schedule it back
     (steal time). On a 2-vCPU guest, a 1 ms timeout let cluster
     goodput fall by up to half in runs with high steal; 50 µs kept
     steal at the level of busy-polling loops (EXPERIMENTS.md). *)
  let tick_every_s = 0.00005

  let loop t frame h tick =
    while not !(t.stop) do
      flush_outbox t;
      (match Unix.select [ t.sock; t.wake_rd ] [] [] tick_every_s with
      | readable, _, _ ->
          if List.memq t.wake_rd readable then drain_wake t;
          if List.memq t.sock readable then ignore (recv_burst t frame h : int)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      tick ~now_us:(Mk_live.Spawn.wall () *. 1e6)
    done;
    (* Final drain so shutdown-time sends (stats, acks) leave the
       box. *)
    flush_outbox t

  let start t ?obs handlers =
    t.obs <- obs;
    t.threaded <- true;
    t.thread <-
      Some (Thread.create (fun () -> loop t msg_frame handlers.deliver handlers.tick) ())

  let start_receiver t ?obs ~tick receive =
    t.obs <- obs;
    t.threaded <- true;
    t.thread <- Some (Thread.create (fun () -> loop t cursor_frame receive tick) ())

  let set_obs t obs = t.obs <- Some obs

  let stop t =
    t.stop := true;
    (try ignore (Unix.write_substring t.wake_wr "q" 0 1 : int)
     with Unix.Unix_error (_, _, _) -> ());
    (match t.thread with
    | Some th ->
        Thread.join th;
        t.thread <- None
    | None ->
        (* Never threaded (poll mode): flush what the caller queued
           last, e.g. a Shutdown broadcast. *)
        flush_outbox t);
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      [ t.sock; t.wake_rd; t.wake_wr ]
end
