(** The AF_XDP socket ("XSK"): one rx/tx ring pair bound to a (device,
    queue) and backed by a umem. The kernel side delivers packets that the
    XDP program redirected to the socket; the user side is polled by a PMD
    thread (or, without O1, by the main OVS thread). *)

let cov_rx_no_frame = Ovs_sim.Coverage.counter "xsk_rx_no_frame"
let cov_rx_ring_full = Ovs_sim.Coverage.counter "xsk_rx_ring_full"

type t = {
  umem : Umem.t;
  pool : Umempool.t;
  rx : Ring.t;
  tx : Ring.t;
  fill : Ring.t;
      (** the fill ring this socket posts to. By default the umem's shared
          fill ring (the classic single-socket-per-umem layout); with
          [~atomic:true] a private per-socket ring, as in XDP_SHARED_UMEM
          mode where every socket sharing a umem registers its own
          fill/completion rings — which is what keeps each ring SPSC when
          sockets are polled by different domains. *)
  comp : Ring.t;  (** completion ring; same sharing rule as [fill] *)
  queue_id : int;
  mutable rx_delivered : int;
  mutable rx_dropped_no_frame : int;  (** fill ring empty on arrival *)
  mutable rx_dropped_ring_full : int;
  mutable tx_sent : int;
  mutable kicks : int;  (** sendto() syscalls to flush the tx ring *)
  mutable owner_pmd : int;
      (** id of the PMD thread that owns this socket's rings, or -1. AF_XDP
          rings are single-producer/single-consumer, so exactly one PMD may
          poll an XSK — the runtime claims ownership at assignment time. *)
  fill_target : int;
      (** steady-state fill level the rx path tops the fill ring up to *)
  k_addr : int array;
  k_len : int array;
      (** kernel-side scratch for popping one fill descriptor *)
  u_addrs : int array;
  u_lens : int array;
      (** userspace-side scratch for burst pops, one slot per ring entry;
          separate from the kernel side's so the two sides of a
          cross-domain socket never share a scratch array *)
}

let default_fill_target = 1024

(** [~atomic:true] builds the socket for cross-domain use: rx/tx cursors
    become [Atomic.t] SPSC cursors, and the socket gets {e private}
    fill/completion rings over the shared umem (XDP_SHARED_UMEM style)
    instead of using the umem's, so each ring still has exactly one
    producer and one consumer when the kernel side and the PMD side run
    on different domains. *)
let create ?(ring_size = 2048) ?(fill_target = default_fill_target)
    ?(atomic = false) ~umem ~pool ~queue_id () =
  {
    umem;
    pool;
    rx = Ring.create ~atomic ~size:ring_size ();
    tx = Ring.create ~atomic ~size:ring_size ();
    fill = (if atomic then Ring.create ~atomic ~size:ring_size () else umem.Umem.fill);
    comp =
      (if atomic then Ring.create ~atomic ~size:ring_size ()
       else umem.Umem.completion);
    queue_id;
    rx_delivered = 0;
    rx_dropped_no_frame = 0;
    rx_dropped_ring_full = 0;
    tx_sent = 0;
    kicks = 0;
    owner_pmd = -1;
    fill_target;
    k_addr = [| 0 |];
    k_len = [| 0 |];
    u_addrs = Array.make ring_size 0;
    u_lens = Array.make ring_size 0;
  }

(** Claim (or release, with [-1]) this socket's rings for one PMD. *)
let set_owner t ~pmd = t.owner_pmd <- pmd

let owner t = t.owner_pmd

(** Userspace: refill the kernel's fill ring from the umempool. Requests
    at least [n] frames (what the last burst consumed) but always enough
    to top the ring back up to the socket's [fill_target] — after an allocation
    failure (pool exhausted) the deficit persists across bursts and must
    be repaid once frames are available again, or rx wedges with an
    empty fill ring. Frames the ring refuses go straight back to the
    pool; returns the number actually posted. *)
let refill t n =
  let deficit = t.fill_target - Ring.available t.fill in
  let want = Int.max n deficit in
  if want <= 0 then 0
  else
    let rec post posted = function
      | [] -> posted
      | f :: rest ->
          if Ring.produce t.fill ~addr:f ~len:0 then post (posted + 1) rest
          else begin
            Umempool.put t.pool f;
            post posted rest
          end
    in
    post 0 (Umempool.get_batch t.pool want)

(** Kernel: deliver one received packet into the socket. Copies [len]
    wire bytes from [wire] at [src_off] into a fill-ring frame (the DMA
    step) and posts an rx descriptor. [birth_ns] stamps the frame's
    XDP-metadata ingress timestamp so the latency measurement survives
    the kernel/userspace crossing (the wire bytes carry no metadata);
    negative means unstamped. Returns [false] if the packet had to be
    dropped — including frames larger than the umem frame size (AF_XDP of
    this era had no multi-buffer support, so jumbo/TSO frames cannot ride
    an XSK). *)
let kernel_rx t ~birth_ns (wire : Bytes.t) ~src_off ~len =
  if len > Umem.frame_capacity t.umem then begin
    t.rx_dropped_no_frame <- t.rx_dropped_no_frame + 1;
    Ovs_sim.Coverage.incr cov_rx_no_frame;
    false
  end
  else if Ring.pop_burst t.fill ~max:1 t.k_addr t.k_len = 0 then begin
    t.rx_dropped_no_frame <- t.rx_dropped_no_frame + 1;
    Ovs_sim.Coverage.incr cov_rx_no_frame;
    false
  end
  else begin
    let frame = t.k_addr.(0) in
    Umem.dma_into_frame t.umem frame wire ~src_off ~len;
    Umem.set_birth t.umem frame birth_ns;
    if Ring.produce t.rx ~addr:frame ~len then begin
      t.rx_delivered <- t.rx_delivered + 1;
      true
    end
    else begin
      (* rx ring full: frame goes back to the fill ring, packet is lost *)
      ignore (Ring.produce t.fill ~addr:frame ~len:0);
      t.rx_dropped_ring_full <- t.rx_dropped_ring_full + 1;
      Ovs_sim.Coverage.incr cov_rx_ring_full;
      false
    end
  end

(** Userspace: receive a burst of up to [max] packets into the caller's
    arrays — [frames.(i)] the umem frame, [bufs.(i)] its zero-copy buffer
    ({!Umem.buffer_of_frame}: valid until that frame is received again)
    — and return how many. Both arrays must hold [max] entries. *)
let rx_burst t ~max (frames : int array) (bufs : Ovs_packet.Buffer.t array) =
  let n = Ring.pop_burst t.rx ~max frames t.u_lens in
  for i = 0 to n - 1 do
    bufs.(i) <- Umem.buffer_of_frame t.umem frames.(i) ~len:t.u_lens.(i)
  done;
  n

(** Userspace: queue a frame for transmission. The data is already in the
    umem (zero-copy); the kick syscall happens in {!flush_tx}. *)
let tx t ~frame ~len = Ring.produce t.tx ~addr:frame ~len

(** Userspace: kick the kernel to transmit queued descriptors (one sendto
    per call — this is the AF_XDP tx syscall overhead of Sec 5.5) and
    recycle completed frames back to the pool. Returns the number sent. *)
let flush_tx t =
  let n = Ring.pop_burst t.tx ~max:max_int t.u_addrs t.u_lens in
  if n = 0 then 0
  else begin
    t.kicks <- t.kicks + 1;
    (* completion-ring round trip, then frames return to the pool *)
    for i = 0 to n - 1 do
      ignore (Ring.produce t.comp ~addr:t.u_addrs.(i) ~len:0)
    done;
    let done_ = Ring.pop_burst t.comp ~max:max_int t.u_addrs t.u_lens in
    Umempool.put_batch t.pool (List.init done_ (fun i -> t.u_addrs.(i)));
    t.tx_sent <- t.tx_sent + n;
    n
  end

(** Userspace: return a received frame to the pool without transmitting
    (packet consumed locally or dropped). *)
let release t ~frame = Umempool.put t.pool frame

(** Release a whole burst with batch-friendly locking. *)
let release_batch t frames = Umempool.put_batch t.pool frames
