(** The umem: a contiguous packet-buffer arena shared between the kernel
    driver and OVS userspace, divided into fixed-size frames. The fill ring
    hands empty frames to the kernel; the completion ring returns transmitted
    frames to userspace (Fig 4 paths 1-6). *)

type t = {
  frame_size : int;
  frame_headroom : int;  (** bytes reserved at the head of each frame *)
  n_frames : int;
  data : Bytes.t;
  fill : Ring.t;  (** userspace -> kernel: empty frames for rx *)
  completion : Ring.t;  (** kernel -> userspace: frames done transmitting *)
  birth : float array;
      (** per-frame ingress timestamp, the model's stand-in for the XDP
          metadata area in front of the packet; negative = unstamped *)
  bufs : Ovs_packet.Buffer.t array;
      (** one preallocated packet buffer per frame, aliasing the frame's
          bytes — the preallocated dp_packet array of optimization O4 *)
}

let default_frame_size = 2048
let default_frame_headroom = 256

let create ?(frame_size = default_frame_size)
    ?(frame_headroom = default_frame_headroom) ~n_frames ~ring_size () =
  let data = Bytes.make (frame_size * n_frames) '\000' in
  {
    frame_size;
    frame_headroom;
    n_frames;
    data;
    fill = Ring.create ~size:ring_size ();
    completion = Ring.create ~size:ring_size ();
    birth = Array.make n_frames (-1.);
    bufs =
      Array.init n_frames (fun _ ->
          { (Ovs_packet.Buffer.create ~headroom:0 ~size:0 ()) with
            Ovs_packet.Buffer.data });
  }

(** Byte offset of frame [idx]'s packet area (after headroom). *)
let frame_offset t idx =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.frame_offset";
  (idx * t.frame_size) + t.frame_headroom

(** Usable payload capacity of one frame. *)
let frame_capacity t = t.frame_size - t.frame_headroom

(** Per-frame ingress timestamp (the XDP metadata area in the model):
    stamped by the driver on rx, read back when the frame surfaces as a
    packet buffer. *)
let set_birth t idx ns =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.set_birth";
  t.birth.(idx) <- ns

let birth t idx =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.birth";
  t.birth.(idx)

(** Copy [len] wire bytes into frame [idx] — the model's stand-in for the
    NIC's DMA in zero-copy mode (charged as device time, not CPU). *)
let dma_into_frame t idx (src : Bytes.t) ~src_off ~len =
  if len > frame_capacity t then invalid_arg "Umem.dma_into_frame: frame overflow";
  Bytes.blit src src_off t.data (frame_offset t idx) len

(** Frame [idx]'s packet buffer, its bytes aliasing the frame in place —
    userspace processing of an AF_XDP packet is zero-copy. The buffer is
    the frame's preallocated one, reset to fresh metadata (length [len],
    the frame's ingress stamp): no allocation per packet (O4). Its
    headroom is the frame headroom, so tunnel encap works without copies
    too. The buffer is valid until the frame is received again; a packet
    that must outlive that (a parked upcall) needs a private copy. *)
let buffer_of_frame t idx ~len : Ovs_packet.Buffer.t =
  let start = frame_offset t idx in
  let b = t.bufs.(idx) in
  Ovs_packet.Buffer.reset_metadata b;
  b.Ovs_packet.Buffer.data <- t.data;
  b.Ovs_packet.Buffer.start <- start;
  b.Ovs_packet.Buffer.len <- len;
  (* reset_metadata leaves the buffer unstamped; storing only a real
     stamp keeps the common case from boxing a float *)
  let birth = t.birth.(idx) in
  if birth >= 0. then b.Ovs_packet.Buffer.birth_ns <- birth;
  b
