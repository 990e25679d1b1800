(** Single-producer/single-consumer descriptor ring, the core data structure
    of AF_XDP's four rings (fill, completion, rx, tx). Power-of-two sized,
    index-masked, exactly like the kernel's.

    The ring comes in two flavours behind one API:

    - {b plain} (default): cursors are ordinary mutable ints. This is the
      virtual-time mode used by the simulator and the schedule explorer —
      single OS thread, determinism guaranteed, zero synchronization cost.
    - {b atomic} ([~atomic:true]): cursors are [Atomic.t] and follow the
      SPSC publication protocol of the real AF_XDP rings. The producer
      writes the descriptor slot {e first} and only then publishes the new
      producer cursor; the consumer reads the producer cursor {e first} and
      only then the slot. OCaml's [Atomic] operations are sequentially
      consistent — strictly stronger than the acquire/release pairs the
      kernel uses — so the slot write happens-before the slot read and a
      consumer can never observe an unpublished descriptor. See DESIGN.md
      ("memory model of the SPSC ring") for the full argument.

    Cursors are opaque: external code goes through {!produce}/{!consume}
    (and their burst forms) and reads positions via {!prod_idx}/{!cons_idx}.
    The only sanctioned way to corrupt a ring is {!corrupt_rewind_cons},
    the hook the schedule explorer's mutation harness uses to prove the
    oracles catch a double-consume. *)

type desc = { addr : int; len : int }
(** [addr] is a umem frame index; [len] the packet length within it. The
    ring stores descriptors unboxed (see [t]); this record is only the
    shape {!consume} and the introspection calls hand back. *)

(* A cursor is a monotonically increasing total count (never masked).
   Exactly one side writes each cursor; the other side only reads it. *)
type cursor = Plain of int ref | Atomic of int Atomic.t

let cursor_make ~atomic v = if atomic then Atomic (Atomic.make v) else Plain (ref v)
let cursor_get = function Plain r -> !r | Atomic a -> Atomic.get a

(* In atomic mode this is the release/publish step of the SPSC protocol:
   every slot write the new value covers was sequenced before it. *)
let cursor_set c v = match c with Plain r -> r := v | Atomic a -> Atomic.set a v

(* Slot [i] holds the descriptor (addrs.(i), lens.(i)). Two int arrays
   rather than an array of records: producing a descriptor writes two
   immediates and allocates nothing, so a long-lived ring never drags
   freshly allocated records into the major heap. *)
type t = {
  size : int;
  mask : int;
  addrs : int array;
  lens : int array;
  prod : cursor;  (** total descriptors ever produced; written by producer only *)
  cons : cursor;  (** total descriptors ever consumed; written by consumer only *)
  mutable prod_ops : int;
      (** producer-side ring operations, for the cost model (owner-written) *)
  mutable cons_ops : int;
      (** consumer-side ring operations, for the cost model (owner-written) *)
  atomic : bool;
}

let create ?(atomic = false) ~size () =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Ring.create: size must be a positive power of two";
  {
    size;
    mask = size - 1;
    addrs = Array.make size 0;
    lens = Array.make size 0;
    prod = cursor_make ~atomic 0;
    cons = cursor_make ~atomic 0;
    prod_ops = 0;
    cons_ops = 0;
    atomic;
  }

let size t = t.size
let is_atomic t = t.atomic
let prod_idx t = cursor_get t.prod
let cons_idx t = cursor_get t.cons

(** Producer- and consumer-side operation counts, summed — the cost-model
    input. Split internally so each side of an atomic ring only writes its
    own field. *)
let ops t = t.prod_ops + t.cons_ops

(** Descriptors ready to consume. On an atomic ring this is a racy
    snapshot: exact from the consumer side (may miss in-flight produces),
    exact from the producer side (may miss in-flight consumes), and in both
    cases conservative for the reader's own next operation. *)
let available t = cursor_get t.prod - cursor_get t.cons

let free_space t = t.size - available t
let is_empty t = available t = 0
let is_full t = free_space t = 0

let slot t i = { addr = t.addrs.(i land t.mask); len = t.lens.(i land t.mask) }

(** Produce one descriptor. Returns [false] (and drops) when full. *)
let produce t ~addr ~len =
  t.prod_ops <- t.prod_ops + 1;
  let p = cursor_get t.prod in
  if p - cursor_get t.cons >= t.size then false
  else begin
    let i = p land t.mask in
    t.addrs.(i) <- addr;
    t.lens.(i) <- len;
    cursor_set t.prod (p + 1);
    true
  end

(** Consume one descriptor, or [None] when empty. *)
let consume t =
  t.cons_ops <- t.cons_ops + 1;
  let c = cursor_get t.cons in
  if cursor_get t.prod - c = 0 then None
  else begin
    let d = slot t c in
    cursor_set t.cons (c + 1);
    Some d
  end

(** Consume up to [max] descriptors into [addrs]/[lens] from index 0
    (oldest first); returns how many. One ring operation regardless of
    the count — batching is the point (O3). The consumer cursor is
    published once, after every slot has been read. *)
let pop_burst t ~max addrs lens =
  t.cons_ops <- t.cons_ops + 1;
  let c = cursor_get t.cons in
  let n = Int.min max (cursor_get t.prod - c) in
  for k = 0 to n - 1 do
    let i = (c + k) land t.mask in
    addrs.(k) <- t.addrs.(i);
    lens.(k) <- t.lens.(i)
  done;
  if n > 0 then cursor_set t.cons (c + n);
  n

(** Produce the first [n] descriptors of [addrs]/[lens]; returns how
    many fit. One ring operation; the producer cursor is published once,
    after every slot has been written. *)
let push_burst t addrs lens n =
  t.prod_ops <- t.prod_ops + 1;
  let p0 = cursor_get t.prod in
  let n = Int.min n (t.size - (p0 - cursor_get t.cons)) in
  for k = 0 to n - 1 do
    let i = (p0 + k) land t.mask in
    t.addrs.(i) <- addrs.(k);
    t.lens.(i) <- lens.(k)
  done;
  if n > 0 then cursor_set t.prod (p0 + n);
  n

(** Snapshot of the descriptors currently pending (oldest first) without
    consuming them or counting a ring operation — introspection for
    invariant checkers (the schedule explorer's frame-conservation
    oracle), not a datapath primitive. Only meaningful at quiescent points
    on an atomic ring. *)
let pending t =
  let c = cursor_get t.cons in
  List.init (cursor_get t.prod - c) (fun i -> slot t (c + i))

(** [peek t i] is the [i]-th pending descriptor (0 = oldest) without
    consuming it. @raise Invalid_argument when fewer than [i+1] pending. *)
let peek t i =
  if i < 0 || i >= available t then invalid_arg "Ring.peek: out of range";
  slot t (cursor_get t.cons + i)

(** Rewind the consumer cursor by one — a deliberate double-consume
    corruption. This exists solely for the schedule explorer's mutation
    harness (M_ring_rewind), which proves the ring-sanity oracle detects
    cursor regression; it is not a datapath operation. No-op on an empty
    history (cons = 0). *)
let corrupt_rewind_cons t =
  let c = cursor_get t.cons in
  if c > 0 then cursor_set t.cons (c - 1)
