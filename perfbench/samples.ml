(* Growable unboxed float arrays of measurements, and the helpers every
   workload reports with: exact nearest-rank quantiles, a monotonic
   clock, the GC's allocation counter and peak heap. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 4096 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

(* nearest-rank quantile of an array; 0 for an empty one *)
let quantile_of a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(Int.max 0 (Int.min (n - 1) k))
  end

let quantile t q = quantile_of (Array.sub t.a 0 t.n) q

(* wall ns on the monotonic clock *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* minor-heap words allocated so far (no allocation itself) *)
let words () = Gc.minor_words ()

(* Peak major heap over the measured phase: [heap_mark] samples the
   major heap's current size, and the workloads call it at every window
   boundary. Gc's own top_heap_words cannot serve: it is a high-water
   mark for the whole process, set-up included. *)
let heap_peak = ref 0

let heap_reset () = heap_peak := 0
let heap_mark () = heap_peak := Int.max !heap_peak (Gc.quick_stat ()).Gc.heap_words

let heap_peak_mb () =
  float_of_int !heap_peak *. float_of_int (Sys.word_size / 8) /. 1e6

(* The host-speed reference. The reference host shares its cores and
   caches with other tenants, and how fast it lets this process run
   changes by up to 2x within a run and by a quarter over tens of
   minutes. So the timed phase also times a fixed piece of OCaml work
   between its units (never inside a timed unit): 5000 lookups of
   seeded keys in a 64k-entry Hashtbl, the kind of work the switch's
   caches and tables do. Before each reading an untimed pass of seeded
   reads over an 8 MB array outside the OCaml heap evicts the table
   from the nearer caches, so that what the switch did just before
   changes the reading as little as possible: the reading should follow
   the host, not the switch. Every wall time is reported scaled to the
   reference time [ref_ns]: a unit timed while the probe read [p] ns
   counts [ns * ref_ns / p]. *)
module Probe = struct
  let keys = 1 lsl 16
  let lookups = 5000

  (* about the probe's time on the reference host *)
  let ref_ns = 1.5e6

  let table =
    let h = Hashtbl.create keys in
    for i = 0 to keys - 1 do
      Hashtbl.replace h (i * 7919) i
    done;
    h

  let evict_slots = 1 lsl 20
  let evict_buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout evict_slots
  let () = Bigarray.Array1.fill evict_buf 1

  (* a seeded walk: [steps] indices below [n] from one linear
     congruential generator *)
  let walk ~n ~steps f =
    let x = ref 12345 in
    for _ = 1 to steps do
      x := ((!x * 1103515245) + 12345) land (n - 1);
      f !x
    done

  (* wall ns of one reading, now *)
  let take () =
    let acc = ref 0 in
    walk ~n:evict_slots ~steps:20_000 (fun i ->
        acc := !acc + Bigarray.Array1.unsafe_get evict_buf i);
    let t0 = now_ns () in
    walk ~n:keys ~steps:lookups (fun i ->
        acc := !acc + Hashtbl.find table (i * 7919));
    let t1 = now_ns () in
    ignore (Sys.opaque_identity !acc);
    t1 -. t0

  (* the factor that scales wall time taken between these readings *)
  let scale readings =
    let n = float_of_int (List.length readings) in
    ref_ns /. (List.fold_left ( +. ) 0. readings /. n)
end

(* Windows of the timed phase. Units (batches or rounds) are grouped in
   windows of [per]; a window takes a Probe reading every quarter of its
   units, and its scale is [Probe.ref_ns] over their mean. The
   end-to-end figures use every window: the rate is operations over
   scaled wall time, and a latency quantile is the median over the
   windows of each one's quantile of scaled unit latency. *)
module Windows = struct
  let samples = create
  let push = add

  type w = {
    per : int;
    mutable windows : int;
    cur : t;
    mutable ns : float;
    mutable ops : int;
    mutable readings : float list;  (** this window's Probe readings *)
    mutable lats : float array list;  (** each window's scaled latencies *)
    mutable scaled_ns : float;
    mutable raw_ns : float;
    mutable total_ops : int;
  }

  let create ~per =
    { per; windows = 0; cur = create (); ns = 0.; ops = 0; readings = [];
      lats = []; scaled_ns = 0.; raw_ns = 0.; total_ops = 0 }

  let probe w = w.readings <- Probe.take () :: w.readings

  let close w =
    if w.cur.n > 0 then begin
      probe w;
      heap_mark ();
      let scale = Probe.scale w.readings in
      let lat = Array.init w.cur.n (fun i -> w.cur.a.(i) *. scale) in
      w.lats <- lat :: w.lats;
      w.scaled_ns <- w.scaled_ns +. (w.ns *. scale);
      w.raw_ns <- w.raw_ns +. w.ns;
      w.total_ops <- w.total_ops + w.ops;
      w.windows <- w.windows + 1;
      w.cur.n <- 0;
      w.ns <- 0.;
      w.ops <- 0;
      w.readings <- []
    end

  (* one unit: its wall ns and the operations it completed; a probe
     follows every quarter window, outside the unit's timing *)
  let add w ~ns ~ops =
    push w.cur ns;
    w.ns <- w.ns +. ns;
    w.ops <- w.ops + ops;
    if w.cur.n >= w.per then close w
    else if w.cur.n mod Int.max 1 (w.per / 4) = 0 then probe w

  (* operations per scaled second, over every window *)
  let rate w =
    if w.scaled_ns > 0. then float_of_int w.total_ops /. w.scaled_ns *. 1e9
    else 0.

  (* operations per wall second, unscaled *)
  let raw_rate w =
    if w.raw_ns > 0. then float_of_int w.total_ops /. w.raw_ns *. 1e9 else 0.

  (* the median, over the windows, of each one's [q] quantile of scaled
     unit latency: a rare slow unit (a major GC slice, a burst of
     upcalls) moves one window's p99, not the figure *)
  let latency w q =
    let s = samples () in
    List.iter (fun lat -> push s (quantile_of lat q)) w.lats;
    quantile s 0.5

  (* the scale the whole phase was reported at *)
  let mean_scale w = if w.raw_ns > 0. then w.scaled_ns /. w.raw_ns else 1.
end
