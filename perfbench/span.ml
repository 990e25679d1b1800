(* The traced run's recorder. Spans are taken around the benchmark's own
   calls into each layer, never inside the switch: one root span per
   closed-loop batch or churn round, child spans for the layers it calls.
   Every span carries its parent and the root's id (the shared trace
   id), its wall interval on the monotonic clock and the minor words
   allocated inside it. Self time is a span's duration minus the part
   its children cover. Spans are kept in memory (up to [cap]; beyond
   that only the per-layer totals grow) and written out at the end.

   Disarmed ([on = false]) every entry point is one branch, which is how
   the timed run calls it. *)

let layers =
  [| "batch"; "trafficgen"; "netdev"; "engine_vt"; "dpif"; "agent";
     "ofp_codec"; "ofconn"; "revalidator" |]

let batch = 0
let trafficgen = 1
let netdev = 2
let engine_vt = 3
let dpif = 4
let agent = 5
let ofp_codec = 6
let ofconn = 7
let revalidator = 8
let n_layers = Array.length layers
let max_depth = 8
let cap = 1 lsl 18

type t = {
  mutable on : bool;
  (* open spans *)
  mutable depth : int;
  s_id : int array;
  s_layer : int array;
  s_t0 : float array;
  s_w0 : float array;
  s_child_ns : float array;
  s_child_w : float array;
  mutable next_id : int;
  mutable trace_id : int;
  (* per-layer totals over every closed span *)
  self_ns : float array;
  self_words : float array;
  calls : int array;
  (* GC collections across root spans, from Gc.quick_stat *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable gc0_minor : int;
  mutable gc0_major : int;
  (* kept spans *)
  cap : int;
  mutable kept : int;
  mutable dropped : int;
  k_id : int array;
  k_parent : int array;
  k_trace : int array;
  k_layer : int array;
  k_t0 : float array;
  k_t1 : float array;
  k_words : float array;
}

let create ?(cap = cap) () =
  let fa n = Array.make n 0. and ia n = Array.make n 0 in
  {
    on = false;
    depth = 0;
    s_id = ia max_depth;
    s_layer = ia max_depth;
    s_t0 = fa max_depth;
    s_w0 = fa max_depth;
    s_child_ns = fa max_depth;
    s_child_w = fa max_depth;
    next_id = 0;
    trace_id = 0;
    self_ns = fa n_layers;
    self_words = fa n_layers;
    calls = ia n_layers;
    minor_gcs = 0;
    major_gcs = 0;
    gc0_minor = 0;
    gc0_major = 0;
    kept = 0;
    dropped = 0;
    cap;
    k_id = ia cap;
    k_parent = ia cap;
    k_trace = ia cap;
    k_layer = ia cap;
    k_t0 = fa cap;
    k_t1 = fa cap;
    k_words = fa cap;
  }

let enter t layer =
  if t.on then begin
    let d = t.depth in
    if d = 0 then begin
      let s = Gc.quick_stat () in
      t.gc0_minor <- s.Gc.minor_collections;
      t.gc0_major <- s.Gc.major_collections;
      t.trace_id <- t.next_id
    end;
    t.s_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.s_layer.(d) <- layer;
    t.s_child_ns.(d) <- 0.;
    t.s_child_w.(d) <- 0.;
    t.depth <- d + 1;
    t.s_w0.(d) <- Samples.words ();
    t.s_t0.(d) <- Samples.now_ns ()
  end

let leave t =
  if t.on then begin
    let t1 = Samples.now_ns () in
    let w1 = Samples.words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = t1 -. t.s_t0.(d) and w = w1 -. t.s_w0.(d) in
    let l = t.s_layer.(d) in
    t.self_ns.(l) <- t.self_ns.(l) +. dur -. t.s_child_ns.(d);
    t.self_words.(l) <- t.self_words.(l) +. w -. t.s_child_w.(d);
    t.calls.(l) <- t.calls.(l) + 1;
    if d > 0 then begin
      t.s_child_ns.(d - 1) <- t.s_child_ns.(d - 1) +. dur;
      t.s_child_w.(d - 1) <- t.s_child_w.(d - 1) +. w
    end
    else begin
      let s = Gc.quick_stat () in
      t.minor_gcs <- t.minor_gcs + s.Gc.minor_collections - t.gc0_minor;
      t.major_gcs <- t.major_gcs + s.Gc.major_collections - t.gc0_major
    end;
    if t.kept < t.cap then begin
      let k = t.kept in
      t.k_id.(k) <- t.s_id.(d);
      t.k_parent.(k) <- (if d > 0 then t.s_id.(d - 1) else -1);
      t.k_trace.(k) <- t.trace_id;
      t.k_layer.(k) <- l;
      t.k_t0.(k) <- t.s_t0.(d);
      t.k_t1.(k) <- t1;
      t.k_words.(k) <- w;
      t.kept <- k + 1
    end
    else t.dropped <- t.dropped + 1
  end

(* a recorder that is never armed, for untimed passes *)
let off = create ~cap:0 ()

let self_ns t l = t.self_ns.(l)
let self_words t l = t.self_words.(l)
let calls t l = t.calls.(l)

let total_self_ns t = Array.fold_left ( +. ) 0. t.self_ns

(* Write the kept spans as CSV, one per line, start/end relative to the
   first span. *)
let write t path =
  let oc = open_out path in
  output_string oc "id,parent,trace,layer,start_ns,end_ns,minor_words\n";
  let base = if t.kept > 0 then t.k_t0.(0) else 0. in
  for k = 0 to t.kept - 1 do
    Printf.fprintf oc "%d,%d,%d,%s,%.0f,%.0f,%.0f\n" t.k_id.(k) t.k_parent.(k)
      t.k_trace.(k) layers.(t.k_layer.(k)) (t.k_t0.(k) -. base)
      (t.k_t1.(k) -. base) t.k_words.(k)
  done;
  close_out oc

(* GC pause time from the runtime's own event ring: the wall time the
   (single) domain spends inside minor collections and major slices.
   [window_begin] drops whatever the ring holds, [poll] accumulates
   pauses that ended since, [window_end] closes the traced window. *)
module Pause = struct
  let cursor = ref None
  let active = ref false
  let total_ns = ref 0.
  let window_ns = ref 0.
  let opened = ref 0.
  let minor_t0 = ref (-1L)
  let slice_t0 = ref (-1L)

  let callbacks =
    let open Runtime_events in
    let runtime_begin _dom ts phase =
      match phase with
      | EV_MINOR -> minor_t0 := Timestamp.to_int64 ts
      | EV_MAJOR_SLICE -> slice_t0 := Timestamp.to_int64 ts
      | _ -> ()
    in
    let close r ts =
      if !r >= 0L then begin
        if !active then
          total_ns :=
            !total_ns +. Int64.to_float (Int64.sub (Timestamp.to_int64 ts) !r);
        r := -1L
      end
    in
    let runtime_end _dom ts phase =
      match phase with
      | EV_MINOR -> close minor_t0 ts
      | EV_MAJOR_SLICE -> close slice_t0 ts
      | _ -> ()
    in
    Callbacks.create ~runtime_begin ~runtime_end ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
    | None -> ()

  let window_begin () =
    active := false;
    poll ();
    minor_t0 := -1L;
    slice_t0 := -1L;
    active := true;
    opened := Samples.now_ns ()

  let window_end () =
    poll ();
    active := false;
    window_ns := !window_ns +. (Samples.now_ns () -. !opened)

  let share () = if !window_ns > 0. then !total_ns /. !window_ns else 0.

  let stop () =
    match !cursor with
    | Some c ->
        Runtime_events.free_cursor c;
        cursor := None;
        Runtime_events.pause ()
    | None -> ()
end

(* The traced run alternates windows of [len] units (batches, epochs or
   rounds) with tracing off and on, so the untraced and traced rates come
   from the same run and the same state; their ratio is the tracing
   overhead. With [trace = false] every unit is untraced. *)
module Alternate = struct
  type w = {
    trace : bool;
    tr : t;
    len : int;
    mutable k : int;
    mutable traced : bool;
    mutable tr_ns : float;
    mutable tr_ops : int;
    mutable un_ns : float;
    mutable un_ops : int;
  }

  let create ~trace ~len tr =
    { trace; tr; len; k = 0; traced = false; tr_ns = 0.; tr_ops = 0;
      un_ns = 0.; un_ops = 0 }

  let set w on =
    if on <> w.traced then begin
      if on then Pause.window_begin () else Pause.window_end ();
      w.traced <- on;
      w.tr.on <- on
    end

  (* call before each unit; true when the unit is traced *)
  let next w =
    if w.trace then set w ((w.k / w.len) mod 2 = 1);
    w.traced

  let record w ~ns ~ops =
    w.k <- w.k + 1;
    if w.traced then begin
      w.tr_ns <- w.tr_ns +. ns;
      w.tr_ops <- w.tr_ops + ops
    end
    else begin
      w.un_ns <- w.un_ns +. ns;
      w.un_ops <- w.un_ops + ops
    end

  let finish w = set w false

  (* traced wall time per op over untraced, minus one *)
  let overhead w =
    if w.tr_ops = 0 || w.un_ops = 0 || w.un_ns = 0. then 0.
    else
      (w.tr_ns /. float_of_int w.tr_ops)
      /. (w.un_ns /. float_of_int w.un_ops)
      -. 1.
end
