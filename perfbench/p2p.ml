(* p2p-afxdp-emc: the Scenario P2P rig on AF_XDP, 1000 uniform 64-byte
   UDP flows, driven unpaced and closed-loop in batches of 32. One batch
   is: generate 32 packets (Pktgen), enqueue them on the ingress NIC
   (Netdev), then step the virtual-time engine (Engine_vt) until the rig
   holds nothing in flight. The warm fast path: rx ring, extract, EMC
   hit, tx. One megaflow; no upcalls once warm. *)

module Sc = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen
module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Engine_vt = Ovs_datapath.Engine_vt
module Netdev = Ovs_netdev.Netdev
module Cpu = Ovs_sim.Cpu

let name = "p2p-afxdp-emc"
let setups = 9
let n_flows = 1000
let batch = 32
let warmup_batches = 2048
let max_steps = 64

(* the reproduction pin: a pass of [pin_batches] batches after warm-up
   with seed [pin_seed] charges exactly [pin_vns] virtual ns *)
let pin_seed = 1
let pin_batches = 1024
let pin_vns = 0x1.0700cccccc6f8p+23

let cfg =
  Sc.config ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~topology:Sc.P2P ~n_flows
    ~frame_len:64 ()

type rig = {
  r : Sc.rig;
  pkts : Ovs_packet.Buffer.t array;
  mutable steps : int;
  mutable idle : int;
}

let one_batch g tr =
  let r = g.r in
  Span.enter tr Span.trafficgen;
  for i = 0 to batch - 1 do
    g.pkts.(i) <- Pktgen.next r.Sc.r_gen
  done;
  Span.leave tr;
  Span.enter tr Span.netdev;
  for i = 0 to batch - 1 do
    ignore (Netdev.rss_enqueue r.Sc.r_phy0 g.pkts.(i) : bool)
  done;
  Span.leave tr;
  Engine_vt.note_offered r.Sc.r_eng batch;
  Span.enter tr Span.engine_vt;
  let k = ref 0 in
  while !k < max_steps && (!k = 0 || Sc.in_flight r > 0) do
    if Engine_vt.step r.Sc.r_eng = 0 then g.idle <- g.idle + 1;
    g.steps <- g.steps + 1;
    incr k
  done;
  Span.leave tr

let setup ~seed =
  let t0 = Samples.now_ns () in
  let r = Sc.setup cfg in
  let r = { r with Sc.r_gen = Pktgen.create ~seed ~n_flows ~frame_len:64 () } in
  let g =
    { r; pkts = Array.make batch (Pktgen.next r.Sc.r_gen); steps = 0; idle = 0 }
  in
  let t1 = Samples.now_ns () in
  for _ = 1 to warmup_batches do
    one_batch g Span.off
  done;
  Sc.quiesce r;
  let t2 = Samples.now_ns () in
  (g, (t1 -. t0) /. 1e9, (t2 -. t1) /. 1e9)

let charged_ns (r : Sc.rig) =
  List.fold_left (fun a c -> a +. Cpu.busy c) 0. r.Sc.r_machine.Cpu.ctxs

let reset_clocks (r : Sc.rig) =
  List.iter Cpu.reset r.Sc.r_machine.Cpu.ctxs;
  Dpif.reset_measurement r.Sc.r_dp

let pin g =
  reset_clocks g.r;
  for _ = 1 to pin_batches do
    one_batch g Span.off
  done;
  Sc.quiesce g.r;
  charged_ns g.r

(* every packet the rig has counted as dropped, at any layer *)
let drops (r : Sc.rig) =
  r.Sc.r_phy0.Netdev.stats.Netdev.rx_dropped
  + (Dpif.counters r.Sc.r_dp).Dp_core.dropped
  +
  match Dpif.xsks r.Sc.r_dp ~port_no:r.Sc.r_p0 with
  | Some xs ->
      Array.fold_left
        (fun a x ->
          a + x.Ovs_xsk.Xsk.rx_dropped_no_frame
          + x.Ovs_xsk.Xsk.rx_dropped_ring_full)
        0 xs
  | None -> 0

let run rep g ~tr ~trace ~seconds =
  let r = g.r in
  reset_clocks r;
  let tx0 = r.Sc.r_phy1.Netdev.stats.Netdev.tx_packets and drop0 = drops r in
  g.steps <- 0;
  g.idle <- 0;
  let win = Samples.Windows.create ~per:1024 in
  let un_pkts = ref 0 in
  let alt = Span.Alternate.create ~trace ~len:256 tr in
  let batches = ref 0 and words = ref 0. in
  let t_start = Samples.now_ns () in
  let deadline = t_start +. (seconds *. 1e9) in
  let now = ref t_start in
  while !now < deadline do
    let traced = Span.Alternate.next alt in
    let w0 = Samples.words () in
    let t0 = Samples.now_ns () in
    Span.enter tr Span.batch;
    one_batch g tr;
    Span.leave tr;
    let t1 = Samples.now_ns () in
    now := t1;
    Span.Alternate.record alt ~ns:(t1 -. t0) ~ops:batch;
    if not traced then begin
      words := !words +. (Samples.words () -. w0);
      un_pkts := !un_pkts + batch;
      Samples.Windows.add win ~ns:(t1 -. t0) ~ops:batch
    end;
    incr batches
  done;
  Span.Alternate.finish alt;
  Sc.quiesce r;
  let offered = !batches * batch in
  let delivered = r.Sc.r_phy1.Netdev.stats.Netdev.tx_packets - tx0 in
  let dropped = drops r - drop0 in
  let in_flight = Sc.in_flight r in
  let lost = offered - delivered - dropped in
  Report.ops rep ~attempted:offered ~failed:(abs lost + in_flight);
  Report.check rep "conservation" (lost = 0 && in_flight = 0)
    (Printf.sprintf "offered %d = delivered %d + dropped %d, in flight %d"
       offered delivered dropped in_flight);
  Report.end_to_end rep ~ops:win ~words:!words ~n_ops:!un_pkts
    ~rate_note:(fun r -> Printf.sprintf "wall_mpps %.4f" (r /. 1e6))
    ~words_note:"minor_words_per_pkt" ();
  (* per layer, from the traced windows *)
  let tpk = float_of_int alt.Span.Alternate.tr_ops in
  Report.layer rep "netdev.enqueue_ns_per_pkt"
    (Report.ratio (Span.self_ns tr Span.netdev) tpk);
  Report.layer rep "engine_vt.step_ns_per_pkt"
    (Report.ratio (Span.self_ns tr Span.engine_vt) tpk);
  Report.layer rep "engine_vt.words_per_pkt"
    (Report.ratio (Span.self_words tr Span.engine_vt) tpk);
  Report.layer rep "engine_vt.idle_step_share"
    (Report.ratio_i g.idle g.steps);
  Report.layer rep "trafficgen.ns_per_pkt"
    (Report.ratio (Span.self_ns tr Span.trafficgen) tpk);
  let ds = Dpstats.create () in
  Dpstats.absorb ds r.Sc.r_dp;
  Dpstats.report rep ds r.Sc.r_dp;
  alt
