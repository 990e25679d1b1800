(* Datapath-layer readouts shared by the workloads: cache-hierarchy
   counters summed over the measured phase (a workload may run several
   datapath instances in it), and per-packet wall time and allocation of
   Dpif.process calls, split by whether the packet took an upcall. *)

module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core

type t = {
  mutable packets : int;
  mutable passes : int;
  mutable upcalls : int;
  mutable emc : int;
  mutable smc : int;
  mutable dpcls : int;
  hit_ns : Samples.t;
  hit_words : Samples.t;
  upcall_ns : Samples.t;
  upcall_words : Samples.t;
}

let create () =
  {
    packets = 0;
    passes = 0;
    upcalls = 0;
    emc = 0;
    smc = 0;
    dpcls = 0;
    hit_ns = Samples.create ();
    hit_words = Samples.create ();
    upcall_ns = Samples.create ();
    upcall_words = Samples.create ();
  }

(* fold in a datapath's counters (since its last reset_measurement) *)
let absorb t dp =
  let c = Dpif.counters dp in
  t.packets <- t.packets + c.Dp_core.packets;
  t.passes <- t.passes + c.Dp_core.passes;
  t.upcalls <- t.upcalls + c.Dp_core.upcalls;
  t.emc <- t.emc + c.Dp_core.emc_hits;
  t.smc <- t.smc + c.Dp_core.smc_hits;
  t.dpcls <- t.dpcls + c.Dp_core.dpcls_hits

(* one timed Dpif.process call, classified by the upcall counter *)
let process_timed t dp charge pkt =
  let c = Dpif.counters dp in
  let u0 = c.Dp_core.upcalls in
  let w0 = Samples.words () in
  let t0 = Samples.now_ns () in
  Dpif.process dp charge pkt;
  let t1 = Samples.now_ns () in
  let w = Samples.words () -. w0 in
  if c.Dp_core.upcalls > u0 then begin
    Samples.add t.upcall_ns (t1 -. t0);
    Samples.add t.upcall_words w
  end
  else begin
    Samples.add t.hit_ns (t1 -. t0);
    Samples.add t.hit_words w
  end

let mean s = Report.ratio (Samples.sum s) (float_of_int (Samples.count s))

let report rep t dp =
  let passes = float_of_int t.passes in
  let pkts = float_of_int t.packets in
  Report.layer rep "dpif.hit_ns_p50" (Samples.quantile t.hit_ns 0.5)
    ~note:(Printf.sprintf "n=%d" (Samples.count t.hit_ns));
  Report.layer rep "dpif.upcall_us_p50"
    (Samples.quantile t.upcall_ns 0.5 /. 1e3)
    ~note:(Printf.sprintf "n=%d" (Samples.count t.upcall_ns));
  Report.layer rep "dpif.upcall_us_p99"
    (Samples.quantile t.upcall_ns 0.99 /. 1e3);
  Report.layer rep "dpif.words_per_hit" (mean t.hit_words);
  Report.layer rep "dpif.words_per_upcall" (mean t.upcall_words);
  Report.layer rep "conntrack.conns"
    (float_of_int (Ovs_conntrack.Conntrack.active_conns (Dpif.conntrack dp)));
  Report.layer rep "flow.emc_hit_ratio"
    (Report.ratio (float_of_int t.emc) passes);
  Report.layer rep "flow.smc_hit_ratio"
    (Report.ratio (float_of_int t.smc) passes);
  Report.layer rep "flow.dpcls_hit_ratio"
    (Report.ratio (float_of_int t.dpcls) passes);
  Report.layer rep "flow.upcalls_per_pkt"
    (Report.ratio (float_of_int t.upcalls) pkts);
  Report.layer rep "flow.passes_per_pkt" (Report.ratio passes pkts);
  let subtables, megaflows, probes = Dpif.dpcls_stats dp in
  Report.layer rep "flow.megaflows" (float_of_int megaflows);
  Report.layer rep "flow.subtables" (float_of_int subtables);
  Report.layer rep "flow.mean_probes" probes
