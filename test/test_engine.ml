(* Tests for the execution engines: Engine_vt byte-determinism (golden
   values captured on the pre-engine scheduler, plus fingerprints of
   every other Scenario runner), Engine_vt's step and stats, the
   cross-domain primitives (atomic SPSC ring, Spscq, contended
   umempool, domain-safe coverage), and the Engine_domains parallel rig
   with its invariant oracles armed. *)

module Scenario = Ovs_trafficgen.Scenario
module Engine = Ovs_datapath.Engine
module Engine_vt = Ovs_datapath.Engine_vt
module Engine_domains = Ovs_datapath.Engine_domains
module Ring = Ovs_xsk.Ring
module Spscq = Ovs_xsk.Spscq
module Umempool = Ovs_xsk.Umempool
module Coverage = Ovs_sim.Coverage

let check = Alcotest.check

(* -- Engine_vt determinism: byte-identical to the pre-engine scheduler --

   The golden values below were captured by running these exact configs
   on the scheduler as it was before the Engine extraction (commit
   a2b9f21), printed with %.17g — every bit of the double. If the engine
   wrapper perturbs charged cycles, poll order, or accounting by any
   amount, these change. *)

let fingerprint (r : Scenario.result) =
  Printf.sprintf "rate=%.17g wall=%.17g busy=%.17g packets=%d"
    r.Scenario.rate_mpps r.Scenario.wall_ns r.Scenario.busy_ns
    r.Scenario.packets

let golden_pmd2 () =
  let r =
    Scenario.run
      (Scenario.config ~n_pmds:2 ~n_rxqs:2 ~queues:2 ~n_flows:8 ~measure:8_000
         ())
  in
  check Alcotest.string "pmd runtime charged cycles byte-identical"
    "rate=10.01975802346978 wall=798422.47500001499 \
     busy=2419150.0000000279 packets=8000"
    (fingerprint r)

let golden_legacy () =
  let r = Scenario.run (Scenario.config ~queues:2 ~n_flows:16 ~measure:8_000 ()) in
  check Alcotest.string "legacy loop charged cycles byte-identical"
    "rate=8.8928405213835227 wall=899600.07500003872 \
     busy=2419150.0000000279 packets=8000"
    (fingerprint r)

let golden_pvp () =
  let r =
    Scenario.run
      (Scenario.config ~topology:(Scenario.PVP Scenario.Vm_vhost) ~n_flows:4
         ~measure:6_000 ())
  in
  check Alcotest.string "PVP charged cycles byte-identical"
    "rate=5.9074945429517944 wall=1018367.4240000208 \
     busy=2980588.8480000403 packets=6016"
    (fingerprint r)

let vt_repeatable () =
  let go () =
    fingerprint
      (Scenario.run (Scenario.config ~n_pmds:2 ~queues:2 ~n_flows:8 ~measure:4_000 ()))
  in
  check Alcotest.string "two runs, same fingerprint" (go ()) (go ())

(* -- every other Scenario runner, pinned the same way --

   Chaos, live reconfiguration, the paced latency driver and the NDR
   probe each charge their own phases. These fingerprints were captured
   with %.17g before the runners shared one phase driver; a change to
   the phase machinery that moves a single charge shows up here. *)

module Chaos = Ovs_trafficgen.Chaos
module Reconfig = Ovs_ofproto.Reconfig
module Pktgen = Ovs_trafficgen.Pktgen
module Quantiles = Ovs_sim.Quantiles
module Dpif = Ovs_datapath.Dpif

let chaos_fingerprint plan leg =
  let spec = List.find (fun s -> s.Chaos.s_name = plan) Chaos.catalog in
  let c = (Chaos.run_one spec leg).Chaos.row_res in
  Printf.sprintf
    "base=%.17g fault=%.17g post=%.17g off=%d del=%d drops=%d rec=%s lat=%d"
    c.Scenario.c_baseline_mpps c.Scenario.c_faulted_mpps
    c.Scenario.c_post_mpps c.Scenario.c_offered c.Scenario.c_delivered
    c.Scenario.c_drops
    (match c.Scenario.c_recovery_ns with
    | Some ns -> Printf.sprintf "%.17g" ns
    | None -> "-")
    c.Scenario.c_latency_count

let golden_chaos_pmd_crash () =
  check Alcotest.string "pmd_crash/pmd byte-identical"
    "base=10.079364756047699 fault=8.0678995230637778 \
     post=10.079364756047699 off=20000 del=20000 drops=0 \
     rec=150301.13749999047 lat=20000"
    (chaos_fingerprint "pmd_crash" Chaos.Pmd_leg)

let golden_chaos_pkt_mangle () =
  check Alcotest.string "pkt_mangle/afxdp byte-identical"
    "base=7.2429324822891532 fault=6.6332070021712166 \
     post=7.2429324822891532 off=20000 del=18430 drops=1570 rec=- lat=18430"
    (chaos_fingerprint "pkt_mangle" Chaos.Afxdp_leg)

let reconfig_fingerprint ~naive =
  let swap = if naive then "swap-naive" else "swap" in
  let plan =
    Reconfig.plan_of_string ~name:swap
      (String.concat "\n"
         [
           "@0.000100 insert table=0,priority=400,udp,in_port=0,actions=output:1";
           "@0.000200 delete table=0,udp,in_port=0";
           "@0.000300 " ^ swap
           ^ " table=0,priority=200,udp,in_port=0,actions=output:1; \
              table=0,priority=10,actions=output:1";
         ])
  in
  let r =
    Scenario.run_reconfig
      (Scenario.config ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~warmup:1_000
         ~measure:4_000 ~latency:true ())
      plan
  in
  Printf.sprintf "off=%d del=%d drops=%d van=%d rec=%s ev=[%s]"
    r.Scenario.rc_offered r.Scenario.rc_delivered r.Scenario.rc_drops
    r.Scenario.rc_vanished
    (match r.Scenario.rc_upgrade with
    | Some u -> Printf.sprintf "%.17g" u.Reconfig.up_recovery_ns
    | None -> "-")
    (String.concat " "
       (List.map
          (fun (e : Scenario.churn_event) ->
            Printf.sprintf "%d/%d/%d" e.Scenario.e_dirty e.Scenario.e_retx
              e.Scenario.e_evicted)
          r.Scenario.rc_events))

let golden_reconfig_two_phase () =
  check Alcotest.string "two-phase swap on afxdp byte-identical"
    "off=4000 del=4000 drops=0 van=0 rec=30385.099999999569 \
     ev=[1/1/1 1/1/1 0/0/1]"
    (reconfig_fingerprint ~naive:false)

let golden_reconfig_naive () =
  check Alcotest.string "naive swap on afxdp byte-identical"
    "off=4000 del=3488 drops=0 van=512 rec=101793.69999999361 \
     ev=[1/1/1 1/1/1 2/2/2]"
    (reconfig_fingerprint ~naive:true)

let sketch_fingerprint q =
  Printf.sprintf "n=%d sum=%.17g p50=%.17g p99=%.17g max=%.17g"
    (Quantiles.count q) (Quantiles.sum q) (Quantiles.p50 q) (Quantiles.p99 q)
    (Quantiles.quantile q 100.)

let latency_fingerprint ?burst () =
  let rig =
    Scenario.setup (Scenario.config ~n_flows:8 ~latency:true ~burst ())
  in
  Scenario.drive rig 2_000;
  let delivered, q = Scenario.measure_latency rig ~rate_pps:2e6 5_000 in
  Printf.sprintf "del=%d %s" delivered (sketch_fingerprint q)

let golden_latency_steady () =
  check Alcotest.string "steady 2 Mpps sketch byte-identical"
    "del=5000 n=5000 sum=38702000 p50=7520.9427538659484 \
     p99=15396.116737783464 max=15500"
    (latency_fingerprint ())

let golden_latency_burst () =
  check Alcotest.string "bursty 2 Mpps sketch byte-identical"
    "del=5000 n=5000 sum=159602000 p50=15092.752414256907 \
     p99=65816.042940587547 max=65500"
    (latency_fingerprint
       ~burst:{ Pktgen.on_packets = 64; off_ns = 50_000. }
       ())

let golden_ndr_probes () =
  let rig = Scenario.setup (Scenario.config ~n_flows:1 ~latency:true ()) in
  Scenario.drive rig 2_000;
  let probe rate_pps =
    let p = Scenario.ndr_probe rig ~rate_pps 10_000 in
    Printf.sprintf "%d/%d wall=%.17g %s" p.Ovs_trafficgen.Ndr.offered
      p.Ovs_trafficgen.Ndr.delivered
      (Ovs_sim.Cpu.wall rig.Scenario.r_machine)
      (sketch_fingerprint (Dpif.latency rig.Scenario.r_dp))
  in
  check
    Alcotest.(list string)
    "three-rate probe sequence byte-identical"
    [
      "10000/6176 wall=852693.30000001728 n=6176 sum=2034186912.7409823 \
       p50=336540.29261208349 p99=564609.92054118984 max=568134.14285712829";
      "10000/10000 wall=10000000 n=10000 sum=154872000 \
       p50=15092.752414256907 p99=30896.363084922938 max=31000";
      "10000/10000 wall=1666666.6666668567 n=10000 sum=25396166.666669283 \
       p50=2517.2199609478134 p99=5152.9992504609936 max=5166.6666666690726";
    ]
    (List.map probe [ 3.5e7; 1e6; 6e6 ])

(* -- the vt engine's step and stats, called directly -- *)

let vt_step_stats () =
  let rig = Scenario.setup (Scenario.config ~n_pmds:2 ~queues:2 ~n_flows:4 ()) in
  let eng = rig.Scenario.r_eng in
  (* no traffic yet: a sweep polls empty queues *)
  check Alcotest.int "empty sweep" 0 (Engine_vt.step eng);
  let s = Engine_vt.stats eng in
  check Alcotest.string "stats engine" "vt" s.Engine.s_engine;
  check Alcotest.int "units = pmds" 2 s.Engine.s_units;
  check Alcotest.int "unit detail rows" 2 (List.length s.Engine.s_units_detail)

(* -- the warm fast path's allocation budget --

   A warm AF_XDP EMC hit allocates only what outlives the packet or is
   handed across a closure: the flow key, the wire copy, boxed charges.
   Receive buffers, ring descriptors, eBPF VM state and header records
   are reused. 1024 batches of 32 packets through Engine_vt.step on the
   P2P rig (1000 flows, one megaflow, every flow in the EMC) must stay
   within 220 minor words per packet; generating and enqueueing the
   packets is outside the measured region. *)

let vt_step_alloc_budget () =
  let module Pktgen = Ovs_trafficgen.Pktgen in
  let rig =
    Scenario.setup
      (Scenario.config
         ~kind:(Ovs_datapath.Dpif.Afxdp Ovs_datapath.Dpif.afxdp_default)
         ~topology:Scenario.P2P ~n_flows:1000 ~frame_len:64 ())
  in
  let batches = 1024 and batch = 32 in
  let words = ref 0. in
  let one_batch ~measure =
    for _ = 1 to batch do
      ignore
        (Ovs_netdev.Netdev.rss_enqueue rig.Scenario.r_phy0
           (Pktgen.next rig.Scenario.r_gen)
          : bool)
    done;
    let w0 = Gc.minor_words () in
    let steps = ref 0 in
    while !steps = 0 || Scenario.in_flight rig > 0 do
      ignore (Engine_vt.step rig.Scenario.r_eng : int);
      incr steps
    done;
    if measure then words := !words +. (Gc.minor_words () -. w0)
  in
  for _ = 1 to 512 do
    one_batch ~measure:false
  done;
  for _ = 1 to batches do
    one_batch ~measure:true
  done;
  let per_pkt = !words /. float_of_int (batches * batch) in
  if per_pkt > 220. then
    Alcotest.failf "warm EMC hit allocates %.1f minor words/packet (budget 220)"
      per_pkt

(* -- plain and atomic rings: one API, same behavior --

   The SPSC publication protocol must not change single-threaded
   semantics: any op sequence gives identical results on both flavours. *)

let ring_flavor_equiv =
  let gen = QCheck.(list (pair small_nat bool)) in
  QCheck.Test.make ~name:"plain and atomic rings behave identically" ~count:200
    gen (fun ops ->
      let a = Ring.create ~size:16 () in
      let b = Ring.create ~atomic:true ~size:16 () in
      List.for_all
        (fun (n, push) ->
          if push then
            Ring.produce a ~addr:n ~len:(n land 0xff)
            = Ring.produce b ~addr:n ~len:(n land 0xff)
          else Ring.consume a = Ring.consume b)
        ops
      && Ring.available a = Ring.available b
      && Ring.prod_idx a = Ring.prod_idx b
      && Ring.cons_idx a = Ring.cons_idx b
      && Ring.ops a = Ring.ops b)

(* -- cross-domain SPSC: a producer domain, this consumer -- *)

let ring_spsc_two_domains () =
  let n = 50_000 in
  let r = Ring.create ~atomic:true ~size:64 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Ring.produce r ~addr:i ~len:(i land 0xff)) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and in_order = ref true and last_cons = ref 0 in
  while !got < n do
    (match Ring.consume r with
    | Some { Ring.addr; len } ->
        if addr <> !got || len <> addr land 0xff then in_order := false;
        incr got
    | None -> Domain.cpu_relax ());
    let c = Ring.cons_idx r in
    if c < !last_cons then in_order := false;
    last_cons := c
  done;
  Domain.join producer;
  check Alcotest.bool "descriptors in order, cursors monotone" true !in_order;
  check Alcotest.int "all consumed" n (Ring.cons_idx r);
  check Alcotest.int "nothing pending" 0 (Ring.available r)

let ring_spsc_bursts () =
  let n = 50_000 in
  let r = Ring.create ~atomic:true ~size:128 () in
  let producer =
    Domain.spawn (fun () ->
        let sent = ref 0 in
        let addrs = Array.make 32 0 and lens = Array.make 32 0 in
        while !sent < n do
          let k = Int.min 32 (n - !sent) in
          for j = 0 to k - 1 do
            addrs.(j) <- !sent + j
          done;
          let pushed = Ring.push_burst r addrs lens k in
          sent := !sent + pushed;
          if pushed = 0 then Domain.cpu_relax ()
        done)
  in
  let got = ref 0 and in_order = ref true in
  let addrs = Array.make 32 0 and lens = Array.make 32 0 in
  while !got < n do
    match Ring.pop_burst r ~max:32 addrs lens with
    | 0 -> Domain.cpu_relax ()
    | k ->
        for j = 0 to k - 1 do
          if addrs.(j) <> !got then in_order := false;
          incr got
        done
  done;
  Domain.join producer;
  check Alcotest.bool "burst stream in order" true !in_order;
  check Alcotest.int "all consumed" n !got

let spscq_two_domains () =
  let n = 50_000 in
  let q : int Spscq.t = Spscq.create ~capacity:37 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spscq.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and ok = ref true in
  while !got < n do
    match Spscq.try_pop q with
    | Some v ->
        if v <> !got then ok := false;
        if Spscq.length q > Spscq.capacity q then ok := false;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "fifo order and bound held" true !ok;
  check Alcotest.bool "drained" true (Spscq.is_empty q)

(* -- contended umempool: 4 domains allocating under the real mutex -- *)

let umempool_contended () =
  let n_frames = 256 and n_domains = 4 and rounds = 5_000 in
  let pool =
    Umempool.create ~contended:true ~n_frames ~strategy:Umempool.Spinlock_batched
      ()
  in
  (* one flag per frame: set on get, cleared on put — a double allocation
     trips the compare_and_set *)
  let owned = Array.init n_frames (fun _ -> Atomic.make false) in
  let races = Atomic.make 0 in
  let worker () =
    for _ = 1 to rounds do
      let frames = Umempool.get_batch pool 8 in
      List.iter
        (fun f ->
          if not (Atomic.compare_and_set owned.(f) false true) then
            Atomic.incr races)
        frames;
      List.iter
        (fun f ->
          if not (Atomic.compare_and_set owned.(f) true false) then
            Atomic.incr races)
        frames;
      Umempool.put_batch pool frames
    done
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check Alcotest.int "no frame handed to two domains" 0 (Atomic.get races);
  check Alcotest.int "every frame back in the pool" n_frames
    (List.length (Umempool.free_frames pool))

(* -- coverage counters: per-domain accumulation, no lost increments -- *)

let coverage_domain_safe () =
  let c = Coverage.counter "test_engine_domain_safe" in
  let per_domain = 100_000 and n_domains = 4 in
  let ds =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Coverage.incr c
            done;
            Coverage.flush_domain ()))
  in
  List.iter Domain.join ds;
  check Alcotest.int "4-domain increments all counted"
    (per_domain * n_domains)
    (Coverage.read "test_engine_domain_safe")

(* -- the parallel engine end to end, oracles armed -- *)

let domains_smoke ~n_domains () =
  let cfg = Scenario.config ~n_flows:8 ~measure:20_000 () in
  let stats, viols = Scenario.run_multicore ~oracles:true cfg ~n_domains () in
  check Alcotest.(list string) "no oracle violations" [] viols;
  check Alcotest.string "engine name" "domains" stats.Engine.s_engine;
  check Alcotest.int "offered the full target" 20_000 stats.Engine.s_offered;
  check Alcotest.int "conservation: offered = delivered + dropped"
    stats.Engine.s_offered
    (stats.Engine.s_delivered + stats.Engine.s_dropped);
  check Alcotest.bool "made progress" true (stats.Engine.s_delivered > 0);
  check Alcotest.bool "saw upcalls (cold EMC)" true (stats.Engine.s_upcalls > 0);
  check Alcotest.bool "wall clock advanced" true (stats.Engine.s_wall_ns > 0.);
  check Alcotest.int "unit detail: pmds + revalidator + injector"
    (n_domains + 2)
    (List.length stats.Engine.s_units_detail)

let () =
  Alcotest.run "ovs_engine"
    [
      ( "vt-determinism",
        [
          Alcotest.test_case "golden pmd2" `Quick golden_pmd2;
          Alcotest.test_case "golden legacy" `Quick golden_legacy;
          Alcotest.test_case "golden pvp" `Quick golden_pvp;
          Alcotest.test_case "repeatable" `Quick vt_repeatable;
          Alcotest.test_case "golden chaos pmd_crash" `Quick
            golden_chaos_pmd_crash;
          Alcotest.test_case "golden chaos pkt_mangle" `Quick
            golden_chaos_pkt_mangle;
          Alcotest.test_case "golden reconfig two-phase" `Quick
            golden_reconfig_two_phase;
          Alcotest.test_case "golden reconfig naive" `Quick
            golden_reconfig_naive;
          Alcotest.test_case "golden latency steady" `Quick
            golden_latency_steady;
          Alcotest.test_case "golden latency burst" `Quick golden_latency_burst;
          Alcotest.test_case "golden ndr probes" `Quick golden_ndr_probes;
        ] );
      ( "vt-engine",
        [
          Alcotest.test_case "step and stats" `Quick vt_step_stats;
          Alcotest.test_case "warm EMC hit allocation budget" `Quick
            vt_step_alloc_budget;
        ] );
      ( "spsc",
        [
          QCheck_alcotest.to_alcotest ring_flavor_equiv;
          Alcotest.test_case "ring 2 domains" `Quick ring_spsc_two_domains;
          Alcotest.test_case "ring bursts 2 domains" `Quick ring_spsc_bursts;
          Alcotest.test_case "spscq 2 domains" `Quick spscq_two_domains;
        ] );
      ( "shared-state",
        [
          Alcotest.test_case "umempool 4 domains" `Quick umempool_contended;
          Alcotest.test_case "coverage 4 domains" `Quick coverage_domain_safe;
        ] );
      ( "domains-engine",
        [
          Alcotest.test_case "2 domains, oracles" `Quick (domains_smoke ~n_domains:2);
          Alcotest.test_case "4 domains, oracles" `Quick (domains_smoke ~n_domains:4);
          Alcotest.test_case "8 domains, oracles" `Quick (domains_smoke ~n_domains:8);
        ] );
    ]
