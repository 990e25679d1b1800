(* Tests for the poll-mode runtime: rxq sharding, per-PMD counter
   attribution, bounded upcall queues, and single-context parity. *)

module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Pmd = Ovs_datapath.Pmd
module Netdev = Ovs_netdev.Netdev
module Scenario = Ovs_trafficgen.Scenario
module Cpu = Ovs_sim.Cpu
module B = Ovs_packet.Build

let check = Alcotest.check

type rig = {
  dp : Dpif.t;
  phy0 : Netdev.t;
  phy1 : Netdev.t;
  p0 : int;
  machine : Cpu.t;
  softirq : Cpu.ctx array;
}

let make_rig ?(queues = 4) () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:8 () in
  let dp = Dpif.create ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~pipeline () in
  let phy0 = Netdev.create ~name:"eth0" ~queues () in
  let phy1 = Netdev.create ~name:"eth1" ~queues () in
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  ignore
    (Ovs_ofproto.Parser.install_flows pipeline
       [ Printf.sprintf "table=0,priority=10,in_port=%d actions=output:%d" p0 p1 ]);
  let machine = Cpu.create () in
  let softirq =
    Array.init queues (fun i -> Cpu.ctx machine (Printf.sprintf "softirq%d" i))
  in
  { dp; phy0; phy1; p0; machine; softirq }

let make_rt ?upcall_capacity ?(queues = 4) ~n_pmds (r : rig) =
  Pmd.create ?upcall_capacity ~dp:r.dp ~machine:r.machine ~softirq:r.softirq
    ~port_no:r.p0 ~n_rxqs:queues ~n_pmds ()

(* every (port, queue) appears exactly once, on a valid pmd id *)
let check_partition ~queues ~n_pmds rt =
  let rows = Pmd.assignment rt in
  check Alcotest.int "every rxq assigned" queues (List.length rows);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (_port, queue, pmd) ->
      Alcotest.(check bool) "no rxq on two PMDs" false (Hashtbl.mem seen queue);
      Hashtbl.add seen queue ();
      Alcotest.(check bool) "queue id in range" true (queue >= 0 && queue < queues);
      Alcotest.(check bool) "pmd id in range" true (pmd >= 0 && pmd < n_pmds))
    rows

let test_assignment_is_partition () =
  List.iter
    (fun (queues, n_pmds) ->
      let r = make_rig ~queues () in
      let rt = make_rt ~queues ~n_pmds r in
      check_partition ~queues ~n_pmds rt;
      (* the partition property survives a cycles-based rebalance *)
      Pmd.rebalance rt;
      check_partition ~queues ~n_pmds rt)
    [ (1, 1); (4, 1); (4, 2); (4, 4); (6, 4); (8, 3) ]

let drive ?(flows = 64) rt (r : rig) ~n =
  let injected = ref 0 in
  while !injected < n do
    for _ = 1 to 32 do
      ignore (Netdev.rss_enqueue r.phy0 (B.udp ~src_port:(1000 + (!injected mod flows)) ()) : bool);
      incr injected
    done;
    ignore (Pmd.poll_all rt)
  done;
  (* drain any residue so counters settle *)
  while Pmd.poll_all rt > 0 do
    ()
  done

let test_per_pmd_totals_match_aggregate () =
  let r = make_rig () in
  let rt = make_rt ~n_pmds:3 r in
  drive rt r ~n:2_000;
  let agg = Dpif.counters r.dp in
  let sum f = List.fold_left (fun acc p -> acc + f (Pmd.stats_of p)) 0 (Pmd.pmds rt) in
  check Alcotest.int "rx sums to aggregate" agg.Dp_core.packets
    (sum (fun s -> s.Pmd.rx_packets));
  check Alcotest.int "emc hits sum" agg.Dp_core.emc_hits
    (sum (fun s -> s.Pmd.emc_hits));
  check Alcotest.int "megaflow hits sum" agg.Dp_core.dpcls_hits
    (sum (fun s -> s.Pmd.megaflow_hits));
  check Alcotest.int "misses sum" agg.Dp_core.upcalls (sum (fun s -> s.Pmd.miss));
  (* nothing was lost: every rx packet is a hit or a successful miss *)
  check Alcotest.int "hits + miss = rx"
    (sum (fun s -> s.Pmd.rx_packets))
    (sum (fun s -> s.Pmd.emc_hits + s.Pmd.smc_hits + s.Pmd.megaflow_hits + s.Pmd.miss));
  Alcotest.(check bool) "multiple PMDs saw traffic" true
    (List.length
       (List.filter (fun p -> (Pmd.stats_of p).Pmd.rx_packets > 0) (Pmd.pmds rt))
    > 1)

let test_upcall_overflow_counts_lost () =
  let r = make_rig () in
  (* capacity 2 with a 32-packet burst of distinct megaflow-missing flows:
     the EMC/dpcls are empty on first contact, so one burst overflows *)
  let rt = make_rt ~upcall_capacity:2 ~n_pmds:1 r in
  Dpif.flush_caches r.dp;
  for i = 0 to 31 do
    ignore (Netdev.enqueue_on r.phy0 ~queue:0 (B.udp ~src_port:(2000 + i) ()) : bool)
  done;
  ignore (Pmd.poll_all rt);
  let lost = List.fold_left (fun acc p -> acc + (Pmd.stats_of p).Pmd.lost) 0 (Pmd.pmds rt) in
  Alcotest.(check bool) "overflow increments lost" true (lost > 0);
  let agg = Dpif.counters r.dp in
  Alcotest.(check bool) "lost packets are dropped" true (agg.Dp_core.dropped >= lost);
  (* the runtime keeps working afterwards: the surviving upcalls installed
     the megaflow, so the next burst forwards without loss *)
  let tx0 = r.phy1.Netdev.stats.Netdev.tx_packets in
  for i = 0 to 31 do
    ignore (Netdev.enqueue_on r.phy0 ~queue:0 (B.udp ~src_port:(2000 + i) ()) : bool)
  done;
  ignore (Pmd.poll_all rt);
  check Alcotest.int "no deadlock, burst forwarded" 32
    (r.phy1.Netdev.stats.Netdev.tx_packets - tx0)

(* A retried upcall outlives its poll: by the time the retry queue
   drains, the umem frame it arrived in has gone back to the pool, been
   refilled and carried a later packet. On a 64-frame umem that takes
   two polls, so an upcall storm over two bursts of fresh flows followed
   by a third burst recycles the first burst's frames while its upcalls
   are still parked. Every offered packet must still leave with its own
   bytes: the delivered tp_src multiset equals the offered one. *)
let test_retried_upcall_keeps_its_bytes () =
  let module Faults = Ovs_faults.Faults in
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:8 () in
  let opts = { Dpif.afxdp_default with Dpif.frames_per_queue = 64 } in
  let dp = Dpif.create ~kind:(Dpif.Afxdp opts) ~pipeline () in
  let phy0 = Netdev.create ~name:"eth0" ~queues:1 () in
  let phy1 = Netdev.create ~name:"eth1" ~queues:1 () in
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  (* the tp_src rule makes every megaflow match on tp_src, so each fresh
     flow misses and takes an upcall *)
  ignore
    (Ovs_ofproto.Parser.install_flows pipeline
       [
         "table=0,priority=20,udp,tp_src=1 actions=drop";
         Printf.sprintf "table=0,priority=10,in_port=%d actions=output:%d" p0 p1;
       ]);
  let delivered = ref [] in
  Netdev.set_tx_sink phy1 (fun _ pkt ->
      let key = Ovs_packet.Flow_key.extract pkt in
      delivered :=
        Ovs_packet.Flow_key.get key Ovs_packet.Flow_key.Field.Tp_src :: !delivered);
  let machine = Cpu.create () in
  let softirq = [| Cpu.ctx machine "softirq0" |] in
  let rt =
    Pmd.create ~dp ~machine ~softirq ~port_no:p0 ~n_rxqs:1 ~n_pmds:1 ()
  in
  let offered = ref [] in
  let burst base =
    for i = 0 to 31 do
      offered := (base + i) :: !offered;
      ignore (Netdev.enqueue_on phy0 ~queue:0 (B.udp ~src_port:(base + i) ()) : bool)
    done;
    ignore (Pmd.poll_all rt : int)
  in
  let storm =
    Faults.plan ~name:"storm"
      [
        { Faults.f_name = "storm"; f_action = Faults.Upcall_storm;
          f_start = 0.; f_stop = Ovs_sim.Time.ms 1. };
      ]
  in
  Faults.arm storm;
  Fun.protect ~finally:Faults.disarm (fun () ->
      burst 1000;
      burst 2000;
      ignore (Faults.tick (Ovs_sim.Time.ms 2.) : Faults.fault list);
      burst 3000;
      while Pmd.queued (List.hd (Pmd.pmds rt)) > 0 do
        ignore (Pmd.poll_all rt : int)
      done);
  let sorted l = List.sort compare l in
  check Alcotest.int "every packet delivered" 96 (List.length !delivered);
  check
    Alcotest.(list int)
    "delivered tp_src multiset = offered" (sorted !offered) (sorted !delivered)

let test_n_pmds_1_matches_legacy_rate () =
  let legacy = Scenario.run (Scenario.config ~gbps:25. ()) in
  let rt = Scenario.run (Scenario.config ~gbps:25. ~n_pmds:1 ~n_rxqs:1 ()) in
  Alcotest.(check (float 0.01))
    "PMD runtime reproduces the single-context rate" legacy.Scenario.rate_mpps
    rt.Scenario.rate_mpps;
  check Alcotest.int "one PMD report" 1 (List.length rt.Scenario.pmds)

let test_scaling_and_reports () =
  let run n_pmds =
    Scenario.run
      (Scenario.config ~gbps:100. ~n_flows:512 ~n_pmds ~n_rxqs:4 ~warmup:2000
         ~measure:10_000 ())
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "4 PMDs beat 1 PMD" true
    (r4.Scenario.rate_mpps > r1.Scenario.rate_mpps);
  check Alcotest.int "four PMD reports" 4 (List.length r4.Scenario.pmds);
  List.iter
    (fun (rep : Pmd.report) ->
      Alcotest.(check bool) "every PMD processed packets" true
        (rep.Pmd.r_stats.Pmd.rx_packets > 0);
      Alcotest.(check bool) "cycles per packet positive" true
        (rep.Pmd.r_cycles_per_pkt > 0.))
    r4.Scenario.pmds;
  (* the appctl renderings hold the right figures *)
  let stats_text = Ovs_tools.Tools.pmd_stats_show r4.Scenario.pmds in
  let rxq_text = Ovs_tools.Tools.pmd_rxq_show r4.Scenario.pmds in
  Alcotest.(check bool) "pmd-stats-show lists all cores" true
    (List.for_all
       (fun i ->
         Astring.String.is_infix ~affix:(Printf.sprintf "core_id %d" i) stats_text)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "pmd-rxq-show lists queues" true
    (Astring.String.is_infix ~affix:"queue-id:" rxq_text)

let test_coverage_counters_fire () =
  Ovs_sim.Coverage.reset ();
  let r = make_rig () in
  let rt = make_rt ~n_pmds:2 r in
  drive rt r ~n:500;
  Alcotest.(check bool) "pmd_poll counted" true (Ovs_sim.Coverage.read "pmd_poll" > 0);
  Alcotest.(check bool) "emc hits counted" true
    (Ovs_sim.Coverage.read "dpif_emc_hit" > 0);
  Alcotest.(check bool) "upcalls counted" true
    (Ovs_sim.Coverage.read "dpif_upcall" > 0);
  match Ovs_tools.Tools.appctl "coverage/show" with
  | Ovs_tools.Tools.Ok_output text ->
      Alcotest.(check bool) "coverage/show renders" true
        (Astring.String.is_infix ~affix:"dpif_emc_hit" text)
  | Ovs_tools.Tools.Not_supported m -> Alcotest.fail m

let () =
  Alcotest.run "ovs_pmd"
    [
      ( "pmd",
        [
          Alcotest.test_case "rxq assignment is a partition" `Quick
            test_assignment_is_partition;
          Alcotest.test_case "per-PMD totals equal aggregate" `Quick
            test_per_pmd_totals_match_aggregate;
          Alcotest.test_case "upcall overflow -> lost, no deadlock" `Quick
            test_upcall_overflow_counts_lost;
          Alcotest.test_case "retried upcall keeps its bytes" `Quick
            test_retried_upcall_keeps_its_bytes;
          Alcotest.test_case "n_pmds=1 reproduces legacy rates" `Quick
            test_n_pmds_1_matches_legacy_rate;
          Alcotest.test_case "scaling + appctl reports" `Quick
            test_scaling_and_reports;
          Alcotest.test_case "coverage counters fire" `Quick
            test_coverage_counters_fire;
        ] );
    ]
