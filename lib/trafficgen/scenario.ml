(** The Sec 5.2 forwarding-rate scenarios: P2P, PVP and PCP loopbacks.

    A TRex-like generator offers minimum-size UDP packets on one physical
    port; the datapath forwards them across the scenario-specific path and
    back out the other port. The measured rate is packets over the busiest
    execution context's virtual time (the pipeline bottleneck), capped at
    line rate; CPU usage is the Table 4 breakdown. *)

module Cpu = Ovs_sim.Cpu
module Costs = Ovs_sim.Costs
module Time = Ovs_sim.Time
module Netdev = Ovs_netdev.Netdev
module Dpif = Ovs_datapath.Dpif
module Pmd = Ovs_datapath.Pmd
module Health = Ovs_datapath.Health
module Faults = Ovs_faults.Faults
module Engine = Ovs_datapath.Engine
module Engine_vt = Ovs_datapath.Engine_vt
module Engine_domains = Ovs_datapath.Engine_domains

type virt = Vm_tap | Vm_vhost | Ct_veth | Ct_xdp | Ct_afpacket

let virt_name = function
  | Vm_tap -> "tap"
  | Vm_vhost -> "vhostuser"
  | Ct_veth -> "veth"
  | Ct_xdp -> "XDP program"
  | Ct_afpacket -> "af_packet"

type topology =
  | P2P
  | PVP of virt
  | PCP of virt
  | Chain of virt * int
      (** a service chain: [hops] virtual network functions in sequence
          (phy0 -> v1 -> ... -> vn -> phy1), each a guest/container
          bounce like the PVP/PCP endpoints. 2–4 hops is the
          NFV-benchmarking sweet spot; [Ct_xdp] is not supported (its
          redirect path bypasses the datapath). *)

type result = {
  rate_mpps : float;
  wall_ns : Ovs_sim.Time.ns;
  cpu : Cpu.breakdown;
  packets : int;
  line_limited : bool;
  pmds : Ovs_datapath.Pmd.report list;
      (** per-PMD breakdowns when the poll-mode runtime drove the run
          ([n_pmds >= 1] on a userspace datapath); empty otherwise *)
  busy_ns : Ovs_sim.Time.ns;
      (** summed busy time across every execution context — the charged
          total a stage trace's per-stage sums must reproduce *)
  stage_trace : Ovs_sim.Trace.t option;
      (** the measurement phase's per-stage cycle attribution, when the
          run was configured with [trace] *)
}

let pp_result ppf r =
  Fmt.pf ppf "%6.2f Mpps%s  cpu[%a]" r.rate_mpps
    (if r.line_limited then " (line rate)" else "")
    Cpu.pp_breakdown r.cpu

(* per-packet cost of a guest vCPU forwarding between two virtio queues *)
let guest_fwd_cost (c : Costs.t) =
  (2. *. c.Costs.virtio_ring_op) +. 45.

(* a container application echoing through its kernel stack: two socket
   syscalls plus an abbreviated stack traversal each way *)
let container_echo_cost (c : Costs.t) = (2. *. c.Costs.syscall) +. 120.

(** Which fast-path cache layers serve lookups (an ablation knob for the
    design choice Sec 2.1 describes: the kernel community rejected the
    exact-match cache, userspace kept it and later added the SMC). *)
type cache_mode = Cache_default | Cache_none | Cache_smc_only | Cache_emc_smc

type config = {
  kind : Dpif.kind;
  topology : topology;
  n_flows : int;
  frame_len : int;
  queues : int;
  gbps : float;
  warmup : int;
  measure : int;
  cache : cache_mode;
  ccache : bool;
      (** enable (and train after warmup) the computational cache — the
          learned classifier tier between SMC and dpcls *)
  mix : Pktgen.mix;  (** flow-choice distribution over the template set *)
  n_pmds : int;
      (** >= 1 drives the run through the {!Ovs_datapath.Pmd} runtime with
          that many PMD cores; 0 (the default) keeps the legacy
          one-context-per-queue loop *)
  n_rxqs : int;  (** rxqs for the PMD runtime; 0 means [queues] *)
  trace : bool;  (** attach a per-stage cycle tracer to the datapath *)
  rx_policy : Netdev.rx_policy;  (** ingress NIC's full-ring behavior *)
  strict_match : bool;
      (** P2P: match udp explicitly with a default-drop rule, so mangled
          packets become accounted drops instead of riding a wildcard *)
  ct_zone : int option;
      (** P2P: send traffic through ct(commit) in this zone with an
          invalid-state drop rule (the conntrack-pressure target) *)
  upcall_capacity : int;  (** per-PMD upcall queue bound *)
  retry_capacity : int;
      (** per-PMD retry queue bound — the schedule explorer shrinks both
          so its bounded-queue oracle bites at tiny packet counts *)
  latency : bool;
      (** arm per-packet sojourn-time measurement: the generator becomes
          a paced line-rate core, stamps each packet's birth on its
          arrival clock, and the egress sink records sojourns into the
          datapath's {!Ovs_sim.Quantiles} sketch. Off (the default)
          creates no context and stamps nothing, so existing runs stay
          byte-identical. *)
  burst : Pktgen.onoff option;
      (** bursty on-off generator mode for the paced driver *)
}

let default_config =
  {
    kind = Dpif.Afxdp Dpif.afxdp_default;
    topology = P2P;
    n_flows = 1;
    frame_len = 64;
    queues = 1;
    gbps = 25.;
    warmup = 4_000;
    measure = 40_000;
    cache = Cache_default;
    ccache = false;
    mix = Pktgen.Uniform;
    n_pmds = 0;
    n_rxqs = 0;
    trace = false;
    rx_policy = Netdev.Rx_drop;
    strict_match = false;
    ct_zone = None;
    upcall_capacity = 512;
    retry_capacity = 256;
    latency = false;
    burst = None;
  }

(** Builder over {!default_config}, so call sites survive new fields. *)
let config ?(kind = default_config.kind) ?(topology = default_config.topology)
    ?(n_flows = default_config.n_flows) ?(frame_len = default_config.frame_len)
    ?(queues = default_config.queues) ?(gbps = default_config.gbps)
    ?(warmup = default_config.warmup) ?(measure = default_config.measure)
    ?(cache = default_config.cache) ?(ccache = default_config.ccache)
    ?(mix = default_config.mix) ?(n_pmds = default_config.n_pmds)
    ?(n_rxqs = default_config.n_rxqs) ?(trace = default_config.trace)
    ?(rx_policy = default_config.rx_policy)
    ?(strict_match = default_config.strict_match)
    ?(ct_zone = default_config.ct_zone)
    ?(upcall_capacity = default_config.upcall_capacity)
    ?(retry_capacity = default_config.retry_capacity)
    ?(latency = default_config.latency) ?(burst = default_config.burst) () =
  { kind; topology; n_flows; frame_len; queues; gbps; warmup; measure; cache;
    ccache; mix; n_pmds; n_rxqs; trace; rx_policy; strict_match; ct_zone;
    upcall_capacity; retry_capacity; latency; burst }

let is_userspace = function
  | Dpif.Dpdk | Dpif.Afxdp _ -> true
  | Dpif.Kernel | Dpif.Kernel_ebpf -> false

(** Everything [run] builds before driving traffic: machine, datapath,
    NICs, execution contexts, the optional PMD runtime and virtual
    endpoint, and the generator — extracted so {!run_chaos} can drive
    one rig through several measurement phases. *)
type rig = {
  r_cfg : config;
  r_machine : Cpu.t;
  r_dp : Dpif.t;
  r_phy0 : Netdev.t;
  r_phy1 : Netdev.t;
  r_p0 : int;
  r_p1 : int;
  r_queues : int;
  r_opts : Dpif.afxdp_opts;
  r_sirq : Cpu.ctx array;
  r_pmds : Cpu.ctx array;  (** legacy one-ctx-per-queue loop *)
  r_rt : Pmd.t option;
  r_guest : Cpu.ctx;
  r_vdevs : (Netdev.t * int) list;
      (** virtual endpoints in hop order (one for PVP/PCP, 2–4 for
          [Chain]), each with its datapath port *)
  r_pmd_v : Cpu.ctx option;  (** the context polling every virtual port *)
  r_loadgen : Cpu.ctx option;
      (** the paced generator's arrival clock, created only when
          [cfg.latency] — unarmed runs stay byte-identical *)
  r_gen : Pktgen.t;
  r_eng : Engine_vt.t;
      (** the virtual-time engine wrapping the pmd leg; the schedule
          explorer reaches its fine-grained steps through this *)
}

let setup (cfg : config) : rig =
  let costs = Costs.default in
  let machine = Cpu.create () in
  (* the kernel datapath gets every hyperthread's worth of RSS queues *)
  let use_pmd_rt = cfg.n_pmds >= 1 && is_userspace cfg.kind in
  let queues =
    match cfg.kind with
    | Dpif.Kernel | Dpif.Kernel_ebpf -> Int.max cfg.queues (if cfg.n_flows > 1 then 16 else 1)
    | Dpif.Dpdk | Dpif.Afxdp _ ->
        if use_pmd_rt && cfg.n_rxqs > 0 then cfg.n_rxqs else cfg.queues
  in
  let phy0 = Netdev.create ~name:"eth0" ~queues ~gbps:cfg.gbps () in
  let phy1 = Netdev.create ~name:"eth1" ~queues ~gbps:cfg.gbps () in
  phy0.Netdev.rx_policy <- cfg.rx_policy;
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:4 () in
  let dp = Dpif.create ~costs ~kind:cfg.kind ~pipeline () in
  (match cfg.cache with
  | Cache_default -> ()
  | Cache_none -> Dpif.set_emc_enabled dp false
  | Cache_smc_only ->
      Dpif.set_emc_enabled dp false;
      Dpif.set_smc_enabled dp true
  | Cache_emc_smc -> Dpif.set_smc_enabled dp true);
  if cfg.ccache then Dpif.set_ccache_enabled dp true;
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  if cfg.trace then
    Dpif.set_tracer dp
      (Some (Ovs_sim.Trace.create ~kind:(Dpif.kind_name cfg.kind) ()));

  (* execution contexts *)
  let sirq = Array.init queues (fun i -> Cpu.ctx machine (Printf.sprintf "softirq%d" i)) in
  let opts = match cfg.kind with Dpif.Afxdp o -> o | _ -> Dpif.afxdp_default in
  (* legacy loop: one PMD context per queue; the poll-mode runtime
     shards the same queues over cfg.n_pmds cores instead *)
  let pmds =
    if use_pmd_rt then [||]
    else Array.init queues (fun i -> Cpu.ctx machine (Printf.sprintf "pmd%d" i))
  in
  let rt =
    if use_pmd_rt then
      Some
        (Pmd.create ~upcall_capacity:cfg.upcall_capacity
           ~retry_capacity:cfg.retry_capacity ~dp ~machine ~softirq:sirq
           ~port_no:p0 ~n_rxqs:queues ~n_pmds:cfg.n_pmds ())
    else None
  in
  let guest = Cpu.ctx machine "guest" in
  let vhost_kthread = Cpu.ctx machine "vhost" in
  let container = Cpu.ctx machine "container" in

  (* virtual endpoint and flow rules *)
  let fk = Ovs_packet.Flow_key.Field.In_port in
  let rule in_port out =
    let m = Ovs_ofproto.Match_.with_field (Ovs_ofproto.Match_.catchall ()) fk in_port in
    Ovs_ofproto.Pipeline.add_flow pipeline ~priority:100 m
      [ Ovs_ofproto.Action.Output out ]
  in
  (* a PVP-style guest bounce: the virtual endpoint forwards everything
     straight back onto its own rx queue *)
  let guest_bounce virt dev =
    Netdev.set_tx_sink dev (fun d pkt ->
        (match virt with
        | Vm_tap ->
            Cpu.charge vhost_kthread Cpu.System
              (costs.Costs.vhost_copy_fixed
              +. Costs.copy costs ~bytes:(Ovs_packet.Buffer.length pkt)
              +. 110.)
        | _ -> ());
        Cpu.charge guest Cpu.Guest (guest_fwd_cost costs);
        ignore (Netdev.enqueue_on d ~queue:0 pkt : bool))
  in
  let vdevs, pmd_v =
    match cfg.topology with
    | P2P ->
        (match (cfg.ct_zone, cfg.strict_match) with
        | Some z, _ ->
            (* traffic commits into a conntrack zone; invalid state (the
               zone-limit verdict) is an accounted drop *)
            ignore
              (Ovs_ofproto.Parser.install_flows pipeline
                 [
                   Printf.sprintf
                     "table=0,priority=100,in_port=%d,ip \
                      actions=ct(commit,zone=%d,table=1)"
                     p0 z;
                   "table=0,priority=1 actions=drop";
                   "table=1,priority=200,ct_state=+trk+inv actions=drop";
                   Printf.sprintf
                     "table=1,priority=100,ct_state=+trk actions=output:%d" p1;
                 ])
        | None, true ->
            (* match the offered traffic exactly, with a default drop —
               mangled packets become accounted drops instead of riding
               an in_port wildcard *)
            ignore
              (Ovs_ofproto.Parser.install_flows pipeline
                 [
                   Printf.sprintf
                     "table=0,priority=100,in_port=%d,udp actions=output:%d"
                     p0 p1;
                   "table=0,priority=1 actions=drop";
                 ])
        | None, false -> rule p0 p1);
        ([], None)
    | PVP virt -> begin
        let kind = match virt with Vm_tap -> Netdev.Tap | _ -> Netdev.Vhostuser in
        let dev = Netdev.create ~kind ~name:"vm0" () in
        let vp = Dpif.add_port dp dev in
        rule p0 vp;
        rule vp p1;
        (* the guest forwards everything straight back *)
        guest_bounce virt dev;
        ([ (dev, vp) ], Some (Cpu.ctx machine "pmd-vm"))
      end
    | Chain (virt, hops) -> begin
        (* a service chain of [hops] PVP-style VNFs: phy0 -> v1 -> ...
           -> vn -> phy1, each hop a guest bounce back into the datapath *)
        if hops < 1 then invalid_arg "Scenario: Chain needs >= 1 hop";
        (match virt with
        | Ct_xdp -> invalid_arg "Scenario: Chain does not support Ct_xdp"
        | _ -> ());
        let kind =
          match virt with
          | Vm_tap -> Netdev.Tap
          | Vm_vhost -> Netdev.Vhostuser
          | Ct_afpacket -> Netdev.Tap
          | Ct_veth | Ct_xdp -> Netdev.Veth
        in
        let devs =
          List.init hops (fun i ->
              let dev =
                Netdev.create ~kind ~name:(Printf.sprintf "vnf%d" i) ()
              in
              let vp = Dpif.add_port dp dev in
              guest_bounce virt dev;
              (dev, vp))
        in
        let rec link prev = function
          | [] -> rule prev p1
          | (_, vp) :: rest ->
              rule prev vp;
              link vp rest
        in
        link p0 devs;
        (devs, Some (Cpu.ctx machine "pmd-vm"))
      end
    | PCP virt -> begin
        let kind =
          match virt with
          | Ct_afpacket -> Netdev.Tap  (* DPDK reaches containers via af_packet *)
          | _ -> Netdev.Veth
        in
        let dev = Netdev.create ~kind ~name:"veth0" () in
        let vp = Dpif.add_port dp dev in
        rule p0 vp;
        rule vp p1;
        (match virt with
        | Ct_xdp -> begin
            (* Fig 5 path C: redirect at the driver; the container bounces
               packets with its own XDP program straight to the egress NIC *)
            let mac_to_dev =
              Ovs_ebpf.Maps.create ~name:"mac2dev" ~kind:Ovs_ebpf.Maps.Devmap
                ~max_entries:64
            in
            ignore
              (Ovs_ebpf.Maps.update mac_to_dev
                 (Int64.of_int (Ovs_packet.Mac.of_index 2))
                 (Int64.of_int vp));
            let prog =
              Ovs_ebpf.Xdp.load_exn ~name:"veth_redirect"
                (Ovs_ebpf.Progs.veth_redirect ~mac_to_dev)
            in
            Dpif.set_xdp_program dp ~port_no:p0 prog;
            Netdev.set_tx_sink dev (fun _ pkt ->
                (* container-side XDP: parse, rewrite, redirect to eth1 *)
                Cpu.charge container Cpu.Softirq
                  (costs.Costs.driver_rx_dma +. costs.Costs.xdp_prog_overhead
                  +. (30. *. costs.Costs.ebpf_insn)
                  +. costs.Costs.xdp_redirect +. costs.Costs.veth_cross
                  +. costs.Costs.driver_tx);
                Netdev.transmit phy1 pkt)
          end
        | _ ->
            Netdev.set_tx_sink dev (fun d pkt ->
                Cpu.charge container Cpu.Softirq (container_echo_cost costs);
                ignore (Netdev.enqueue_on d ~queue:0 pkt : bool)));
        ([ (dev, vp) ], Some (Cpu.ctx machine "pmd-vm"))
      end
  in

  (* sink for measured egress: phy1 counts transmissions via its stats;
     with latency armed it also records each delivered packet's sojourn
     (virtual now minus the birth stamp) — drops never reach it *)
  if cfg.latency then
    Netdev.set_tx_sink phy1 (fun _ pkt ->
        Dpif.record_latency dp ~now:(Cpu.wall machine) pkt)
  else Netdev.set_tx_sink phy1 (fun _ _ -> ());
  let loadgen =
    if cfg.latency then Some (Cpu.ctx machine "loadgen") else None
  in

  let gen =
    Pktgen.create ~mix:cfg.mix ~n_flows:cfg.n_flows ~frame_len:cfg.frame_len ()
  in
  let active = Pktgen.queues_hit gen ~n_queues:queues in
  Dpif.set_active_queues dp active;
  {
    r_cfg = cfg;
    r_machine = machine;
    r_dp = dp;
    r_phy0 = phy0;
    r_phy1 = phy1;
    r_p0 = p0;
    r_p1 = p1;
    r_queues = queues;
    r_opts = opts;
    r_sirq = sirq;
    r_pmds = pmds;
    r_rt = rt;
    r_guest = guest;
    r_vdevs = vdevs;
    r_pmd_v = pmd_v;
    r_loadgen = loadgen;
    r_gen = gen;
    r_eng =
      Engine_vt.create ~dp ~machine ~softirq:sirq ~legacy:pmds ~rt ~port_no:p0
        ~queues ();
  }

module Dp_core = Ovs_datapath.Dp_core
module Xsk = Ovs_xsk.Xsk

(* -- the phase driver --

   Every runner repeats one experiment shape (Sec 5, Table 4): warm the
   caches, reset, inject a phase of traffic, drain, and account for
   every packet. They share one reset, one inject loop, one drain loop
   and one conservation ledger; per-run behaviour (fault ticks, packet
   mangling, churn events, the recovery probe) enters as arguments. *)

let batch = 32

(* One poll sweep over the rig: the engine advances the phy leg (every
   PMD — or legacy per-queue context — polls once; byte-identical to the
   pre-engine loop), plus every virtual endpoint's return port, in hop
   order. *)
let poll_sweep (r : rig) =
  ignore (Engine_vt.step r.r_eng : int);
  match r.r_pmd_v with
  | Some pmd_vm ->
      List.iter
        (fun (_, vp) ->
          ignore
            (Dpif.poll r.r_dp ~softirq:r.r_sirq.(0) ~pmd:pmd_vm ~port_no:vp
               ~queue:0 ()))
        r.r_vdevs
  | None -> ()

(* packets inside the rig: NIC rx queues, XSK rx rings, PMD upcall and
   retry queues — everything offered but not yet delivered or dropped *)
let in_flight (r : rig) =
  Netdev.pending r.r_phy0
  + List.fold_left (fun a (d, _) -> a + Netdev.pending d) 0 r.r_vdevs
  + (match Dpif.xsks r.r_dp ~port_no:r.r_p0 with
    | Some xs ->
        Array.fold_left (fun a x -> a + Ovs_xsk.Ring.available x.Xsk.rx) 0 xs
    | None -> 0)
  + (match r.r_rt with
    | Some rt -> List.fold_left (fun a p -> a + Pmd.queued p) 0 (Pmd.pmds rt)
    | None -> 0)

(* every counter an accounted drop lands in: the ingress NIC, the XSK
   rings, the datapath and the virtual endpoints' rx queues *)
let dropped (r : rig) =
  r.r_phy0.Netdev.stats.Netdev.rx_dropped
  + (Dpif.counters r.r_dp).Dp_core.dropped
  + (match Dpif.xsks r.r_dp ~port_no:r.r_p0 with
    | Some xs ->
        Array.fold_left
          (fun a x -> a + x.Xsk.rx_dropped_no_frame + x.Xsk.rx_dropped_ring_full)
          0 xs
    | None -> 0)
  + List.fold_left (fun a (d, _) -> a + d.Netdev.stats.Netdev.rx_dropped) 0
      r.r_vdevs

(* Poll while [pending ()], at most [budget] sweeps. With [idle], each
   sweep first charges that clock an idle microsecond: virtual time only
   moves through charges, so a stalled rig would never reach the fault
   window's close or the next churn event. *)
let drain ?idle ?(before = ignore) ?(after = ignore) ?(budget = 200_000)
    (r : rig) ~pending =
  let iters = ref 0 in
  while pending () && !iters < budget do
    incr iters;
    Option.iter (fun c -> Cpu.charge c Cpu.User (Time.us 1.)) idle;
    before ();
    poll_sweep r;
    after ()
  done

(* run the rig dry without injecting, so a measurement phase starts (and
   its predecessor's packets end) on empty queues *)
let quiesce (r : rig) =
  drain r ~budget:10_000 ~pending:(fun () -> in_flight r > 0)

(* Zero every clock and measurement counter. A [fresh] phase (the
   default) first runs the rig dry and rewinds the generator, so phases
   replay identical traffic and compare at exact-determinism tightness;
   {!run} measures straight on from its warm-up instead. *)
let reset ?(fresh = true) (r : rig) =
  if fresh then begin
    quiesce r;
    Pktgen.reset r.r_gen
  end;
  List.iter Cpu.reset r.r_machine.Cpu.ctxs;
  Dpif.reset_measurement r.r_dp;
  Option.iter Pmd.reset_stats r.r_rt

(** How the generator presents a phase's packets. *)
type arrival =
  | Lockstep  (** no clock: whole batches, so a count rounds up to one *)
  | Clocked of Cpu.ctx * Time.ns
      (** the generator as its own core, one wire gap per packet *)
  | Paced of pacer  (** credit pacing, see {!paced} *)

and pacer = {
  clock : Cpu.ctx;
  rate : float;  (** packets per second *)
  gap : Time.ns;
  burst : Pktgen.onoff option;
  mutable credit : float;
  mutable in_burst : int;
}

(* The paced generator behind every latency-armed run. Each packet
   charges its inter-arrival gap to the clock (birth stamps come from
   it) and [credit += rate * dwall] converts elapsed server time back
   into injection budget. When the dataplane keeps up, wall advances one
   gap per packet and the loop stays in lockstep; when it falls behind,
   the credit (= packets that arrived meanwhile) grows and the backlog
   overflows the NIC ring into counted rx drops — which is what gives an
   NDR probe a real loss cliff and a latency rung its queueing tail.
   [rate_pps = 0.] offers line rate. *)
let paced (r : rig) clock ~rate_pps =
  let rate =
    if rate_pps > 0. then rate_pps
    else Netdev.line_rate_pps r.r_phy0 ~frame_len:r.r_cfg.frame_len
  in
  Paced
    { clock; rate; gap = 1e9 /. rate; burst = r.r_cfg.burst;
      credit = float_of_int batch; in_burst = 0 }

(* the rig's own arrival: paced at line rate when latency-armed *)
let default_arrival (r : rig) =
  match r.r_loadgen with
  | Some clock -> paced r clock ~rate_pps:0.
  | None -> Lockstep

(* The chaos and reconfig generator: a line-rate core. Plain [run] never
   creates its context, so unfaulted runs stay byte-identical; a
   latency-armed rig already carries it. *)
let clocked (r : rig) =
  let clock =
    match r.r_loadgen with
    | Some lg -> lg
    | None -> Cpu.ctx r.r_machine "loadgen"
  in
  Clocked
    (clock, 1e9 /. Netdev.line_rate_pps r.r_phy0 ~frame_len:r.r_cfg.frame_len)

(** One measurement phase: its arrival model, the counters it started
    from, and what it has injected so far. *)
type phase = {
  rig : rig;
  arrival : arrival;
  clock : Cpu.ctx option;
  tx0 : int;
  drops0 : int;
  mutable injected : int;
  mutable offered : int;  (** enqueued, or dropped and counted at the NIC *)
  mutable pressure : int;
      (** refused uncounted under [Rx_backpressure]; never offered *)
}

let phase (r : rig) arrival =
  let clock =
    match arrival with
    | Lockstep -> None
    | Clocked (c, _) | Paced { clock = c; _ } -> Some c
  in
  { rig = r; arrival; clock; tx0 = r.r_phy1.Netdev.stats.Netdev.tx_packets;
    drops0 = dropped r; injected = 0; offered = 0; pressure = 0 }

(* Inject until the phase has presented [upto] packets, one poll sweep
   per batch. [mangle] rewrites each packet before it is stamped and
   enqueued; [before] and [after] run around every sweep. *)
let inject ?(mangle = ignore) ?(before = ignore) ?(after = ignore) ph upto =
  let r = ph.rig and phy0 = ph.rig.r_phy0 in
  while ph.injected < upto do
    let left = upto - ph.injected in
    let n =
      match ph.arrival with
      | Lockstep -> batch
      | Clocked _ -> Int.min batch left
      | Paced p -> Int.min (Int.min (int_of_float p.credit) left) 4096
    in
    let w0 = Cpu.wall r.r_machine in
    for _ = 1 to n do
      let pkt = Pktgen.next r.r_gen in
      mangle pkt;
      (match ph.arrival with
      | Lockstep -> ()
      | Clocked (clock, gap) -> Cpu.charge clock Cpu.User gap
      | Paced p -> (
          Cpu.charge p.clock Cpu.User p.gap;
          match p.burst with
          | Some b ->
              p.in_burst <- p.in_burst + 1;
              if p.in_burst >= b.Pktgen.on_packets then begin
                p.in_burst <- 0;
                (* generator silence: the arrival clock idles, and the
                   credit the silent period will accrue (wall keeps
                   moving) is cancelled here — packets do not arrive
                   during the off phase, which is what drops the mean
                   offered rate to on / (on + off) *)
                Cpu.charge p.clock Cpu.User b.Pktgen.off_ns;
                p.credit <- p.credit -. (p.rate *. b.Pktgen.off_ns /. 1e9)
              end
          | None -> ()));
      (* birth on the arrival clock, stamped after mangling: a dropped
         mangled packet must not leak its timestamp into the sketch *)
      (match ph.clock with
      | Some c when r.r_cfg.latency ->
          pkt.Ovs_packet.Buffer.birth_ns <- Cpu.busy c
      | _ -> ());
      let rxd = phy0.Netdev.stats.Netdev.rx_dropped in
      if Netdev.rss_enqueue phy0 pkt || phy0.Netdev.stats.Netdev.rx_dropped > rxd
      then ph.offered <- ph.offered + 1
      else ph.pressure <- ph.pressure + 1;
      ph.injected <- ph.injected + 1
    done;
    if n > 0 then Engine_vt.note_offered r.r_eng n;
    before ();
    poll_sweep r;
    after ();
    match ph.arrival with
    | Paced p ->
        if n > 0 then p.credit <- p.credit -. float_of_int n;
        let dwall = Cpu.wall r.r_machine -. w0 in
        (* an idle iteration (no credit, nothing to poll) must still move
           the clock or the loop deadlocks *)
        if dwall <= 0. && n = 0 then Cpu.charge p.clock Cpu.User (Time.us 1.);
        let dwall = Float.max dwall (Cpu.wall r.r_machine -. w0) in
        p.credit <- p.credit +. (p.rate *. dwall /. 1e9)
    | Lockstep | Clocked _ -> ()
  done

(** Drive [n] packets through the rig with its own arrival model. *)
let drive (r : rig) n = inject (phase r (default_arrival r)) n

(** The conservation ledger every runner reads: offered = delivered +
    drops + in flight + vanished, exactly. *)
type ledger = {
  l_offered : int;
  l_delivered : int;
  l_drops : int;  (** summed over every drop counter *)
  l_pressure : int;  (** refused uncounted, never offered *)
  l_in_flight : int;
  l_vanished : int;  (** neither delivered, dropped nor queued *)
  l_wall : Time.ns;
      (** the bottleneck context's busy time, or the egress
          serialization floor when that is later *)
}

let ledger ph =
  let r = ph.rig in
  let delivered = r.r_phy1.Netdev.stats.Netdev.tx_packets - ph.tx0 in
  let drops = dropped r - ph.drops0 and in_flight = in_flight r in
  { l_offered = ph.offered; l_delivered = delivered; l_drops = drops;
    l_pressure = ph.pressure; l_in_flight = in_flight;
    l_vanished = ph.offered - delivered - drops - in_flight;
    l_wall =
      Float.max
        (Float.max (Cpu.wall r.r_machine) (Dpif.serialized_tx r.r_dp))
        1. }

let conserved l = l.l_vanished = 0 && l.l_in_flight = 0
let rate_pps l = float_of_int l.l_delivered /. l.l_wall *. 1e9

(* Set up and warm the caches and megaflows, then train the
   computational cache over them; the training charge lands in warm-up
   time, which the next reset zeroes. *)
let warm (cfg : config) =
  let r = setup cfg in
  drive r cfg.warmup;
  if cfg.ccache then
    ignore
      (Dpif.ccache_train r.r_dp (fun cat ns -> Cpu.charge r.r_sirq.(0) cat ns)
        : Ovs_nmu.Ccache.train_stats option);
  r

(* a clean-slate phase of [n] packets with the rig's own arrival *)
let measure_phase (r : rig) n =
  reset r;
  let ph = phase r (default_arrival r) in
  inject ph n;
  rate_pps (ledger ph)

(* -- latency and NDR probes (require a latency-armed rig) -- *)

(* a clean-slate paced phase, drained so every still-queued packet
   egresses or is dropped before the sketch is read *)
let paced_phase (r : rig) ~rate_pps n =
  let clock =
    match r.r_loadgen with
    | Some lg -> lg
    | None ->
        invalid_arg "Scenario: rig not latency-armed (config ~latency:true)"
  in
  reset r;
  let ph = phase r (paced r clock ~rate_pps) in
  inject ph n;
  quiesce r;
  ledger ph

(** One clean-slate measurement of the sojourn-time distribution: offer
    [n] packets at [rate_pps] (0. = line rate) through the paced driver
    and drain. Returns (delivered, the datapath's sketch) — the sketch's
    count equals delivered exactly (drops record nothing), the
    conservation the latency gates enforce. *)
let measure_latency (r : rig) ?(rate_pps = 0.) n =
  ((paced_phase r ~rate_pps n).l_delivered, Dpif.latency r.r_dp)

(** One RFC 2544 probe: offer [n] packets at [rate_pps], drain, report
    offered vs delivered for {!Ndr.search}'s loss-free test. *)
let ndr_probe (r : rig) ~rate_pps n : Ndr.probe_result =
  let l = paced_phase r ~rate_pps n in
  { Ndr.offered = l.l_offered; delivered = l.l_delivered }

(* -- the real-parallelism leg -- *)

(* The P2P rig on {!Ovs_datapath.Engine_domains}: the generator's
   pre-built templates become the injector's wire frames and
   [cfg.measure] packets are offered. Only P2P is meaningful here — the
   virtual endpoints are virtual-time constructs. *)
let domains_engine ?lock ?frames_per_queue ?ring_size ~oracles ~translate
    (cfg : config) ~n_domains =
  if cfg.topology <> P2P then
    invalid_arg "Scenario: only P2P runs on real domains";
  let gen =
    Pktgen.create ~mix:cfg.mix ~n_flows:cfg.n_flows ~frame_len:cfg.frame_len ()
  in
  let templates =
    Array.map
      (fun (b : Ovs_packet.Buffer.t) ->
        Bytes.sub b.Ovs_packet.Buffer.data b.Ovs_packet.Buffer.start
          b.Ovs_packet.Buffer.len)
      gen.Pktgen.templates
  in
  Engine_domains.create
    (Engine_domains.config ~n_domains ~frame_len:cfg.frame_len
       ~target:cfg.measure ~upcall_capacity:cfg.upcall_capacity ~oracles
       ~latency:cfg.latency ?lock ?frames_per_queue ?ring_size ~translate
       ~templates ())

(** Drive the P2P scenario on [n_domains] real OCaml domains; the readout
    is wall-clock Mpps. Returns the engine stats and any oracle
    violations (empty with [oracles:false], the default). *)
let run_multicore ?(oracles = false) ?lock ?frames_per_queue ?ring_size
    (cfg : config) ~n_domains () : Engine.stats * string list =
  let eng =
    domains_engine ?lock ?frames_per_queue ?ring_size ~oracles
      ~translate:(fun _ -> true) (* P2P: one wildcard rule, port0 -> port1 *)
      cfg ~n_domains
  in
  Engine_domains.start eng;
  let stats = Engine_domains.stop eng in
  (stats, Engine_domains.violations eng)

let run (cfg : config) : result =
  let r = warm cfg in
  let machine = r.r_machine and dp = r.r_dp and rt = r.r_rt in
  (* measure straight on from the warm-up, from zeroed clocks *)
  reset ~fresh:false r;
  let ph = phase r (default_arrival r) in
  inject ph cfg.measure;
  let l = ledger ph in
  let wall = l.l_wall in
  let raw_rate = rate_pps l in
  let line = Netdev.line_rate_pps r.r_phy0 ~frame_len:cfg.frame_len in
  let line_limited = raw_rate > line in
  let rate = Float.min raw_rate line in
  (* polling threads burn their core regardless of load *)
  let poll_floor =
    (* in the XDP-redirect container path the PMD threads see no traffic
       at all, so OVS need not dedicate cores to it (Table 4: 1.0) *)
    (if
       is_userspace cfg.kind && r.r_opts.Dpif.pmd_threads
       && cfg.topology <> PCP Ct_xdp
     then
       (match rt with
       | Some rt -> Pmd.ctxs rt
       | None -> Array.to_list (Array.sub r.r_pmds 0 r.r_queues))
       @ (match r.r_pmd_v with Some p -> [ p ] | None -> [])
     else [])
    @
    match cfg.topology with
    (* the guests run poll-mode forwarders *)
    | PVP _ | Chain _ -> [ r.r_guest ]
    | P2P | PCP _ -> []
  in
  let cpu = Cpu.breakdown ~poll_floor machine ~wall in
  let busy_ns =
    List.fold_left (fun acc ctx -> acc +. Cpu.busy ctx) 0. machine.Cpu.ctxs
  in
  {
    rate_mpps = rate /. 1e6;
    wall_ns = wall;
    cpu;
    packets = l.l_delivered;
    line_limited;
    pmds = (match rt with Some rt -> Pmd.reports ~wall rt | None -> []);
    busy_ns;
    stage_trace = Dpif.tracer dp;
  }

(* -- chaos: three measurement phases on one rig -- *)

(** What {!run_chaos} measures: an unfaulted baseline phase, a faulted
    phase (plan armed, health monitor sweeping, drained to empty), and a
    post-recovery phase on the same warm rig. Conservation is the faulted
    phase's ledger: every offered packet is either delivered or in a
    drop counter, with nothing left in flight. *)
type chaos_result = {
  c_plan : string;
  c_baseline_mpps : float;
  c_faulted_mpps : float;  (** includes the drain: degraded throughput *)
  c_post_mpps : float;
  c_offered : int;  (** packets charged to the faulted phase *)
  c_delivered : int;
  c_drops : int;  (** accounted drops, summed over every drop counter *)
  c_pressure_rejects : int;
      (** refused uncounted under [Rx_backpressure]; never offered *)
  c_in_flight : int;  (** packets still queued after the drain (want 0) *)
  c_conserved : bool;  (** offered = delivered + drops, in flight = 0 *)
  c_recovery_ns : Time.ns option;
      (** duration of the last completed unhealthy episode *)
  c_restarts : int;  (** PMD restarts performed by the health monitor *)
  c_repairs : int;
  c_fired : (string * int) list;  (** per-fault fire counts *)
  c_health : string;  (** dpif/health-show at end of the faulted phase *)
  c_latency_count : int;
      (** sojourn samples the sketch recorded over the faulted phase, or
          -1 with latency off. Conservation demands exactly one sample
          per delivered packet: a mangled or crash-killed packet that
          leaked its timestamp would make this exceed [c_delivered]. *)
}

let run_chaos (cfg : config) (plan : Faults.plan) : chaos_result =
  let r = warm cfg in
  let machine = r.r_machine and dp = r.r_dp in
  let arrival = clocked r in

  (* phase A: unfaulted baseline on the warm rig *)
  let baseline_pps = measure_phase r cfg.measure in

  (* phase B: the same traffic with the plan armed, line-rate clocked,
     then drained until every window has closed, every queue is empty
     and the monitor reports healthy *)
  reset r;
  let health = Health.create ~dp ?rt:r.r_rt () in
  Faults.arm plan;
  let ph = phase r arrival in
  let tick () =
    let now = Cpu.wall machine in
    let opened = Faults.tick now in
    List.iter
      (fun (f : Faults.fault) ->
        match f.Faults.f_action with
        | Faults.Upcall_storm ->
            (* the storm begins with a cache flush: every packet misses
               into the (refusing) upcall queue *)
            Dpif.flush_caches dp
        | Faults.Ct_pressure { zone; limit } ->
            (* table pressure early-drops existing connections; they must
               re-commit against the forced limit and fail into +inv *)
            ignore
              (Ovs_conntrack.Conntrack.evict_to_limit (Dpif.conntrack dp)
                 ~zone ~limit
                : int)
        | _ -> ())
      opened;
    ignore (Health.check health ~now : int)
  in
  let mangle (pkt : Ovs_packet.Buffer.t) =
    match Faults.mutate () with
    | Some (`Truncate frac) ->
        pkt.Ovs_packet.Buffer.len <-
          Int.max 4
            (int_of_float (frac *. float_of_int pkt.Ovs_packet.Buffer.len))
    | Some `Corrupt ->
        (* clobber the ethertype: the frame stops being IP *)
        Ovs_packet.Buffer.set_u8 pkt 12 0xff
    | None -> ()
  in
  inject ph cfg.measure ~mangle ~before:tick;
  drain r ?idle:ph.clock ~before:tick ~pending:(fun () ->
      in_flight r > 0 || Faults.pending_windows ()
      || not (Health.healthy health));
  let l = ledger ph in
  let restarts =
    match r.r_rt with
    | Some rt -> List.fold_left (fun a p -> a + Pmd.restarts p) 0 (Pmd.pmds rt)
    | None -> 0
  in
  let health_text = Health.render health ~now:(Cpu.wall machine) in
  let fired = Faults.fire_counts () in
  let lat_count =
    if cfg.latency then Ovs_sim.Quantiles.count (Dpif.latency dp) else -1
  in
  Faults.disarm ();

  (* phase C: post-recovery, unfaulted again *)
  let post_pps = measure_phase r cfg.measure in
  {
    c_plan = plan.Faults.p_name;
    c_baseline_mpps = baseline_pps /. 1e6;
    c_faulted_mpps = rate_pps l /. 1e6;
    c_post_mpps = post_pps /. 1e6;
    c_offered = l.l_offered;
    c_delivered = l.l_delivered;
    c_drops = l.l_drops;
    c_pressure_rejects = l.l_pressure;
    c_in_flight = l.l_in_flight;
    c_conserved = conserved l;
    c_recovery_ns = Health.last_recovery health;
    c_restarts = restarts;
    c_repairs = Health.repairs health;
    c_fired = fired;
    c_health = health_text;
    c_latency_count = lat_count;
  }

(* -- live reconfiguration: OVSDB-driven control churn on a running rig -- *)

module Reconfig = Ovs_ofproto.Reconfig
module Ofconn = Ovs_ofproto.Ofconn
module Reval = Ovs_revalidator.Revalidator

(** What one churn event cost, measured between its application and the
    next event (or the end of the run): the revalidator's dirty set, the
    re-translations, the megaflows evicted, the oracle divergences (must
    be 0) and the upcall burst the invalidation storm provoked. *)
type churn_event = {
  e_at_s : float;
  e_label : string;  (** ["flow_mods"], ["swap two-phase"] or ["swap naive"] *)
  e_flow_mods : int;
  e_dirty : int;
  e_retx : int;
  e_evicted : int;
  e_divergences : int;
  e_upcalls : int;
}

(** One reconfiguration run: [cfg.measure] packets offered while the
    plan's events fire on the virtual clock. Conservation is the same
    ledger as {!run_chaos}, read for its vanished term: table-miss
    packets translated against an incomplete classifier emit no actions
    and vanish uncounted, which is precisely the naive swap's loss
    window. A hitless run has [rc_vanished = 0] and conserves. *)
type reconfig_result = {
  rc_plan : string;
  rc_leg : string;
  rc_offered : int;
  rc_delivered : int;
  rc_drops : int;
  rc_vanished : int;  (** offered - delivered - drops: the loss window *)
  rc_in_flight : int;
  rc_conserved : bool;  (** delivered + drops = offered, nothing in flight *)
  rc_events : churn_event list;
  rc_flow_mods : int;  (** FLOW_MODs that travelled the wire *)
  rc_ovsdb_rows : int;  (** churn rows round-tripped through the database *)
  rc_divergences : int;  (** incremental vs flush-all, summed (want 0) *)
  rc_upcalls : int;
  rc_upgrade : Reconfig.upgrade_report option;  (** the last swap's bill *)
  rc_lat_count : int;  (** sojourn samples, -1 with latency off *)
  rc_p50_ns : float;
  rc_p99_ns : float;
}

(** Apply [plan] against a running rig while traffic flows. Every rule
    change rides the wire (OVSDB rows -> FLOW_MOD bytes -> {!Ofconn});
    the incremental revalidator is armed and checked against the
    flush-all oracle at every event. [naive_window] is how many packets
    the naive swap leaves in flight between its delete barrage and its
    replacement adds — the loss window the two-phase path closes. *)
let run_reconfig ?(naive_window = 512) (cfg : config) (plan : Reconfig.plan) :
    reconfig_result =
  let r = warm cfg in
  let machine = r.r_machine and dp = r.r_dp in
  (* the generator is its own line-rate core, exactly as in run_chaos:
     virtual wall time must advance even when forwarding stalls *)
  let arrival = clocked r in
  Dpif.set_revalidator_enabled dp true;

  (* the churn phase starts from a clean slate *)
  reset r;

  (* the plan rides the management channel: stored as one OVSDB
     transaction, then read back row by row — the switch never sees the
     in-memory plan object *)
  let db = Ovs_ovsdb.Db.create ~schema:Reconfig.schema () in
  Reconfig.store_plan db plan;
  let ovsdb_rows = Ovs_ovsdb.Db.row_count db ~table:"Churn_op" in
  let plan = Reconfig.load_plan db ~name:plan.Reconfig.plan_name in

  let ph = phase r arrival in
  let tx () = r.r_phy1.Netdev.stats.Netdev.tx_packets in
  let ups () = (Dpif.counters dp).Dp_core.upcalls in
  let events = ref [] in
  let rec_pending = ref None and recovery = ref 0. in
  (* the last swap's bill, settled from the final ledger once drained *)
  let upgrade = ref (fun (_ : ledger) -> None) in

  (* recovery probe: the first delivery after a swap's new table set is
     in place closes the measured outage *)
  let probe_recovery () =
    match !rec_pending with
    | Some (w0, txm) when tx () > txm ->
        recovery := Cpu.wall machine -. w0;
        rec_pending := None
    | _ -> ()
  in

  (* close the latest event's upcall-burst window: until the next event
     (or the end of the run) its [e_upcalls] holds the count at its start *)
  let close_burst () =
    match !events with
    | e :: rest -> events := { e with e_upcalls = ups () - e.e_upcalls } :: rest
    | [] -> ()
  in
  let reval_cum () =
    match Dpif.revalidator_stats dp with
    | Some s -> (s.Reval.st_dirty, s.Reval.st_retranslated, s.Reval.st_evicted)
    | None -> (0, 0, 0)
  in
  let apply_event (ev : Reconfig.event) =
    close_burst ();
    let u_start = ups () in
    let d0, rt0, _ = reval_cum () in
    let n_mods = ref 0 and evicted = ref 0 and divs = ref 0 in
    let label = ref "flow_mods" in
    let plain, swaps =
      List.partition
        (function Reconfig.Swap _ -> false | _ -> true)
        ev.Reconfig.ops
    in
    if plain <> [] then begin
      let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
      n_mods := !n_mods + Reconfig.apply_ops conn plain;
      (* the rule diff hits the megaflow cache: incremental sweep,
         proved against the flush-all oracle *)
      let _full, incr_ev, div = Dpif.revalidate_check dp in
      evicted := !evicted + incr_ev;
      divs := !divs + div
    end;
    List.iter
      (function
        | Reconfig.Swap { swap_style; swap_flows } ->
            let w0 = Cpu.wall machine and at = ledger ph and u0 = ups () in
            let shadow_rules, mods, ev_evicted, div =
              match swap_style with
              | Reconfig.Two_phase ->
                  label := "swap two-phase";
                  (* phase 1: populate the complete shadow off to the
                     side — the live classifier serves traffic untouched
                     meanwhile *)
                  let shadow, smods =
                    Reconfig.build_shadow ~like:(Dpif.pipeline dp) swap_flows
                  in
                  (* phase 2: one pointer store + megaflow revalidation *)
                  let ev = Dpif.swap_pipeline dp shadow in
                  (Ovs_ofproto.Pipeline.flow_count shadow, smods, ev, 0)
              | Reconfig.Naive ->
                  label := "swap naive";
                  (* in-place: delete everything, revalidate (storm #1 —
                     the cache follows the now-empty tables), let traffic
                     run into the hole, then install the replacement and
                     revalidate again (storm #2 evicts the drop-cached
                     misses) *)
                  let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
                  let dm = Reconfig.apply_ops conn [ Reconfig.Delete "" ] in
                  let _, ev1, div1 = Dpif.revalidate_check dp in
                  inject ph ~after:probe_recovery
                    (Int.min (ph.injected + naive_window) cfg.measure);
                  let am =
                    Reconfig.apply_ops conn
                      (List.map (fun l -> Reconfig.Insert l) swap_flows)
                  in
                  let _, ev2, div2 = Dpif.revalidate_check dp in
                  (0, dm + am, ev1 + ev2, div1 + div2)
            in
            n_mods := !n_mods + mods;
            evicted := !evicted + ev_evicted;
            divs := !divs + div;
            (upgrade :=
               fun l ->
                 let w_off = l.l_offered - at.l_offered in
                 let w_del = l.l_delivered - at.l_delivered in
                 Some
                   {
                     Reconfig.up_style = swap_style;
                     up_leg = Dpif.kind_name cfg.kind;
                     up_shadow_rules = shadow_rules;
                     up_flow_mods = mods;
                     up_evicted = ev_evicted;
                     up_upcall_burst = ups () - u0;
                     up_offered = w_off;
                     up_delivered = w_del;
                     up_lost = w_off - w_del - (l.l_drops - at.l_drops);
                     up_recovery_ns = !recovery;
                   });
            rec_pending := Some (w0, tx ())
        | _ -> ())
      swaps;
    let d1, rt1, _ = reval_cum () in
    events :=
      {
        e_at_s = ev.Reconfig.at_s;
        e_label = !label;
        e_flow_mods = !n_mods;
        (* a swap rebuilds the revalidator (fresh counters): clamp *)
        e_dirty = Int.max 0 (d1 - d0);
        e_retx = Int.max 0 (rt1 - rt0);
        e_evicted = !evicted;
        e_divergences = !divs;
        e_upcalls = u_start;  (* settled by close_burst *)
      }
      :: !events
  in

  let pending = ref plan.Reconfig.events in
  let fire_due () =
    match !pending with
    | ev :: rest when Cpu.wall machine >= ev.Reconfig.at_s *. 1e9 ->
        pending := rest;
        apply_event ev;
        true
    | _ -> false
  in
  inject ph cfg.measure ~after:(fun () ->
      probe_recovery ();
      while fire_due () do () done);
  (* drain: events past the traffic tail still fire on the idle clock *)
  drain r ?idle:ph.clock
    ~before:(fun () -> ignore (fire_due () : bool))
    ~after:probe_recovery
    ~pending:(fun () -> !pending <> [] || in_flight r > 0);
  close_burst ();
  (* a swap that never saw a post-cutover delivery charges the whole
     remaining run as its outage *)
  Option.iter (fun (w0, _) -> recovery := Cpu.wall machine -. w0) !rec_pending;

  let l = ledger ph in
  let lat = Dpif.latency dp in
  {
    rc_plan = plan.Reconfig.plan_name;
    rc_leg = Dpif.kind_name cfg.kind;
    rc_offered = l.l_offered;
    rc_delivered = l.l_delivered;
    rc_drops = l.l_drops;
    rc_vanished = l.l_vanished;
    rc_in_flight = l.l_in_flight;
    rc_conserved = conserved l;
    rc_events = List.rev !events;
    rc_flow_mods = List.fold_left (fun a e -> a + e.e_flow_mods) 0 !events;
    rc_ovsdb_rows = ovsdb_rows;
    rc_divergences = List.fold_left (fun a e -> a + e.e_divergences) 0 !events;
    rc_upcalls = ups ();
    rc_upgrade = !upgrade l;
    rc_lat_count =
      (if cfg.latency then Ovs_sim.Quantiles.count lat else -1);
    rc_p50_ns = (if cfg.latency then Ovs_sim.Quantiles.p50 lat else 0.);
    rc_p99_ns = (if cfg.latency then Ovs_sim.Quantiles.p99 lat else 0.);
  }

(** The real-parallelism cutover: drive the P2P rig on OCaml domains
    while the slow path consults a live classifier pointer held in an
    [Atomic.t]; halfway through the offered target the shadow pipeline
    (built through the wire, as always) replaces it in one atomic store.
    PMD domains keep polling throughout — there is no barrier. Returns
    the engine stats, the oracle violations (armed), and how many
    packets had been delivered when the cutover landed (proof it
    happened mid-run). Both rule sets must forward the template flows:
    the hitless property under domains is that the atomic pointer swap
    never presents a half-built classifier to a racing translation. *)
let run_reconfig_multicore ?(n_domains = 2) (cfg : config)
    ~(flows_before : string list) ~(flows_after : string list) () :
    Engine.stats * string list * int =
  let wire_pipeline flows =
    let like = Ovs_ofproto.Pipeline.create ~n_tables:4 () in
    Ovs_ofproto.Pipeline.set_ports like [ 0; 1 ];
    let p, _mods = Reconfig.build_shadow ~like flows in
    p
  in
  let live = Atomic.make (wire_pipeline flows_before) in
  let translate key =
    (Ovs_ofproto.Pipeline.translate (Atomic.get live) key)
      .Ovs_ofproto.Pipeline.odp_actions
    <> []
  in
  let eng = domains_engine ~oracles:true ~translate cfg ~n_domains in
  let cut_at = cfg.measure / 2 in
  Engine_domains.start eng;
  let seen = ref 0 and spins = ref 0 in
  while !seen < cut_at && !spins < 1_000_000_000 do
    incr spins;
    seen := !seen + Engine_domains.step eng
  done;
  (* the cutover: one atomic store while every PMD domain races on *)
  Atomic.set live (wire_pipeline flows_after);
  let at_cutover = !seen in
  let stats = Engine_domains.stop eng in
  (stats, Engine_domains.violations eng, at_cutover)
