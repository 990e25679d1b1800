(* The two NSX workloads: the Table 3 ruleset (103,302 rules, 40 tables)
   installed on the NSX agent's integration bridge, an AF_XDP datapath
   with one vhostuser port per VIF, and VIF-to-VIF UDP traffic pushed
   through Dpif.process. The ruleset is the fixed spec; the seed drives
   which flows exist, which packet comes next and which rules churn. *)

module R = Ovs_nsx.Ruleset
module Agent = Ovs_nsx.Agent
module P = Ovs_packet
module Prng = Ovs_sim.Prng
module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Netdev = Ovs_netdev.Netdev
module Pipeline = Ovs_ofproto.Pipeline
module Parser = Ovs_ofproto.Parser
module Codec = Ovs_ofproto.Ofp_codec
module Ofconn = Ovs_ofproto.Ofconn
module Reval = Ovs_revalidator.Revalidator

let spec = R.table3_spec
let vifs = R.n_vifs spec
let vif_ip = Array.init vifs (fun i -> P.Ipv4.addr_of_string (R.vif_ip i))
let batch = 32

(* A DFW rule a VIF's UDP packet can reach: its logical switch is one of
   ours and every extra match token is one a plain IPv4 UDP packet
   satisfies (tos 32 is set on the packet when the section asks for it).
   A flow aimed at it ends its walk in that rule's section, so flows
   aimed at different sections leave different megaflow masks. *)
type target = {
  t_table : int;
  t_vif : int;
  t_net : int;  (** the rule's nw_dst /24 *)
  t_port : int;
  t_tos : bool;
}

let reachable_token tok =
  List.mem tok
    [ "dl_type=0x0800"; "nw_ttl=64"; "nw_tos=32"; "reg3=0"; "reg4=0"; "reg5=0";
      "reg6=0"; "reg7=0"; "nw_frag=0"; "vlan_tci=0"; "ipv6_src_hi=0";
      "ipv6_dst_hi=0"; "ipv6_src_lo=0" ]

let parse_target line =
  match
    Scanf.sscanf line
      "table=%d,priority=%d,reg1=%d,udp,nw_dst=%d.%d.%d.0/24,tp_dst=%d%s@ \
       actions=%s"
      (fun t _ reg1 a b c port extra _ -> (t, reg1, a, b, c, port, extra))
  with
  | exception _ -> None
  | t, reg1, a, b, c, port, extra ->
      let toks = List.filter (( <> ) "") (String.split_on_char ',' extra) in
      if reg1 >= 1 && reg1 <= vifs && List.for_all reachable_token toks then
        Some
          {
            t_table = t;
            t_vif = reg1 - 1;
            t_net = (a lsl 24) lor (b lsl 16) lor (c lsl 8);
            t_port = port;
            t_tos = List.mem "nw_tos=32" toks;
          }
      else None

let targets =
  lazy (Array.of_list (List.filter_map parse_target (R.generate spec)))

(* One UDP flow from VIF [f_vif] to VIF [f_dst_vif]'s MAC. A flow aimed
   at no DFW rule ([f_table = 0]) is addressed to the peer VIF's own IP
   and falls through every firewall section. *)
type flow = {
  f_vif : int;
  f_dst_vif : int;
  f_dst_ip : int;
  f_sport : int;
  f_dport : int;
  f_tos : bool;
  f_table : int;
}

(* Who talks to whom: [None] is VIF to VIF on the peer's own IP, falling
   through every firewall section; [Some t] is aimed at DFW rule [t].
   [ports] gives the source port, then either the destination port
   (fall-through) or the host in the rule's /24. *)
let make prng aim ~ports =
  match aim with
  | None ->
      let i = Prng.int prng vifs in
      let j = (i + 1 + Prng.int prng (vifs - 1)) mod vifs in
      let sport, dport = ports ~dport:true in
      { f_vif = i; f_dst_vif = j; f_dst_ip = vif_ip.(j); f_sport = sport;
        f_dport = dport; f_tos = false; f_table = 0 }
  | Some t ->
      let sport, host = ports ~dport:false in
      { f_vif = t.t_vif; f_dst_vif = (t.t_vif + 7) mod vifs;
        f_dst_ip = t.t_net lor host; f_sport = sport; f_dport = t.t_port;
        f_tos = t.t_tos; f_table = t.t_table }

(* The established population: every fourth flow falls through, the rest
   take the DFW targets in a seeded order, each about equally often, so
   the population's make-up (which sections its walks end in) is the
   same for every seed. Established flows use source ports below 33000. *)
let population prng n =
  let ts = Lazy.force targets in
  let nt = Array.length ts in
  let order = Array.init nt Fun.id in
  for k = nt - 1 downto 1 do
    let r = Prng.int prng (k + 1) in
    let x = order.(k) in
    order.(k) <- order.(r);
    order.(r) <- x
  done;
  Array.init n (fun k ->
      let aim =
        if k mod 4 = 0 then None else Some ts.(order.((k - (k / 4) - 1) mod nt))
      in
      make prng aim ~ports:(fun ~dport ->
          let sport = 1025 + Prng.int prng 31_000 in
          (sport, if dport then 2000 + Prng.int prng 8000 else 1 + Prng.int prng 254)))

(* The [c]th fresh flow: aimed like any flow, with ports above every
   established one and unique in [c], so its 5-tuple is one the caches
   have never seen. *)
let fresh_flow prng c =
  let ts = Lazy.force targets in
  let aim =
    if Prng.int prng 4 = 0 then None
    else Some ts.(Prng.int prng (Array.length ts))
  in
  make prng aim ~ports:(fun ~dport ->
      let hi = c / 32_000 in
      (33_000 + (c mod 32_000), if dport then 10_000 + hi else 1 + (hi mod 254)))

let packet f =
  let pkt =
    P.Build.udp ~src_mac:(R.vif_mac f.f_vif) ~dst_mac:(R.vif_mac f.f_dst_vif)
      ~src_ip:vif_ip.(f.f_vif) ~dst_ip:f.f_dst_ip ~src_port:f.f_sport
      ~dst_port:f.f_dport ()
  in
  if f.f_tos then P.Ipv4.set_tos pkt 32;
  pkt.P.Buffer.in_port <- R.vif_port spec f.f_vif;
  pkt

type rig = {
  agent : Agent.t;
  installed : int;  (** integration-bridge rules after install *)
  mutable dp : Dpif.t;
  delivered : int ref;
  est : flow array;  (** the established population *)
  seed : int;
  vns : float ref;  (** virtual ns charged by the datapath *)
  charge : Dp_core.charge_fn;
  pkts : P.Buffer.t array;
}

let pipeline g = g.agent.Agent.integration.Agent.pipeline

(* a fresh datapath on the installed bridge: uplink + one port per VIF,
   each delivery counted in [delivered] *)
let new_dp pipeline delivered =
  let dp = Dpif.create ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~pipeline () in
  ignore (Dpif.add_port dp (Netdev.create ~name:"uplink" ()) : int);
  for i = 0 to vifs - 1 do
    let d =
      Netdev.create ~kind:Netdev.Vhostuser ~name:(Printf.sprintf "vif%d" i) ()
    in
    Netdev.set_tx_sink d (fun _ _ -> incr delivered);
    ignore (Dpif.add_port dp d : int)
  done;
  dp

(* what [g.dp] holds while its replacement is built, so the old datapath
   can be collected first *)
let no_dp =
  lazy (Dpif.create ~kind:Dpif.Dpdk ~pipeline:(Pipeline.create ~n_tables:1 ()) ())

(* warm-up: one packet of every established flow installs its megaflows *)
let warm g = Array.iter (fun f -> Dpif.process g.dp g.charge (packet f)) g.est

let build ?(armed = false) ~seed ~n_est () =
  ignore (Lazy.force targets);
  let t0 = Samples.now_ns () in
  let agent = Agent.create () in
  ignore (Agent.install_policy agent : R.stats);
  let installed = Pipeline.flow_count agent.Agent.integration.Agent.pipeline in
  let est = population (Prng.of_int seed) n_est in
  let vns = ref 0. and delivered = ref 0 in
  let g =
    {
      agent;
      installed;
      dp = new_dp agent.Agent.integration.Agent.pipeline delivered;
      delivered;
      est;
      seed;
      vns;
      charge = (fun _ ns -> vns := !vns +. ns);
      pkts = Array.make batch (packet est.(0));
    }
  in
  (* an armed revalidator records each megaflow's rule dependencies as
     the warm-up translates it *)
  if armed then Dpif.set_revalidator_enabled g.dp true;
  let t1 = Samples.now_ns () in
  warm g;
  let t2 = Samples.now_ns () in
  (g, (t1 -. t0) /. 1e9, (t2 -. t1) /. 1e9)

(* the flush-all revalidation oracle, outside any timed window *)
let oracle_check rep dp =
  let stale, evicted, div = Dpif.revalidate_check dp in
  Report.check rep "revalidate_check" (div = 0)
    (Printf.sprintf "%d divergences (%d stale, %d evicted)" div stale evicted)

(* nsx-dfw-miss: the read side of the classifier. A population of
   established flows larger than the EMC, plus one packet in 16 opening
   a fresh 5-tuple that misses every cache: upcall, 40-table translate,
   ct + recirculation, megaflow install. With no megaflow idle expiry
   the tables grow with new connections, so the measured phase is a
   sequence of identical fixed-length epochs, each on a freshly built
   and warmed datapath replaying the same packets: state grows the same
   way in every run, whatever the speed. *)
module Dfw_miss = struct
  let name = "nsx-dfw-miss"
  let setups = 3
  let n_est = 12_288
  let fresh_one_in = 16
  let epoch_batches = 4096
  let pin_seed = 1
  let pin_batches = 512
  let pin_vns = 0x1.3e6d25de3537ap+25

  type nonrec rig = rig

  let setup ~seed = build ~seed ~n_est ()

  (* one epoch's packet stream, the same in every epoch of a run *)
  type stream = { prng : Prng.t; mutable fresh : int }

  let stream g = { prng = Prng.of_int ((g.seed * 7919) + 17); fresh = 0 }

  let one_batch g s tr ds ~timed =
    Span.enter tr Span.trafficgen;
    for i = 0 to batch - 1 do
      let f =
        if Prng.int s.prng fresh_one_in = 0 then begin
          s.fresh <- s.fresh + 1;
          fresh_flow s.prng s.fresh
        end
        else g.est.(Prng.int s.prng (Array.length g.est))
      in
      g.pkts.(i) <- packet f
    done;
    Span.leave tr;
    Span.enter tr Span.dpif;
    if timed then
      for i = 0 to batch - 1 do
        Dpstats.process_timed ds g.dp g.charge g.pkts.(i)
      done
    else
      for i = 0 to batch - 1 do
        Dpif.process g.dp g.charge g.pkts.(i)
      done;
    Span.leave tr

  let pin g =
    g.vns := 0.;
    let s = stream g and ds = Dpstats.create () in
    for _ = 1 to pin_batches do
      one_batch g s Span.off ds ~timed:false
    done;
    !(g.vns)

  let run rep g ~tr ~trace ~seconds =
    let ds = Dpstats.create () in
    let win = Samples.Windows.create ~per:512 in
    let alt = Span.Alternate.create ~trace ~len:256 tr in
    let words = ref 0. and un_pkts = ref 0 in
    let offered = ref 0 and delivered = ref 0 and dropped = ref 0 in
    let epoch_vns = ref [] in
    let timed_ns = ref 0. and last_ns = ref 0. in
    let epoch = ref 0 in
    (* whole epochs only: start one while it should end within budget *)
    while !epoch = 0 || !timed_ns +. !last_ns <= seconds *. 1e9 do
      if !epoch > 0 then begin
        (* rebuild outside the timed window: drop the old datapath *)
        g.dp <- Lazy.force no_dp;
        Gc.full_major ();
        g.dp <- new_dp (pipeline g) g.delivered;
        warm g
      end;
      Dpif.reset_measurement g.dp;
      g.vns := 0.;
      let d0 = !(g.delivered) in
      let s = stream g in
      let ep_ns = ref 0. in
      for _ = 1 to epoch_batches do
        let traced = Span.Alternate.next alt in
        let w0 = Samples.words () in
        let t0 = Samples.now_ns () in
        Span.enter tr Span.batch;
        one_batch g s tr ds ~timed:traced;
        Span.leave tr;
        let t1 = Samples.now_ns () in
        ep_ns := !ep_ns +. (t1 -. t0);
        Span.Alternate.record alt ~ns:(t1 -. t0) ~ops:batch;
        if not traced then begin
          words := !words +. (Samples.words () -. w0);
          un_pkts := !un_pkts + batch;
          Samples.Windows.add win ~ns:(t1 -. t0) ~ops:batch
        end
      done;
      (* close any traced window before the untimed rebuild *)
      Span.Alternate.finish alt;
      timed_ns := !timed_ns +. !ep_ns;
      last_ns := !ep_ns;
      offered := !offered + (epoch_batches * batch);
      delivered := !delivered + (!(g.delivered) - d0);
      dropped := !dropped + (Dpif.counters g.dp).Dp_core.dropped;
      Dpstats.absorb ds g.dp;
      epoch_vns := !(g.vns) :: !epoch_vns;
      incr epoch
    done;
    Span.Alternate.finish alt;
    let lost = !offered - !delivered - !dropped in
    Report.ops rep ~attempted:!offered ~failed:(abs lost);
    Report.check rep "conservation" (lost = 0)
      (Printf.sprintf "offered %d = delivered %d + dropped %d" !offered
         !delivered !dropped);
    let first = List.hd (List.rev !epoch_vns) in
    Report.check rep "virtual_ns"
      (List.for_all (( = ) first) !epoch_vns)
      (Printf.sprintf "%d epochs each charged %h virtual ns" !epoch first);
    oracle_check rep g.dp;
    Report.end_to_end rep ~ops:win ~words:!words ~n_ops:!un_pkts
      ~rate_note:(fun r -> Printf.sprintf "wall_mpps %.4f" (r /. 1e6))
      ~words_note:"minor_words_per_pkt" ();
    Dpstats.report rep ds g.dp;
    Report.layer rep "trafficgen.ns_per_pkt"
      (Report.ratio (Span.self_ns tr Span.trafficgen)
         (float_of_int alt.Span.Alternate.tr_ops));
    alt
end

(* nsx-rule-churn: the write side of the classifier. A warm population
   of tens of thousands of megaflows; each round is one controller write
   on one DFW section: delete the previous round's rules and add a new
   set aimed at live flows, 200 FLOW_MODs encoded into one buffer and fed
   through one Ofconn session, then Dpif.revalidate_incremental. The
   round time runs from the feed to the end of revalidation. Then 256
   batches of established traffic check forwarding right after the
   update. *)
module Rule_churn = struct
  let name = "nsx-rule-churn"
  let setups = 3
  let n_est = 16_384
  let table = 30  (* a firewall section whose rules carry no extra token *)
  let adds = 100
  let check_batches = 256
  let rounds_per_s = 2.
  let pin_seed = 1
  let pin_rounds = 2
  let pin_vns = 0x1.279f08874c2d9p+24

  type churn = {
    g : rig;
    conn : Ofconn.t;
    prng : Prng.t;
    live : flow array;  (** established flows whose walk reaches [table] *)
    mutable prev : Parser.flow list;  (** last round's rules *)
    mutable prev_keys : (int * int * int) list;
    mutable xid : int;
    mutable added : int;
    mutable deleted : int;
  }

  type rig = churn

  (* the churn rules carry nw_tos=0, which no rule of the section has, so
     a non-strict delete of one of them removes exactly that rule *)
  let rule_text ~k f =
    let net = f.f_dst_ip land lnot 0xff in
    Printf.sprintf
      "table=%d,priority=3000,reg1=%d,udp,nw_dst=%d.%d.%d.0/24,tp_dst=%d,\
       nw_tos=0 actions=%s"
      table (f.f_vif + 1) (net lsr 24)
      ((net lsr 16) land 0xff) ((net lsr 8) land 0xff) f.f_dport
      (if k mod 4 = 0 then "drop" else "goto_table:34")

  let flow_mod ~command (p : Parser.flow) =
    Codec.Flow_mod
      {
        command;
        table_id = p.Parser.table;
        priority = p.Parser.priority;
        cookie = p.Parser.cookie;
        match_ = p.Parser.match_;
        actions = p.Parser.actions;
      }

  (* one round's wire buffer: delete last round's rules, add new ones *)
  let encode_round c tr =
    Span.enter tr Span.agent;
    let keys = Hashtbl.create adds in
    let picked = ref [] in
    while Hashtbl.length keys < adds do
      let f = c.live.(Prng.int c.prng (Array.length c.live)) in
      let key = (f.f_vif, f.f_dst_ip land lnot 0xff, f.f_dport) in
      if (not (Hashtbl.mem keys key)) && not (List.mem key c.prev_keys) then begin
        Hashtbl.replace keys key ();
        picked := f :: !picked
      end
    done;
    let parsed =
      List.mapi
        (fun k f -> Parser.parse_flow (rule_text ~k f))
        !picked
    in
    let dels = c.prev in
    Span.leave tr;
    Span.enter tr Span.ofp_codec;
    let buf = Stdlib.Buffer.create 32_768 in
    let add m =
      c.xid <- c.xid + 1;
      Stdlib.Buffer.add_bytes buf (Codec.encode ~xid:c.xid m)
    in
    List.iter (fun p -> add (flow_mod ~command:`Delete p)) dels;
    List.iter (fun p -> add (flow_mod ~command:`Add p)) parsed;
    let wire = Stdlib.Buffer.to_bytes buf in
    Span.leave tr;
    let n_del = List.length dels and n_add = List.length parsed in
    c.prev <- parsed;
    c.prev_keys <- Hashtbl.fold (fun k () a -> k :: a) keys [];
    (wire, n_del, n_add)

  let feed c wire ~n_del ~n_add =
    ignore (Ofconn.feed c.conn wire : Bytes.t);
    c.deleted <- c.deleted + n_del;
    c.added <- c.added + n_add

  let check_traffic ?lat c tr ds ~timed =
    let g = c.g in
    for _ = 1 to check_batches do
      let t0 = Samples.now_ns () in
      Span.enter tr Span.batch;
      Span.enter tr Span.trafficgen;
      for i = 0 to batch - 1 do
        g.pkts.(i) <- packet g.est.(Prng.int c.prng (Array.length g.est))
      done;
      Span.leave tr;
      Span.enter tr Span.dpif;
      for i = 0 to batch - 1 do
        if timed then Dpstats.process_timed ds g.dp g.charge g.pkts.(i)
        else Dpif.process g.dp g.charge g.pkts.(i)
      done;
      Span.leave tr;
      Span.leave tr;
      match lat with
      | Some w -> Samples.Windows.add w ~ns:(Samples.now_ns () -. t0) ~ops:batch
      | None -> ()
    done

  let setup ~seed =
    let g, install, warm_s = build ~armed:true ~seed ~n_est () in
    let t0 = Samples.now_ns () in
    let conn = Ofconn.create ~pipeline:(pipeline g) () in
    ignore (Ofconn.feed conn (Codec.encode Codec.Hello) : Bytes.t);
    let live = Array.of_list (List.filter (fun f -> f.f_table = 0 || f.f_table > table) (Array.to_list g.est)) in
    let c =
      { g; conn; prng = Prng.of_int ((seed * 104_729) + 3); live; prev = [];
        prev_keys = []; xid = 1; added = 0; deleted = 0 }
    in
    (* the first round only adds: it belongs to the warm state *)
    let wire, n_del, n_add = encode_round c Span.off in
    feed c wire ~n_del ~n_add;
    ignore (Dpif.revalidate_incremental g.dp : Reval.sweep_stats option);
    (c, install, warm_s +. ((Samples.now_ns () -. t0) /. 1e9))

  let pin c =
    c.g.vns := 0.;
    let ds = Dpstats.create () in
    for _ = 1 to pin_rounds do
      let wire, n_del, n_add = encode_round c Span.off in
      feed c wire ~n_del ~n_add;
      ignore (Dpif.revalidate_incremental c.g.dp : Reval.sweep_stats option);
      check_traffic c Span.off ds ~timed:false
    done;
    !(c.g.vns)

  let run rep c ~tr ~trace ~seconds =
    let g = c.g in
    let ds = Dpstats.create () in
    Dpif.reset_measurement g.dp;
    let rounds = Samples.Windows.create ~per:1 and sweep = Samples.create () in
    let lat = Samples.Windows.create ~per:(4 * check_batches) in
    let alt = Span.Alternate.create ~trace ~len:1 tr in
    let words = ref 0. and un_mods = ref 0 in
    let dirty = ref 0 and retx = ref 0 and evicted = ref 0 and tr_rounds = ref 0 in
    let d0 = !(g.delivered) and offered = ref 0 and errors0 = c.conn.Ofconn.errors in
    let mods0 = c.added + c.deleted in
    (* each round leaves state behind (the heap grows by about 9 MB a
       round), so the run is a fixed number of rounds, [rounds_per_s] per
       second of --seconds, and every run of a seed ends in the same
       state; a round and its check traffic take 1-1.5 s, so the timed
       phase lasts two to three times --seconds *)
    for _ = 1 to Int.max 1 (int_of_float (rounds_per_s *. seconds)) do
      let traced = Span.Alternate.next alt in
      if not traced then Samples.Windows.probe rounds;
      Span.enter tr Span.batch;
      let wire, n_del, n_add = encode_round c tr in
      let w0 = Samples.words () in
      let t0 = Samples.now_ns () in
      Span.enter tr Span.ofconn;
      feed c wire ~n_del ~n_add;
      Span.leave tr;
      let t1 = Samples.now_ns () in
      Span.enter tr Span.revalidator;
      let st = Dpif.revalidate_incremental g.dp in
      Span.leave tr;
      let t2 = Samples.now_ns () in
      let w = Samples.words () -. w0 in
      Span.leave tr;
      let mods = n_del + n_add in
      Span.Alternate.record alt ~ns:(t2 -. t0) ~ops:mods;
      if traced then begin
        Samples.add sweep (t2 -. t1);
        incr tr_rounds;
        match st with
        | Some s ->
            dirty := !dirty + s.Reval.sw_dirty;
            retx := !retx + s.Reval.sw_retranslated;
            evicted := !evicted + s.Reval.sw_evicted
        | None -> ()
      end
      else begin
        Samples.Windows.add rounds ~ns:(t2 -. t0) ~ops:mods;
        words := !words +. w;
        un_mods := !un_mods + mods
      end;
      if traced then check_traffic c tr ds ~timed:true
      else check_traffic ~lat c tr ds ~timed:false;
      offered := !offered + (check_batches * batch)
    done;
    Span.Alternate.finish alt;
    let c_dp = Dpif.counters g.dp in
    let delivered = !(g.delivered) - d0 and dropped = c_dp.Dp_core.dropped in
    let lost = !offered - delivered - dropped in
    let errors = c.conn.Ofconn.errors - errors0 in
    let rules = Pipeline.flow_count (pipeline g) in
    let want = g.installed + c.added - c.deleted in
    let mods = c.added + c.deleted - mods0 in
    Report.ops rep ~attempted:mods ~failed:(errors + abs (rules - want));
    Report.check rep "conservation" (lost = 0)
      (Printf.sprintf "check traffic: offered %d = delivered %d + dropped %d"
         !offered delivered dropped);
    Report.check rep "ofconn_errors" (errors = 0)
      (Printf.sprintf "%d OFPT_ERRORs over %d FLOW_MODs" errors mods);
    Report.check rep "rule_count" (rules = want)
      (Printf.sprintf "%d rules = installed %d + added %d - deleted %d" rules
         g.installed c.added c.deleted);
    oracle_check rep g.dp;
    Dpstats.absorb ds g.dp;
    (* the batches are the check traffic: forwarding right after each
       rule update; the rounds themselves give the rate *)
    let round_ms =
      Samples.Windows.latency rounds 0.5 /. 1e6
    in
    Report.end_to_end rep ~ops:rounds ~lat ~words:!words ~n_ops:!un_mods
      ~rate_note:(fun r ->
        Printf.sprintf "flowmods_per_s %.2f, round_p50_ms %.1f" r round_ms)
      ~words_note:"minor_words_per_flowmod" ();
    Dpstats.report rep ds g.dp;
    let tmods = float_of_int alt.Span.Alternate.tr_ops in
    let trr = float_of_int !tr_rounds in
    Report.layer rep "ofconn.feed_us_per_flowmod"
      (Report.ratio (Span.self_ns tr Span.ofconn) tmods /. 1e3);
    Report.layer rep "ofconn.errors" (float_of_int errors);
    Report.layer rep "revalidator.sweep_ms_p50" (Samples.quantile sweep 0.5 /. 1e6)
      ~note:(Printf.sprintf "n=%d" (Samples.count sweep));
    Report.layer rep "revalidator.dirty_per_round" (float_of_int !dirty /. trr);
    Report.layer rep "revalidator.retranslated_per_round" (float_of_int !retx /. trr);
    Report.layer rep "revalidator.useful_ratio" (Report.ratio_i !evicted !retx);
    Report.layer rep "revalidator.words_per_sweep"
      (Report.ratio (Span.self_words tr Span.revalidator) trr);
    Report.layer rep "ofp_codec.encode_us_per_flowmod"
      (Report.ratio (Span.self_ns tr Span.ofp_codec) tmods /. 1e3);
    Report.layer rep "trafficgen.ns_per_pkt"
      (Report.ratio (Span.self_ns tr Span.trafficgen) (trr *. float_of_int (check_batches * batch)));
    alt
end
