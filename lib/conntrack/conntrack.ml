(** Connection tracking: the userspace reimplementation of the kernel's
    netfilter conntrack that OVS needed once the datapath left the kernel
    (Sec 4). Supports zones (NSX uses one zone per virtual network for
    firewall separation), a TCP state machine, UDP/ICMP pseudo-state,
    source/destination NAT, expiry, and per-zone connection limits (the
    feature whose kernel backport cost the paper quantifies in Sec 2.1.1).

    Storage is sharded by a direction-symmetric 5-tuple hash so a
    per-PMD engine can size [shards] to its PMD count and keep the hit
    path lock-free (each shard is only ever touched by its owning
    domain when the caller partitions traffic by RSS hash, which uses
    the same src/dst-symmetric construction). Expiry is a resumable
    bucket-cursor sweep with a per-call work budget, so a poll loop
    can amortize reclamation instead of stalling on a full-table scan. *)

module FK = Ovs_packet.Flow_key

let cov_zone_limit_drop = Ovs_sim.Coverage.counter "ct_zone_limit_drop"

(** Canonical 5-tuple plus zone; directionality is derived by comparing
    against the stored original direction. *)
type tuple = {
  src : int;
  dst : int;
  proto : int;
  sport : int;
  dport : int;
  zone : int;
}

let tuple_reverse t = { t with src = t.dst; dst = t.src; sport = t.dport; dport = t.sport }

(* Field-by-field equality: polymorphic [=] on a record is a
   [caml_compare] call, and these run several times per ct action. *)
let tuple_equal a b =
  a.src = b.src && a.dst = b.dst && a.proto = b.proto && a.sport = b.sport
  && a.dport = b.dport && a.zone = b.zone

(* [tuple_equal a (tuple_reverse b)], without building the reverse *)
let tuple_is_reverse a b =
  a.src = b.dst && a.dst = b.src && a.proto = b.proto && a.sport = b.dport
  && a.dport = b.sport && a.zone = b.zone

let tuple_of_key ~zone (k : FK.t) =
  {
    src = FK.get k FK.Field.Nw_src;
    dst = FK.get k FK.Field.Nw_dst;
    proto = FK.get k FK.Field.Nw_proto;
    sport = FK.get k FK.Field.Tp_src;
    dport = FK.get k FK.Field.Tp_dst;
    zone;
  }

type tcp_state =
  | Syn_sent
  | Syn_recv
  | Established
  | Fin_wait
  | Close_wait
  | Time_wait
  | Closed

let tcp_state_name = function
  | Syn_sent -> "SYN_SENT"
  | Syn_recv -> "SYN_RECV"
  | Established -> "ESTABLISHED"
  | Fin_wait -> "FIN_WAIT"
  | Close_wait -> "CLOSE_WAIT"
  | Time_wait -> "TIME_WAIT"
  | Closed -> "CLOSED"

type proto_state = Tcp of tcp_state | Udp_single | Udp_multiple | Icmp_active

type nat_action = {
  nat_src : (int * int) option;  (** translated (ip, port) for SNAT *)
  nat_dst : (int * int) option;  (** translated (ip, port) for DNAT *)
}

type conn = {
  orig : tuple;
  mutable state : proto_state;
  mutable mark : int;
  mutable created_at : Ovs_sim.Time.ns;
  mutable last_seen : Ovs_sim.Time.ns;
  mutable packets : int;
  nat : nat_action option;
}

(** Timeouts, in virtual ns, following netfilter's defaults (scaled). *)
let timeout_of = function
  | Tcp Established -> Ovs_sim.Time.s 7440.
  | Tcp Time_wait | Tcp Close_wait | Tcp Fin_wait -> Ovs_sim.Time.s 120.
  | Tcp _ -> Ovs_sim.Time.s 60.
  | Udp_single -> Ovs_sim.Time.s 30.
  | Udp_multiple -> Ovs_sim.Time.s 120.
  | Icmp_active -> Ovs_sim.Time.s 30.

(* One direction of a connection: both a conn's orig and reply tuples
   get a slot, possibly in different shards. *)
type slot = { s_tup : tuple; s_conn : conn }

type shard = {
  mutable buckets : slot list array;
  mutable entries : int;  (** directional slots, i.e. 2x connections *)
  mutable cursor : int;  (** next bucket the bounded sweep examines *)
}

type t = {
  shards : shard array;
  mutable shard_cursor : int;  (** which shard the bounded sweep is in *)
  zone_counts : (int, int ref) Hashtbl.t;
  zone_limits : (int, int) Hashtbl.t;
  mutable lookups : int;
  mutable committed : int;
  mutable limit_drops : int;
}

let initial_buckets = 64

let new_shard () = { buckets = Array.make initial_buckets []; entries = 0; cursor = 0 }

let create ?(shards = 1) () =
  let shards = Int.max 1 shards in
  {
    shards = Array.init shards (fun _ -> new_shard ());
    shard_cursor = 0;
    zone_counts = Hashtbl.create 64;
    zone_limits = Hashtbl.create 64;
    lookups = 0;
    committed = 0;
    limit_drops = 0;
  }

let n_shards t = Array.length t.shards

(* Direction-symmetric shard choice: XOR of the two endpoint hashes is
   commutative, so a tuple and its reverse always land in the same
   shard (a PMD owns whole connections, and the ICMP related-conn
   lookup dispatches correctly for free). *)
let shard_of t tup =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    let a = Hashtbl.hash (tup.src, tup.sport)
    and b = Hashtbl.hash (tup.dst, tup.dport) in
    let h = (a lxor b) + (31 * tup.proto) + (131 * tup.zone) in
    t.shards.(h land max_int mod n)

let bucket_index sh tup = Hashtbl.hash tup land max_int mod Array.length sh.buckets

let rec find_in tup = function
  | [] -> None
  | s :: rest -> if tuple_equal s.s_tup tup then Some s.s_conn else find_in tup rest

let find_tuple t tup : conn option =
  let sh = shard_of t tup in
  find_in tup sh.buckets.(bucket_index sh tup)

(* Grow a shard at 4 slots/bucket mean occupancy. The cursor resets:
   rehashing reshuffles which buckets the un-swept slots live in, and
   restarting the pass only makes the sweep conservative (it may visit
   some slots twice, never skip live expiry work forever). *)
let maybe_grow sh =
  if sh.entries > 4 * Array.length sh.buckets then begin
    let old = sh.buckets in
    sh.buckets <- Array.make (2 * Array.length old) [];
    sh.cursor <- 0;
    Array.iter
      (List.iter (fun s ->
           let i = bucket_index sh s.s_tup in
           sh.buckets.(i) <- s :: sh.buckets.(i)))
      old
  end

(* Hashtbl.replace semantics: at most one slot per tuple. *)
let insert_dir t tup conn =
  let sh = shard_of t tup in
  let i = bucket_index sh tup in
  let had = List.exists (fun s -> tuple_equal s.s_tup tup) sh.buckets.(i) in
  let bucket =
    if had then List.filter (fun s -> not (tuple_equal s.s_tup tup)) sh.buckets.(i)
    else sh.buckets.(i)
  in
  sh.buckets.(i) <- { s_tup = tup; s_conn = conn } :: bucket;
  if not had then begin
    sh.entries <- sh.entries + 1;
    maybe_grow sh
  end

let remove_dir t tup =
  let sh = shard_of t tup in
  let i = bucket_index sh tup in
  if List.exists (fun s -> tuple_equal s.s_tup tup) sh.buckets.(i) then begin
    sh.buckets.(i) <- List.filter (fun s -> not (tuple_equal s.s_tup tup)) sh.buckets.(i);
    sh.entries <- sh.entries - 1
  end

let decr_zone t zone =
  match Hashtbl.find_opt t.zone_counts zone with Some r -> decr r | None -> ()

(* Drop a connection: both directional slots plus the zone count. *)
let remove_conn t conn =
  remove_dir t conn.orig;
  remove_dir t (tuple_reverse conn.orig);
  decr_zone t conn.orig.zone

(* Iterate original-direction slots only (one visit per connection). *)
let iter_conns t f =
  Array.iter
    (fun sh ->
      Array.iter
        (List.iter (fun s -> if tuple_equal s.s_tup s.s_conn.orig then f s.s_conn))
        sh.buckets)
    t.shards

let total_entries t = Array.fold_left (fun acc sh -> acc + sh.entries) 0 t.shards

(** Per-zone connection limit (Sec 2.1.1's nf_conncount feature). *)
let set_zone_limit t ~zone ~limit = Hashtbl.replace t.zone_limits zone limit

let zone_count t ~zone =
  match Hashtbl.find_opt t.zone_counts zone with Some r -> !r | None -> 0

let active_conns t = total_entries t / 2
let lookups t = t.lookups
let committed t = t.committed
let limit_drops t = t.limit_drops

(** Result of passing a packet through conntrack: the ct_state bits OVS
    sets on the packet for the recirculated lookup. *)
type verdict = { ct_state : int; conn : conn option }

let state_bits ~is_new ~established ~reply ~invalid =
  let open FK.Ct_state_bits in
  trk
  lor (if is_new then new_ else 0)
  lor (if established then est else 0)
  lor (if reply then rpl else 0)
  lor if invalid then inv else 0

let tcp_flags_of_key k = FK.get k FK.Field.Tcp_flags

(* advance the TCP state machine for a packet in the given direction *)
let tcp_advance st ~flags ~is_reply =
  let open Ovs_packet.Tcp.Flags in
  let has f = flags land f <> 0 in
  if has rst then Closed
  else
    match st with
    | Syn_sent when is_reply && has syn && has ack -> Syn_recv
    | Syn_sent -> Syn_sent
    | Syn_recv when (not is_reply) && has ack -> Established
    | Syn_recv -> Syn_recv
    | Established when has fin -> Fin_wait
    | Established -> Established
    | Fin_wait when has fin -> Close_wait
    | Fin_wait -> Fin_wait
    | Close_wait when has ack -> Time_wait
    | Close_wait -> Close_wait
    | Time_wait -> Time_wait
    | Closed -> Closed

(* ICMP errors (destination unreachable, time exceeded) embed the header
   of the offending packet; if that packet belongs to a tracked
   connection, the error is "related" (+rel), which firewalls must admit
   for PMTU discovery and friends to work. The inner tuple dispatches to
   its own shard, so relation works even when the error arrives on a
   different shard than the offending flow. *)
let related_conn t ~zone (buf : Ovs_packet.Buffer.t) : conn option =
  let open Ovs_packet in
  match Icmp.parse buf with
  | Some ic
    when ic.Icmp.icmp_type = Icmp.Kind.dest_unreachable
         || ic.Icmp.icmp_type = Icmp.Kind.time_exceeded -> begin
      (* the embedded original IP header starts after the 8-byte ICMP
         header; it is followed by at least 8 bytes of its L4 header *)
      let inner_l3 = buf.Buffer.l4_ofs + Icmp.header_len in
      if Buffer.length buf < inner_l3 + Ipv4.header_len + 8 then None
      else begin
        let saved_l3 = buf.Buffer.l3_ofs and saved_l4 = buf.Buffer.l4_ofs in
        buf.Buffer.l3_ofs <- inner_l3;
        let result =
          match Ipv4.parse buf with
          | Some ip when not (Ipv4.is_later_fragment ip) ->
              let sport = Buffer.get_u16 buf buf.Buffer.l4_ofs in
              let dport = Buffer.get_u16 buf (buf.Buffer.l4_ofs + 2) in
              let tup =
                { src = ip.Ipv4.src; dst = ip.Ipv4.dst; proto = ip.Ipv4.proto;
                  sport; dport; zone }
              in
              find_tuple t tup
          | Some _ | None -> None
        in
        buf.Buffer.l3_ofs <- saved_l3;
        buf.Buffer.l4_ofs <- saved_l4;
        result
      end
    end
  | Some _ | None -> None

(** Track a packet without committing: reports what the connection state
    would be ([+trk] and friends), as the [ct] action does before the
    pipeline decides to commit. Pass [buf] to let ICMP errors be matched
    to the connection they relate to ([+rel]). *)
let track ?buf t ~now ~zone (k : FK.t) : verdict =
  t.lookups <- t.lookups + 1;
  let tup = tuple_of_key ~zone k in
  match find_tuple t tup with
  | None -> begin
      let related =
        if FK.get k FK.Field.Nw_proto = Ovs_packet.Ipv4.Proto.icmp then
          match buf with Some b -> related_conn t ~zone b | None -> None
        else None
      in
      match related with
      | Some conn ->
          { ct_state = FK.Ct_state_bits.(trk lor rel); conn = Some conn }
      | None ->
          { ct_state = state_bits ~is_new:true ~established:false ~reply:false ~invalid:false;
            conn = None }
    end
  | Some conn ->
      let is_reply =
        tuple_is_reverse tup conn.orig && not (tuple_equal tup conn.orig)
      in
      let expired = now -. conn.last_seen > timeout_of conn.state in
      if expired then begin
        remove_conn t conn;
        { ct_state = state_bits ~is_new:true ~established:false ~reply:false ~invalid:false; conn = None }
      end
      else begin
        conn.last_seen <- now;
        conn.packets <- conn.packets + 1;
        (match conn.state with
        | Tcp st ->
            let flags = tcp_flags_of_key k in
            conn.state <- Tcp (tcp_advance st ~flags ~is_reply)
        | Udp_single when is_reply -> conn.state <- Udp_multiple
        | Udp_single | Udp_multiple | Icmp_active -> ());
        let invalid = conn.state = Tcp Closed in
        let established =
          match conn.state with
          | Tcp Established | Tcp Fin_wait | Tcp Close_wait -> true
          | Udp_multiple -> true
          | Tcp _ | Udp_single | Icmp_active -> false
        in
        {
          ct_state =
            state_bits ~is_new:false ~established:(established && not invalid)
              ~reply:is_reply ~invalid;
          conn = Some conn;
        }
      end

(** Commit a new connection (the [ct(commit)] action). Applies the zone
    limit; returns [None] when the zone is full (packet should drop). *)
let commit t ~now ~zone ?nat (k : FK.t) : conn option =
  let tup = tuple_of_key ~zone k in
  match find_tuple t tup with
  | Some conn -> Some conn  (* already committed *)
  | None -> begin
      let count =
        match Hashtbl.find_opt t.zone_counts zone with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.replace t.zone_counts zone r;
            r
      in
      (* the effective limit is the configured one, tightened by any open
         Ct_pressure fault window on this zone *)
      let limit =
        match (Hashtbl.find_opt t.zone_limits zone, Ovs_faults.Faults.ct_limit ~zone) with
        | Some l, Some forced -> Some (Int.min l forced)
        | None, forced -> forced
        | (Some _ as l), None -> l
      in
      match limit with
      | Some l when !count >= l ->
          t.limit_drops <- t.limit_drops + 1;
          Ovs_sim.Coverage.incr cov_zone_limit_drop;
          None
      | _ ->
          let state =
            if tup.proto = Ovs_packet.Ipv4.Proto.tcp then Tcp Syn_sent
            else if tup.proto = Ovs_packet.Ipv4.Proto.udp then Udp_single
            else Icmp_active
          in
          let conn =
            {
              orig = tup;
              state;
              mark = 0;
              created_at = now;
              last_seen = now;
              packets = 1;
              nat;
            }
          in
          insert_dir t tup conn;
          insert_dir t (tuple_reverse tup) conn;
          incr count;
          t.committed <- t.committed + 1;
          Some conn
    end

(** Apply a connection's NAT rewrite to a packet (and its extracted key),
    translating forward on original-direction packets and reversing on
    replies. Returns [true] if the packet was rewritten. *)
let apply_nat (conn : conn) ~is_reply (buf : Ovs_packet.Buffer.t) (k : FK.t) =
  match conn.nat with
  | None -> false
  | Some { nat_src; nat_dst } ->
      let set_ip_src v =
        Ovs_packet.Ipv4.set_src buf v;
        FK.set k FK.Field.Nw_src v
      and set_ip_dst v =
        Ovs_packet.Ipv4.set_dst buf v;
        FK.set k FK.Field.Nw_dst v
      in
      let set_port_src p =
        (if FK.get k FK.Field.Nw_proto = Ovs_packet.Ipv4.Proto.tcp then
           Ovs_packet.Tcp.set_src_port buf p
         else Ovs_packet.Udp.set_src_port buf p);
        FK.set k FK.Field.Tp_src p
      and set_port_dst p =
        (if FK.get k FK.Field.Nw_proto = Ovs_packet.Ipv4.Proto.tcp then
           Ovs_packet.Tcp.set_dst_port buf p
         else Ovs_packet.Udp.set_dst_port buf p);
        FK.set k FK.Field.Tp_dst p
      in
      let changed = ref false in
      (match nat_src with
      | Some (ip, port) ->
          changed := true;
          if is_reply then begin
            set_ip_dst conn.orig.src;
            set_port_dst conn.orig.sport
          end
          else begin
            set_ip_src ip;
            set_port_src port
          end
      | None -> ());
      (match nat_dst with
      | Some (ip, port) ->
          changed := true;
          if is_reply then begin
            set_ip_src conn.orig.dst;
            set_port_src conn.orig.dport
          end
          else begin
            set_ip_dst ip;
            set_port_dst port
          end
      | None -> ());
      if !changed then Ovs_packet.Ipv4.update_csum buf;
      !changed

(** Shrink [zone] to at most [limit] tracked connections by evicting the
    oldest entries first — conntrack's early_drop policy under table
    pressure (the longest-lived connection is the cheapest to lose), and
    the window-open side effect of a [Ct_pressure] fault: evicted
    connections must re-commit, and while the forced limit holds, those
    commits fail into the invalid state. Returns the number evicted. *)
let evict_to_limit t ~zone ~limit =
  let excess = zone_count t ~zone - limit in
  if excess <= 0 then 0
  else begin
    let candidates = ref [] in
    iter_conns t (fun conn ->
        if conn.orig.zone = zone then candidates := conn :: !candidates);
    (* oldest first; the tuple tie-break keeps same-instant commits (one
       virtual-time batch) deterministic regardless of hash order *)
    let victims =
      List.sort
        (fun a b ->
          match compare a.created_at b.created_at with
          | 0 -> compare a.orig b.orig
          | c -> c)
        !candidates
      |> List.filteri (fun i _ -> i < excess)
    in
    List.iter (remove_conn t) victims;
    List.length victims
  end

(** Resumable bounded expiry: examine at least [budget] directional
    entries' worth of buckets (an empty bucket costs 1, so progress is
    guaranteed), starting from where the previous call stopped, and
    reclaim every expired connection found. One full rotation of the
    cursor — however many calls it is amortized over — examines every
    bucket exactly once, so no connection lingers more than one
    rotation past its timeout. Returns how many were reclaimed. *)
let sweep_bounded t ~now ~budget =
  let n_sh = Array.length t.shards in
  let total_buckets =
    Array.fold_left (fun acc sh -> acc + Array.length sh.buckets) 0 t.shards
  in
  let reclaimed = ref 0 in
  let examined = ref 0 in
  let visited = ref 0 in
  while !visited < total_buckets && !examined < budget do
    let sh = t.shards.(t.shard_cursor) in
    if sh.cursor >= Array.length sh.buckets then begin
      sh.cursor <- 0;
      t.shard_cursor <- (t.shard_cursor + 1) mod n_sh
    end
    else begin
      let bucket = sh.buckets.(sh.cursor) in
      examined := !examined + Int.max 1 (List.length bucket);
      List.iter
        (fun s ->
          if
            tuple_equal s.s_tup s.s_conn.orig
            && now -. s.s_conn.last_seen > timeout_of s.s_conn.state
          then begin
            remove_conn t s.s_conn;
            incr reclaimed
          end)
        bucket;
      sh.cursor <- sh.cursor + 1;
      incr visited;
      if sh.cursor >= Array.length sh.buckets then begin
        sh.cursor <- 0;
        t.shard_cursor <- (t.shard_cursor + 1) mod n_sh
      end
    end
  done;
  !reclaimed

(** Expire connections idle past their protocol timeout. Returns how many
    were reclaimed. The unbounded wrapper: one whole cursor rotation. *)
let sweep t ~now = sweep_bounded t ~now ~budget:max_int
