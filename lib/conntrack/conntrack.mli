(** Connection tracking: the userspace reimplementation of the kernel's
    netfilter conntrack that OVS needed once the datapath left the kernel
    (paper Sec 4). Zones isolate virtual networks; TCP connections follow
    a real state machine over real flags; ICMP errors are matched to the
    connection they quote ([+rel]); NAT rewrites both packet bytes and
    flow keys; per-zone limits model the nf_conncount feature whose
    backport cost Sec 2.1.1 quantifies. *)

module FK = Ovs_packet.Flow_key

type tuple = {
  src : int;
  dst : int;
  proto : int;
  sport : int;
  dport : int;
  zone : int;
}

val tuple_reverse : tuple -> tuple
val tuple_of_key : zone:int -> FK.t -> tuple

type tcp_state =
  | Syn_sent
  | Syn_recv
  | Established
  | Fin_wait
  | Close_wait
  | Time_wait
  | Closed

val tcp_state_name : tcp_state -> string

type proto_state = Tcp of tcp_state | Udp_single | Udp_multiple | Icmp_active

type nat_action = {
  nat_src : (int * int) option;  (** SNAT target (ip, port) *)
  nat_dst : (int * int) option;  (** DNAT target (ip, port) *)
}

type conn = {
  orig : tuple;  (** the original (initiating) direction *)
  mutable state : proto_state;
  mutable mark : int;
  mutable created_at : Ovs_sim.Time.ns;
  mutable last_seen : Ovs_sim.Time.ns;
  mutable packets : int;
  nat : nat_action option;
}

type t

val create : ?shards:int -> unit -> t
(** [shards] (default 1) splits storage by a direction-symmetric
    5-tuple hash: a tuple and its reverse always land in the same
    shard, so per-PMD engines can treat each shard as domain-private
    and keep the hit path lock-free. *)

val n_shards : t -> int

val set_zone_limit : t -> zone:int -> limit:int -> unit
(** Cap committed connections in a zone (nf_conncount). *)

val zone_count : t -> zone:int -> int
val active_conns : t -> int
val lookups : t -> int
val committed : t -> int
val limit_drops : t -> int

type verdict = { ct_state : int; conn : conn option }
(** The ct_state bits ({!FK.Ct_state_bits}) the [ct] action sets for the
    recirculated lookup, plus the connection if one matched. *)

val track : ?buf:Ovs_packet.Buffer.t -> t -> now:Ovs_sim.Time.ns -> zone:int -> FK.t -> verdict
(** Classify a packet against the connection table without committing.
    Expired connections are reclaimed lazily. Pass [buf] so ICMP errors
    can be matched to the connection they quote ([+rel]). *)

val commit : t -> now:Ovs_sim.Time.ns -> zone:int -> ?nat:nat_action -> FK.t -> conn option
(** Create the connection (the [ct(commit)] action); idempotent for an
    existing one. [None] when the zone's limit is reached — the packet
    should drop. *)

val apply_nat : conn -> is_reply:bool -> Ovs_packet.Buffer.t -> FK.t -> bool
(** Rewrite the packet (and its extracted key) per the connection's NAT:
    forward translation on original-direction packets, reverse on
    replies. Refreshes the IPv4 header checksum. Returns whether anything
    changed. *)

val sweep : t -> now:Ovs_sim.Time.ns -> int
(** Reclaim connections idle past their protocol timeout; returns how
    many. Equivalent to {!sweep_bounded} with an infinite budget: one
    full rotation of the bucket cursor. *)

val sweep_bounded : t -> now:Ovs_sim.Time.ns -> budget:int -> int
(** Resumable bounded expiry: examine roughly [budget] directional
    entries (an empty bucket costs 1, so progress is guaranteed)
    starting where the previous call stopped, reclaiming expired
    connections found along the way. A full cursor rotation — however
    many calls it is amortized over — visits every bucket exactly
    once, so per-poll budgets bound reclamation latency by one
    rotation. Returns how many connections were reclaimed. *)

val evict_to_limit : t -> zone:int -> limit:int -> int
(** Evict the oldest connections (by [created_at], original direction)
    until [zone] holds at most [limit] — early_drop under table
    pressure; the [Ct_pressure] fault's window-open side effect.
    Returns the number evicted. *)

val timeout_of : proto_state -> Ovs_sim.Time.ns
