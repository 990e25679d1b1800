(** The megaflow cache: a tuple-space-search classifier (dpcls), the
    second level of the datapath lookup hierarchy. One subtable per
    distinct wildcard mask; megaflows are disjoint so there are no
    priorities; subtables are probed in descending hit-count order and
    re-sorted periodically. Lookup cost is proportional to the number of
    subtables probed, which the API reports. Each subtable is an
    open-addressed table of hash signatures and packed masked fields. *)

module FK = Ovs_packet.Flow_key

type 'a entry = {
  key : FK.t;  (** pre-masked key *)
  mutable value : 'a;
      (** mutable so a reinstall updates the record in place — outside
          references (the computational cache's iSet members) must never
          observe a stale value *)
  mutable hits : int;
  mutable cycles : float;
      (** virtual ns spent on lookups that hit this entry (credited by the
          datapath, which knows the per-probe cost) — dpctl/dump-flows'
          per-megaflow cycle stats *)
}

type 'a t

val create : unit -> 'a t

val subtable_count : 'a t -> int
(** Distinct wildcard masks currently installed. *)

val flow_count : 'a t -> int
(** Total megaflow entries. O(1). *)

val insert : 'a t -> mask:FK.t -> key:FK.t -> 'a -> unit
(** Install (or replace) the megaflow matching [key] under [mask]. [key]
    need not be pre-masked. A new megaflow always gets a fresh {!entry}
    (the computational cache holds entries); a replacement updates the
    existing entry's value in place. *)

val lookup : 'a t -> FK.t -> 'a entry option
(** [lookup t key] is the entry of the first subtable holding a match,
    or [None] after probing them all. A warm hit allocates nothing. The
    entry is exposed so the caller can credit lookup cycles to it. *)

val last_probes : 'a t -> int
(** Subtables the latest {!lookup} probed: its cost driver. *)

val last_mask : 'a t -> FK.t
(** After a {!lookup} hit, the matching subtable's mask, so upper cache
    layers can be populated. Shared with the classifier: do not mutate. *)

val peek : 'a t -> FK.t -> ('a * FK.t) option
(** Lookup without mutating any statistic, hit count or the subtable
    order — for cross-checking other tiers on live state. *)

val remove : 'a t -> mask:FK.t -> key:FK.t -> bool
(** Remove one megaflow; empty subtables are garbage-collected. Returns
    whether an entry was removed. *)

val flush : 'a t -> unit

val iter :
  'a t -> (mask:FK.t -> key:FK.t -> 'a -> int -> unit) -> unit
(** Visit every megaflow as [(mask, masked key, value, hit count)] — the
    dpctl/dump-flows view. Subtables come in probe order. Within one, the
    order is that of a stdlib [Hashtbl] keyed by the masked hash and
    grown from 256 buckets: ascending [Hashtbl.hash] bucket, newest
    install first within a bucket. *)

val iter_entries : 'a t -> (mask:FK.t -> 'a entry -> unit) -> unit
(** {!iter} with the full entry exposed (hit and cycle stats). *)

val mean_probes : 'a t -> float
(** Mean subtables probed per lookup since creation. *)
