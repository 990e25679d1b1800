(** The megaflow cache: a tuple-space-search classifier (dpcls), the second
    level of the datapath lookup hierarchy — and the structure whose
    absence cripples the eBPF datapath (footnote 1 of the paper).

    Megaflows installed by the slow path are disjoint, so the classifier
    carries no priorities: one subtable per distinct wildcard mask, probed
    in descending hit-count order, first match wins. The number of
    subtables probed per lookup is reported to the caller because lookup
    cost is proportional to it.

    Each subtable is laid out the way dpif-netdev lays out its own: an
    open-addressed table (linear probing, at most half full) of parallel
    arrays. The mask's constrained fields are computed once; per slot the
    table holds a hash signature, the masked values of just those fields
    packed side by side, and the entry. A probe hashes and compares only
    the constrained fields, reads the signature first and allocates
    nothing. *)

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

(* the signature of an empty slot; real signatures are non-negative *)
let empty = -1

type 'a subtable = {
  mask : FK.t;
  fields : int array;  (** indices of the fields [mask] constrains, ascending *)
  fmasks : int array;  (** [mask]'s value on each of [fields] *)
  mutable sigs : int array;  (** per slot: masked-key hash, or [empty] *)
  mutable vals : int array;
      (** per slot: the masked values of [fields], [Array.length fields]
          words each *)
  mutable ents : 'a entry option array;
      (** per slot; the stored option is what a hit returns *)
  mutable seqs : int array;  (** per slot: install stamp, for {!iter} order *)
  mutable st_count : int;
  mutable st_hits : int;
  mutable order_buckets : int;
      (** bucket count of the chained table {!iter}'s order follows *)
  mutable next_seq : int;
}

type 'a t = {
  mutable subtables : 'a subtable array;  (** probe order *)
  mutable count : int;
  mutable lookups : int;
  mutable total_probes : int;
  mutable resort_counter : int;
  mutable last_probes : int;
  mutable last_mask : FK.t;
}

let create () =
  {
    subtables = [||];
    count = 0;
    lookups = 0;
    total_probes = 0;
    resort_counter = 0;
    last_probes = 0;
    last_mask = FK.create ();
  }

let subtable_count t = Array.length t.subtables
let flow_count t = t.count
let last_probes t = t.last_probes
let last_mask t = t.last_mask

let initial_slots = 16

let new_subtable mask =
  let fields =
    Array.of_list
      (List.filter (fun i -> mask.(i) <> 0) (List.init FK.Field.count Fun.id))
  in
  let nf = Array.length fields in
  {
    mask = FK.copy mask;
    fields;
    fmasks = Array.map (fun i -> mask.(i)) fields;
    sigs = Array.make initial_slots empty;
    vals = Array.make (initial_slots * nf) 0;
    ents = Array.make initial_slots None;
    seqs = Array.make initial_slots 0;
    st_count = 0;
    st_hits = 0;
    order_buckets = 256;
    next_seq = 0;
  }

(* FNV-1a over the constrained fields of [key], masked: the value
   [Flow_key.hash_masked] computes, since it skips unconstrained fields *)
let sig_of st (key : FK.t) =
  let h = ref 0x3bf29ce484222325 in
  for j = 0 to Array.length st.fields - 1 do
    h := (!h lxor (key.(st.fields.(j)) land st.fmasks.(j))) * 0x100000001b3
  done;
  !h land max_int

(* Whether [key]'s masked fields [j..] equal the packed values from
   [base] on. The probe loops are top-level functions: a local recursive
   function that captures variables is a closure allocated per call. *)
let rec vals_match st base (key : FK.t) j =
  j >= Array.length st.fields
  || st.vals.(base + j) = key.(st.fields.(j)) land st.fmasks.(j)
     && vals_match st base key (j + 1)

(* the slot holding a key of signature [h] from slot [i] on, or -1 *)
let rec probe_from st h (key : FK.t) i =
  let s = st.sigs.(i) in
  if s = empty then -1
  else if s = h && vals_match st (i * Array.length st.fields) key 0 then i
  else probe_from st h key ((i + 1) land (Array.length st.sigs - 1))

(* the slot holding [key]'s megaflow, or -1 *)
let find_slot st (key : FK.t) =
  let h = sig_of st key in
  probe_from st h key (h land (Array.length st.sigs - 1))

(* the first empty slot on [h]'s probe sequence *)
let free_slot st h =
  let m = Array.length st.sigs - 1 in
  let rec go i = if st.sigs.(i) = empty then i else go ((i + 1) land m) in
  go (h land m)

(* copy slot [i] of [src] into slot [j] of [dst] *)
let move_slot ~src i ~dst j =
  let nf = Array.length src.fields in
  dst.sigs.(j) <- src.sigs.(i);
  Array.blit src.vals (i * nf) dst.vals (j * nf) nf;
  dst.ents.(j) <- src.ents.(i);
  dst.seqs.(j) <- src.seqs.(i)

let grow st =
  let old = { st with sigs = st.sigs } (* the current arrays *) in
  let n = 2 * Array.length st.sigs in
  let nf = Array.length st.fields in
  st.sigs <- Array.make n empty;
  st.vals <- Array.make (n * nf) 0;
  st.ents <- Array.make n None;
  st.seqs <- Array.make n 0;
  Array.iteri
    (fun i s -> if s <> empty then move_slot ~src:old i ~dst:st (free_slot st s))
    old.sigs

let find_subtable t mask =
  Array.find_opt (fun st -> FK.equal st.mask mask) t.subtables

(** Install a megaflow. [key] needs not be pre-masked. *)
let insert t ~mask ~key value =
  let st =
    match find_subtable t mask with
    | Some st -> st
    | None ->
        let st = new_subtable mask in
        t.subtables <- Array.append [| st |] t.subtables;
        st
  in
  match find_slot st key with
  | i when i >= 0 -> (
      (* replace an existing entry with the same masked key, in place *)
      match st.ents.(i) with Some e -> e.value <- value | None -> ())
  | _ ->
      if 2 * (st.st_count + 1) > Array.length st.sigs then grow st;
      let h = sig_of st key in
      let i = free_slot st h in
      let nf = Array.length st.fields in
      st.sigs.(i) <- h;
      for j = 0 to nf - 1 do
        st.vals.((i * nf) + j) <- key.(st.fields.(j)) land st.fmasks.(j)
      done;
      (* always a fresh record: the computational cache holds entries *)
      st.ents.(i) <-
        Some { key = FK.apply_mask key mask; value; hits = 0; cycles = 0. };
      st.seqs.(i) <- st.next_seq;
      st.next_seq <- st.next_seq + 1;
      st.st_count <- st.st_count + 1;
      t.count <- t.count + 1;
      (* a chained table of this many buckets doubles once it holds more
         than two entries per bucket *)
      if st.st_count > 2 * st.order_buckets then
        st.order_buckets <- 2 * st.order_buckets

(* Re-rank the subtables by hit count every 1024 lookups, as the real
   dpcls does, then decay the counts: each resort period then weighs
   recent traffic against a halved history, so a workload shift reorders
   within a few periods. Sorting by all-time hits never reorders once an
   old hot subtable has banked a large lead. *)
let tick t =
  t.lookups <- t.lookups + 1;
  t.resort_counter <- t.resort_counter + 1;
  if t.resort_counter >= 1024 then begin
    t.resort_counter <- 0;
    (* a sorted copy: an {!iter} in progress keeps the order it began with *)
    let subs = Array.copy t.subtables in
    Array.stable_sort (fun a b -> compare b.st_hits a.st_hits) subs;
    Array.iter (fun st -> st.st_hits <- st.st_hits / 2) subs;
    t.subtables <- subs
  end

(* probe subtables [k..] of [subs] in order *)
let rec probe_subtables t subs (key : FK.t) k =
  if k = Array.length subs then begin
    t.total_probes <- t.total_probes + k;
    t.last_probes <- k;
    None
  end
  else
    let st = subs.(k) in
    let i = find_slot st key in
    if i < 0 then probe_subtables t subs key (k + 1)
    else
      match st.ents.(i) with
      | Some e as hit ->
          e.hits <- e.hits + 1;
          st.st_hits <- st.st_hits + 1;
          t.total_probes <- t.total_probes + k + 1;
          t.last_probes <- k + 1;
          t.last_mask <- st.mask;
          hit
      | None -> probe_subtables t subs key (k + 1)

(** Look a packet's flow key up: the hit entry, or [None] after probing
    every subtable. {!last_probes} and {!last_mask} then describe it. *)
let lookup t (key : FK.t) : 'a entry option =
  tick t;
  probe_subtables t t.subtables key 0

(** Look [key] up without mutating any statistic, hit count or the
    subtable order — for cross-checking other tiers against the
    classifier on live state. *)
let peek t (key : FK.t) : ('a * FK.t) option =
  let subs = t.subtables in
  let rec probe k =
    if k = Array.length subs then None
    else
      let st = subs.(k) in
      let i = find_slot st key in
      match if i < 0 then None else st.ents.(i) with
      | Some e -> Some (e.value, st.mask)
      | None -> probe (k + 1)
  in
  probe 0

(* Empty slot [i] by backward-shift deletion: later members of its probe
   run move up, so no tombstone is left behind. *)
let delete_slot st i =
  let m = Array.length st.sigs - 1 in
  let rec shift hole j =
    let s = st.sigs.(j) in
    if s = empty then hole
    else
      (* the entry at [j] may fill [hole] unless its home slot lies
         cyclically within (hole, j] *)
      let home = s land m in
      let dist_hole = (j - home) land m and dist_j = (j - hole) land m in
      if dist_hole >= dist_j then begin
        move_slot ~src:st j ~dst:st hole;
        shift j ((j + 1) land m)
      end
      else shift hole ((j + 1) land m)
  in
  let hole = shift i ((i + 1) land m) in
  st.sigs.(hole) <- empty;
  st.ents.(hole) <- None

(** Remove the megaflow matching [key] under [mask]; empty subtables are
    garbage collected. Returns whether an entry was removed. *)
let remove t ~mask ~key =
  match find_subtable t mask with
  | None -> false
  | Some st ->
      let i = find_slot st key in
      if i >= 0 then begin
        delete_slot st i;
        st.st_count <- st.st_count - 1;
        t.count <- t.count - 1
      end;
      if st.st_count = 0 then
        t.subtables <-
          Array.of_list
            (List.filter (fun s -> s != st) (Array.to_list t.subtables));
      i >= 0

let flush t =
  t.subtables <- [||];
  t.count <- 0;
  t.lookups <- 0;
  t.total_probes <- 0

(* A subtable's live slots in the order a stdlib [Hashtbl] keyed by the
   signature and grown from 256 buckets would visit them: ascending
   [Hashtbl.hash sig] bucket, newest install first within a bucket.
   Revalidation, dump-flows and the computational cache's training read
   megaflows in this order. *)
let ordered_slots st =
  let live = ref [] in
  Array.iteri (fun i s -> if s <> empty then live := i :: !live) st.sigs;
  let b = Array.make (Array.length st.sigs) 0 in
  List.iter
    (fun i -> b.(i) <- Hashtbl.hash st.sigs.(i) land (st.order_buckets - 1))
    !live;
  List.sort
    (fun i j ->
      if b.(i) <> b.(j) then compare b.(i) b.(j) else compare st.seqs.(j) st.seqs.(i))
    !live

(** {!iter} with the full entry exposed (hit and cycle stats). *)
let iter_entries t f =
  Array.iter
    (fun st ->
      List.filter_map (fun i -> st.ents.(i)) (ordered_slots st)
      |> List.iter (fun e -> f ~mask:st.mask e))
    t.subtables

(** Iterate every installed megaflow as (mask, masked key, value, hits). *)
let iter t f = iter_entries t (fun ~mask e -> f ~mask ~key:e.key e.value e.hits)

(** Mean subtables probed per lookup so far. *)
let mean_probes t =
  if t.lookups = 0 then 0.
  else float_of_int t.total_probes /. float_of_int t.lookups
