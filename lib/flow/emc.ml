(** The exact-match cache (EMC): first level of the userspace datapath's
    lookup hierarchy. Maps a packet's full flow key to its megaflow with a
    2-way set-associative probe, exactly the structure whose in-kernel
    counterpart the Linux maintainers rejected (Sec 2.1, [61]) — which is
    why only the userspace datapaths get to have one.

    A signature array sits in front of the slots: a slot is live exactly
    when its signature (the key's hash) is set, so a miss costs two int
    reads and no key comparison. A slot's entry record, once allocated,
    stays with the slot: refilling it overwrites the record in place. *)

module FK = Ovs_packet.Flow_key

type 'a entry = { key : FK.t; mutable value : 'a; mutable hits : int }

(* the signature of an empty slot; key hashes are non-negative *)
let empty = -1

type 'a t = {
  sigs : int array;  (** per slot: the live key's hash, or [empty] *)
  slots : 'a entry option array;
      (** per slot: its record, [None] until first filled; meaningful only
          while the signature is set *)
  mask : int;
  mutable insertions : int;
  mutable lookups : int;
  mutable hit_count : int;
  mutable occupied : int;  (** live entries, maintained incrementally *)
}

let default_entries = 8192

let create ?(entries = default_entries) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Emc.create: entries must be a power of two";
  {
    sigs = Array.make entries empty;
    slots = Array.make entries None;
    mask = entries - 1;
    insertions = 0;
    lookups = 0;
    hit_count = 0;
    occupied = 0;
  }

let slot2 t h = (h lsr 13) land t.mask

(* whether slot [i] is live and holds [key] (hash [h]) *)
let holds t i h (key : FK.t) =
  t.sigs.(i) = h
  && match t.slots.(i) with Some e -> FK.equal e.key key | None -> false

(* the slot, of the two candidates, that holds [key]; -1 when neither *)
let find t h (key : FK.t) =
  let i1 = h land t.mask in
  if holds t i1 h key then i1
  else
    let i2 = slot2 t h in
    if holds t i2 h key then i2 else -1

let lookup t (key : FK.t) : 'a option =
  t.lookups <- t.lookups + 1;
  let h = FK.hash key in
  let i = find t h key in
  match if i < 0 then None else t.slots.(i) with
  | Some e ->
      e.hits <- e.hits + 1;
      t.hit_count <- t.hit_count + 1;
      Some e.value
  | None -> None

(* Make slot [i] hold [key] with a cold hit count, reusing the slot's
   record when it has one. *)
let fill t i h (key : FK.t) value =
  t.sigs.(i) <- h;
  match t.slots.(i) with
  | Some e ->
      Array.blit key 0 e.key 0 FK.Field.count;
      e.value <- value;
      e.hits <- 0
  | None -> t.slots.(i) <- Some { key = FK.copy key; value; hits = 0 }

(* a live slot's hit count *)
let hits t i = match t.slots.(i) with Some e -> e.hits | None -> 0

(** Insert, evicting the colder of the two candidate slots when both are
    occupied (OVS evicts probabilistically; coldest-of-two keeps the test
    behaviour deterministic). *)
let insert t (key : FK.t) (value : 'a) =
  t.insertions <- t.insertions + 1;
  let h = FK.hash key in
  let i = find t h key in
  if i >= 0 then
    match t.slots.(i) with Some e -> e.value <- value | None -> ()
  else
    let i1 = h land t.mask and i2 = slot2 t h in
    if t.sigs.(i1) = empty then begin
      fill t i1 h key value;
      t.occupied <- t.occupied + 1
    end
    else if t.sigs.(i2) = empty then begin
      fill t i2 h key value;
      t.occupied <- t.occupied + 1
    end
    else if hits t i1 <= hits t i2 then fill t i1 h key value
    else fill t i2 h key value

(* Records stay with their slots, so a refill after a flush allocates
   nothing either; a dead record keeps its last value reachable until
   its slot is refilled, at most one per slot. *)
let flush t =
  Array.fill t.sigs 0 (Array.length t.sigs) empty;
  t.occupied <- 0

let occupancy t = t.occupied

let hit_rate t =
  if t.lookups = 0 then 0. else float_of_int t.hit_count /. float_of_int t.lookups
