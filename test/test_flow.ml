(* Tests for the caching layer: exact-match cache and dpcls. *)

module FK = Ovs_packet.Flow_key
module Emc = Ovs_flow.Emc
module Dpcls = Ovs_flow.Dpcls

let check = Alcotest.check

let key_of_flow i =
  let pkt =
    Ovs_packet.Build.udp
      ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.1" + (i land 0xFF))
      ~src_port:(1000 + i) ()
  in
  FK.extract pkt

(* -- reference models --

   The megaflow cache and the EMC as they were before their tables became
   flat signature arrays: a stdlib [Hashtbl] of entry lists per subtable,
   and an option array of fresh records. The differential properties below
   hold the current modules to them. *)

module Ref_dpcls = struct
  [@@@warning "-32"]

  (** The megaflow cache: a tuple-space-search classifier (dpcls), the second
      level of the datapath lookup hierarchy — and the structure whose
      absence cripples the eBPF datapath (footnote 1 of the paper).

      Megaflows installed by the slow path are disjoint, so the classifier
      carries no priorities: one subtable per distinct wildcard mask, probed
      in descending hit-count order, first match wins. The number of
      subtables probed per lookup is reported to the caller because lookup
      cost is proportional to it. *)

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

  type 'a subtable = {
    mask : FK.t;
    tbl : (int, 'a entry list ref) Hashtbl.t;
    mutable st_hits : int;
    mutable st_count : int;
  }

  type 'a t = {
    mutable subtables : 'a subtable list;
    mutable lookups : int;
    mutable total_probes : int;
    mutable resort_counter : int;
  }

  let create () =
    { subtables = []; lookups = 0; total_probes = 0; resort_counter = 0 }

  let subtable_count t = List.length t.subtables

  let flow_count t =
    List.fold_left (fun n st -> n + st.st_count) 0 t.subtables

  let find_subtable t mask =
    List.find_opt (fun st -> FK.equal st.mask mask) t.subtables

  (** Install a megaflow. [key] needs not be pre-masked. *)
  let insert t ~mask ~key value =
    let masked = FK.apply_mask key mask in
    let st =
      match find_subtable t mask with
      | Some st -> st
      | None ->
          let st =
            { mask = FK.copy mask; tbl = Hashtbl.create 256; st_hits = 0; st_count = 0 }
          in
          t.subtables <- st :: t.subtables;
          st
    in
    (* hash exactly as lookup will: over the masked-in fields only *)
    let h = FK.hash_masked masked st.mask in
    let bucket =
      match Hashtbl.find_opt st.tbl h with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.replace st.tbl h b;
          b
    in
    (* replace an existing entry with the same masked key, in place *)
    let existing = List.exists (fun e -> FK.equal e.key masked) !bucket in
    if existing then
      List.iter (fun e -> if FK.equal e.key masked then e.value <- value) !bucket
    else begin
      bucket := { key = masked; value; hits = 0; cycles = 0. } :: !bucket;
      st.st_count <- st.st_count + 1
    end

  (** Look a packet's flow key up. Returns the value, the number of
      subtables probed (the lookup's cost driver) and the matching
      subtable's mask (for installing into upper cache layers), or [None]
      after probing them all. Subtables are re-sorted by hit count
      periodically, as the real dpcls does. *)
  let lookup_entry t (key : FK.t) : ('a entry * int * FK.t) option =
    t.lookups <- t.lookups + 1;
    t.resort_counter <- t.resort_counter + 1;
    if t.resort_counter >= 1024 then begin
      t.resort_counter <- 0;
      t.subtables <-
        List.sort (fun a b -> compare b.st_hits a.st_hits) t.subtables;
      (* decay the counts after ranking: each resort period then weighs
         recent traffic against a halved history, so a workload shift
         reorders within a few periods. Sorting by all-time hits never
         reorders once an old hot subtable has banked a large lead. *)
      List.iter (fun st -> st.st_hits <- st.st_hits / 2) t.subtables
    end;
    let rec probe n = function
      | [] ->
          t.total_probes <- t.total_probes + n;
          None
      | st :: rest -> begin
          let h = FK.hash_masked key st.mask in
          let hit =
            match Hashtbl.find_opt st.tbl h with
            | None -> None
            | Some bucket ->
                List.find_opt
                  (fun e -> FK.equal e.key (FK.apply_mask key st.mask))
                  !bucket
          in
          match hit with
          | Some e ->
              e.hits <- e.hits + 1;
              st.st_hits <- st.st_hits + 1;
              t.total_probes <- t.total_probes + n + 1;
              Some (e, n + 1, st.mask)
          | None -> probe (n + 1) rest
        end
    in
    probe 0 t.subtables

  (** {!lookup_entry} with the entry resolved to its value. *)
  let lookup_full t (key : FK.t) : ('a * int * FK.t) option =
    match lookup_entry t key with
    | Some (e, probes, mask) -> Some (e.value, probes, mask)
    | None -> None

  (** {!lookup_full} without the mask. *)
  let lookup t (key : FK.t) : ('a * int) option =
    match lookup_full t key with
    | Some (v, probes, _) -> Some (v, probes)
    | None -> None

  (** Look [key] up without mutating any statistic, hit count or the
      subtable order — for cross-checking other tiers against the
      classifier on live state. *)
  let peek t (key : FK.t) : ('a * FK.t) option =
    let rec probe = function
      | [] -> None
      | st :: rest -> begin
          let h = FK.hash_masked key st.mask in
          let hit =
            match Hashtbl.find_opt st.tbl h with
            | None -> None
            | Some bucket ->
                List.find_opt
                  (fun e -> FK.equal e.key (FK.apply_mask key st.mask))
                  !bucket
          in
          match hit with
          | Some e -> Some (e.value, st.mask)
          | None -> probe rest
        end
    in
    probe t.subtables

  (** Remove the megaflow matching [key] under [mask]; empty subtables are
      garbage collected. Returns whether an entry was removed. *)
  let remove t ~mask ~key =
    match find_subtable t mask with
    | None -> false
    | Some st ->
        let masked = FK.apply_mask key mask in
        let h = FK.hash_masked masked st.mask in
        let removed = ref false in
        (match Hashtbl.find_opt st.tbl h with
        | None -> ()
        | Some bucket ->
            let before = List.length !bucket in
            bucket := List.filter (fun e -> not (FK.equal e.key masked)) !bucket;
            if List.length !bucket < before then begin
              removed := true;
              st.st_count <- st.st_count - 1;
              if !bucket = [] then Hashtbl.remove st.tbl h
            end);
        if st.st_count = 0 then
          t.subtables <- List.filter (fun s -> s != st) t.subtables;
        !removed

  let flush t =
    t.subtables <- [];
    t.lookups <- 0;
    t.total_probes <- 0

  (** Iterate every installed megaflow as (mask, masked key, value, hits). *)
  let iter t f =
    List.iter
      (fun st ->
        Hashtbl.iter
          (fun _ bucket -> List.iter (fun e -> f ~mask:st.mask ~key:e.key e.value e.hits) !bucket)
          st.tbl)
      t.subtables

  (** {!iter} with the full entry exposed (hit and cycle stats). *)
  let iter_entries t f =
    List.iter
      (fun st ->
        Hashtbl.iter (fun _ bucket -> List.iter (fun e -> f ~mask:st.mask e) !bucket) st.tbl)
      t.subtables

  (** Mean subtables probed per lookup so far. *)
  let mean_probes t =
    if t.lookups = 0 then 0.
    else float_of_int t.total_probes /. float_of_int t.lookups
end

module Ref_emc = struct
  [@@@warning "-32"]

  (** The exact-match cache (EMC): first level of the userspace datapath's
      lookup hierarchy. Maps a packet's full flow key to its megaflow with a
      2-way set-associative probe, exactly the structure whose in-kernel
      counterpart the Linux maintainers rejected (Sec 2.1, [61]) — which is
      why only the userspace datapaths get to have one. *)

  type 'a entry = { key : Ovs_packet.Flow_key.t; mutable value : 'a; mutable hits : int }

  type 'a t = {
    slots : 'a entry option array;
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
      slots = Array.make entries None;
      mask = entries - 1;
      insertions = 0;
      lookups = 0;
      hit_count = 0;
      occupied = 0;
    }

  let slot2 t h = (h lsr 13) land t.mask

  (* the value of slot [i] when it holds [key], counting the hit *)
  let probe t i (key : Ovs_packet.Flow_key.t) =
    match t.slots.(i) with
    | Some e when Ovs_packet.Flow_key.equal e.key key ->
        e.hits <- e.hits + 1;
        Some e.value
    | Some _ | None -> None

  let lookup t (key : Ovs_packet.Flow_key.t) : 'a option =
    t.lookups <- t.lookups + 1;
    let h = Ovs_packet.Flow_key.hash key in
    let r =
      match probe t (h land t.mask) key with
      | Some _ as hit -> hit
      | None -> probe t (slot2 t h) key
    in
    (match r with Some _ -> t.hit_count <- t.hit_count + 1 | None -> ());
    r

  (** Insert, evicting the colder of the two candidate slots when both are
      occupied (OVS evicts probabilistically; coldest-of-two keeps the test
      behaviour deterministic). *)
  let insert t (key : Ovs_packet.Flow_key.t) (value : 'a) =
    t.insertions <- t.insertions + 1;
    let h = Ovs_packet.Flow_key.hash key in
    let i1 = h land t.mask and i2 = slot2 t h in
    let fresh = Some { key = Ovs_packet.Flow_key.copy key; value; hits = 0 } in
    match (t.slots.(i1), t.slots.(i2)) with
    | Some e, _ when Ovs_packet.Flow_key.equal e.key key -> e.value <- value
    | _, Some e when Ovs_packet.Flow_key.equal e.key key -> e.value <- value
    | None, _ ->
        t.slots.(i1) <- fresh;
        t.occupied <- t.occupied + 1
    | _, None ->
        t.slots.(i2) <- fresh;
        t.occupied <- t.occupied + 1
    | Some a, Some b ->
        if a.hits <= b.hits then t.slots.(i1) <- fresh else t.slots.(i2) <- fresh

  let flush t =
    Array.fill t.slots 0 (Array.length t.slots) None;
    t.occupied <- 0

  let occupancy t = t.occupied

  let hit_rate t =
    if t.lookups = 0 then 0. else float_of_int t.hit_count /. float_of_int t.lookups
end

(* -- EMC -- *)

let test_emc_hit_miss () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 0 in
  Alcotest.(check bool) "miss" true (Emc.lookup emc k = None);
  Emc.insert emc k 42;
  Alcotest.(check bool) "hit" true (Emc.lookup emc k = Some 42);
  check Alcotest.int "occupancy" 1 (Emc.occupancy emc)

let test_emc_update_in_place () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 1 in
  Emc.insert emc k 1;
  Emc.insert emc k 2;
  Alcotest.(check bool) "updated" true (Emc.lookup emc k = Some 2);
  check Alcotest.int "no duplicate" 1 (Emc.occupancy emc)

let test_emc_eviction_bounded () =
  let emc = Emc.create ~entries:8 () in
  for i = 0 to 99 do
    Emc.insert emc (key_of_flow i) i
  done;
  Alcotest.(check bool) "bounded" true (Emc.occupancy emc <= 8)

let test_emc_flush () =
  let emc = Emc.create ~entries:8 () in
  Emc.insert emc (key_of_flow 0) 0;
  Emc.flush emc;
  check Alcotest.int "flushed" 0 (Emc.occupancy emc);
  Alcotest.(check bool) "post-flush miss" true (Emc.lookup emc (key_of_flow 0) = None)

let test_emc_hit_rate () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 5 in
  Emc.insert emc k 5;
  ignore (Emc.lookup emc k);
  ignore (Emc.lookup emc (key_of_flow 6));
  check (Alcotest.float 1e-9) "50%" 0.5 (Emc.hit_rate emc)

let test_emc_rejects_bad_size () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Emc.create: entries must be a power of two") (fun () ->
      ignore (Emc.create ~entries:10 ()))

(* -- Dpcls -- *)

(* a lookup's value and probe count *)
let lookup cls k =
  Option.map (fun e -> (e.Dpcls.value, Dpcls.last_probes cls)) (Dpcls.lookup cls k)

(* {!lookup} with the matching subtable's mask *)
let lookup_full cls k =
  Option.map
    (fun e -> (e.Dpcls.value, Dpcls.last_probes cls, Dpcls.last_mask cls))
    (Dpcls.lookup cls k)

let mask_of fields =
  let m = FK.create () in
  List.iter (fun f -> FK.set m f (FK.Field.full_mask f)) fields;
  m

let test_dpcls_masked_match () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.Nw_src ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k "flow-a";
  (* a different flow with the same nw_src must match the same megaflow *)
  let k2 = FK.copy k in
  FK.set k2 FK.Field.Tp_src 9999;
  (match lookup cls k2 with
  | Some ("flow-a", probes) -> check Alcotest.int "one subtable" 1 probes
  | _ -> Alcotest.fail "masked lookup failed");
  (* different nw_src misses *)
  let k3 = FK.copy k in
  FK.set k3 FK.Field.Nw_src 1;
  Alcotest.(check bool) "different src misses" true (lookup cls k3 = None)

let test_dpcls_one_subtable_per_mask () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  for i = 0 to 9 do
    let k = FK.create () in
    FK.set k FK.Field.In_port i;
    Dpcls.insert cls ~mask ~key:k i
  done;
  check Alcotest.int "subtables" 1 (Dpcls.subtable_count cls);
  check Alcotest.int "flows" 10 (Dpcls.flow_count cls)

let test_dpcls_multiple_subtables_probed () =
  let cls = Dpcls.create () in
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:(key_of_flow 0) 1;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Nw_src ]) ~key:(key_of_flow 1) 2;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Tp_src ]) ~key:(key_of_flow 2) 3;
  check Alcotest.int "three subtables" 3 (Dpcls.subtable_count cls);
  (* a key that only matches the last-created subtable probes several *)
  match lookup cls (key_of_flow 2) with
  | Some (_, probes) -> Alcotest.(check bool) "probed >= 1" true (probes >= 1)
  | None ->
      (* key_of_flow 2 shares in_port with flow 0's subtable mask, so a hit
         through another subtable is possible; ensure at least the lookup
         terminates with all subtables probed *)
      ()

let test_dpcls_replace_same_key () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k 1;
  Dpcls.insert cls ~mask ~key:k 2;
  check Alcotest.int "replaced, not duplicated" 1 (Dpcls.flow_count cls);
  match lookup cls k with
  | Some (v, _) -> check Alcotest.int "new value" 2 v
  | None -> Alcotest.fail "lookup"

let test_dpcls_remove () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k 1;
  Alcotest.(check bool) "removed" true (Dpcls.remove cls ~mask ~key:k);
  Alcotest.(check bool) "gone" true (lookup cls k = None);
  check Alcotest.int "empty subtable collected" 0 (Dpcls.subtable_count cls);
  Alcotest.(check bool) "double remove" false (Dpcls.remove cls ~mask ~key:k)

let test_dpcls_flush () =
  let cls = Dpcls.create () in
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:(key_of_flow 0) 1;
  Dpcls.flush cls;
  check Alcotest.int "no flows" 0 (Dpcls.flow_count cls)

let test_dpcls_resort_keeps_semantics () =
  let cls = Dpcls.create () in
  let m1 = mask_of [ FK.Field.In_port ] in
  let m2 = mask_of [ FK.Field.Nw_src ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask:m1 ~key:k "by-port";
  Dpcls.insert cls ~mask:m2 ~key:(key_of_flow 3) "by-src";
  (* hammer one subtable so periodic resorting reorders them *)
  for _ = 1 to 3000 do
    ignore (lookup cls k)
  done;
  match lookup cls k with
  | Some (v, _) -> check Alcotest.string "still matches" "by-port" v
  | None -> Alcotest.fail "lost after resort"

(* Regression for subtable re-ranking staleness: hit counts are halved at
   every resort, so a workload shift must reorder the probe order within a
   few resort periods. Without the decay, months of accumulated hits on
   the old subtable would keep it ranked first ~forever. *)
let test_dpcls_resort_decay_converges () =
  let cls = Dpcls.create () in
  let key_a = FK.create () in
  FK.set key_a FK.Field.In_port 7;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:key_a "old";
  let key_b = FK.create () in
  FK.set key_b FK.Field.In_port 9;
  FK.set key_b FK.Field.Nw_src 42;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Nw_src ]) ~key:key_b "new";
  (* phase 1: a long-lived workload hammers the first subtable *)
  for _ = 1 to 20_000 do
    ignore (lookup cls key_a)
  done;
  (match lookup cls key_b with
  | Some ("new", probes) -> check Alcotest.int "shifted flow probes second" 2 probes
  | _ -> Alcotest.fail "shifted flow must match");
  (* phase 2: the workload shifts entirely; convergence must take only a
     few 1024-lookup resort periods, not 20k lookups of catch-up *)
  for _ = 1 to 4 * 1024 do
    ignore (lookup cls key_b)
  done;
  match lookup cls key_b with
  | Some ("new", probes) -> check Alcotest.int "reordered to front" 1 probes
  | _ -> Alcotest.fail "shifted flow must still match"

(* Property: dpcls lookup agrees with a linear-scan oracle. Megaflows are
   disjoint in OVS; we generate disjoint entries by construction (distinct
   masked values under a shared mask per subtable). *)
let prop_dpcls_vs_oracle =
  QCheck.Test.make ~count:60 ~name:"dpcls agrees with linear oracle"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 1) in
      let cls = Dpcls.create () in
      let field_pool =
        [| FK.Field.In_port; FK.Field.Nw_src; FK.Field.Nw_dst; FK.Field.Tp_src;
           FK.Field.Tp_dst; FK.Field.Dl_type |]
      in
      (* build 3 subtable masks and entries under each *)
      let entries = ref [] in
      for s = 0 to 2 do
        let nf = 1 + Ovs_sim.Prng.int prng 3 in
        let fields =
          List.init nf (fun i -> field_pool.((s + i * 2) mod Array.length field_pool))
        in
        let mask = mask_of fields in
        for e = 0 to 4 do
          let k = FK.create () in
          Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 50)) FK.Field.all;
          Dpcls.insert cls ~mask ~key:k ((s * 10) + e);
          entries := (FK.copy mask, FK.apply_mask k mask, (s * 10) + e) :: !entries
        done
      done;
      (* random probe keys; oracle = first match in insertion-reversed order
         is not well-defined across subtables, so compare hit/miss sets *)
      let ok = ref true in
      for _ = 1 to 50 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 50)) FK.Field.all;
        let oracle_hits =
          List.filter_map
            (fun (m, masked, v) ->
              if FK.equal (FK.apply_mask k m) masked then Some v else None)
            !entries
        in
        match lookup cls k with
        | Some (v, _) -> if not (List.mem v oracle_hits) then ok := false
        | None -> if oracle_hits <> [] then ok := false
      done;
      !ok)

(* -- the flat tables against the reference models -- *)

(* A key from a seed: values 0..3 in every field, so keys collide under
   masks that leave nw_src out, and the seed in nw_src. *)
let key_of_seed seed =
  let k = FK.create () in
  Array.iter
    (fun f -> FK.set k f (Hashtbl.hash (seed, FK.Field.name f) land 3))
    FK.Field.all;
  FK.set k FK.Field.Nw_src (0x0a000000 + seed);
  k

(* exact masks, a /24 prefix and the catch-all *)
let diff_masks =
  let prefix = mask_of [ FK.Field.Dl_type ] in
  FK.set prefix FK.Field.Nw_src 0xFFFFFF00;
  [|
    mask_of [ FK.Field.Nw_src ];
    mask_of [ FK.Field.Nw_src; FK.Field.Tp_src ];
    mask_of [ FK.Field.In_port; FK.Field.Nw_dst ];
    prefix;
    FK.create ();
  |]

type dpcls_op =
  | D_insert of int * int  (** mask index, key seed *)
  | D_remove of int * int
  | D_lookup of int  (** key seed *)
  | D_hammer of int * int  (** key seed, lookups: crosses resorts *)
  | D_bulk of int * int  (** mask index, seeds 1000.. installed *)
  | D_flush

let print_dpcls_op = function
  | D_insert (m, k) -> Printf.sprintf "insert m%d k%d" m k
  | D_remove (m, k) -> Printf.sprintf "remove m%d k%d" m k
  | D_lookup k -> Printf.sprintf "lookup k%d" k
  | D_hammer (k, n) -> Printf.sprintf "hammer k%d x%d" k n
  | D_bulk (m, n) -> Printf.sprintf "bulk m%d x%d" m n
  | D_flush -> "flush"

let gen_dpcls_op =
  let open QCheck.Gen in
  let mask = frequency [ (3, int_range 0 3); (1, return 4) ] and seed = int_range 0 47 in
  frequency
    [
      (10, map2 (fun m k -> D_insert (m, k)) mask seed);
      (4, map2 (fun m k -> D_remove (m, k)) mask seed);
      (10, map (fun k -> D_lookup k) seed);
      (1, map2 (fun k n -> D_hammer (k, n)) seed (int_range 100 1500));
      (1, map2 (fun m n -> D_bulk (m, n)) (int_range 0 3) (int_range 100 700));
      (1, return D_flush);
    ]

(* Run [ops] on a Dpcls and a Ref_dpcls side by side. Every lookup must
   agree on the hit, the probe count and the mask; counts and mean probes
   after every op; the whole [iter_entries] sequence before each flush and
   at the end. Entries are matched physically: each reference entry must
   correspond to exactly one Dpcls entry, and the other way round, so a
   record reused for a new megaflow shows. *)
let dpcls_agrees ops =
  let cls = Dpcls.create () and rf = Ref_dpcls.create () in
  let pairs = ref [] in
  let same_entry (r : int Ref_dpcls.entry) (e : int Dpcls.entry) =
    (match List.assq_opt r !pairs with
    | Some e' -> e' == e
    | None ->
        (not (List.exists (fun (_, e') -> e' == e) !pairs))
        &&
        (pairs := (r, e) :: !pairs;
         true))
    && FK.equal r.Ref_dpcls.key e.Dpcls.key
    && r.Ref_dpcls.value = e.Dpcls.value
    && r.Ref_dpcls.hits = e.Dpcls.hits
  in
  let lookup_agrees k =
    (match (Ref_dpcls.peek rf k, Dpcls.peek cls k) with
    | None, None -> true
    | Some (rv, rm), Some (v, m) -> rv = v && FK.equal rm m
    | _ -> false)
    &&
    match (Ref_dpcls.lookup_entry rf k, Dpcls.lookup cls k) with
    | None, None -> true
    | Some (r, probes, mask), Some e ->
        same_entry r e
        && probes = Dpcls.last_probes cls
        && FK.equal mask (Dpcls.last_mask cls)
    | _ -> false
  in
  let iteration_agrees () =
    let collect iter =
      let l = ref [] in
      iter (fun ~mask e -> l := (FK.copy mask, e) :: !l);
      List.rev !l
    in
    let a = collect (Ref_dpcls.iter_entries rf)
    and b = collect (Dpcls.iter_entries cls) in
    List.length a = List.length b
    && List.for_all2 (fun (rm, r) (m, e) -> FK.equal rm m && same_entry r e) a b
  in
  let value = ref 0 in
  let insert mask seed =
    incr value;
    let key = key_of_seed seed in
    Ref_dpcls.insert rf ~mask:diff_masks.(mask) ~key !value;
    Dpcls.insert cls ~mask:diff_masks.(mask) ~key !value
  in
  let step = function
    | D_insert (m, k) ->
        insert m k;
        true
    | D_remove (m, k) ->
        let key = key_of_seed k in
        Ref_dpcls.remove rf ~mask:diff_masks.(m) ~key
        = Dpcls.remove cls ~mask:diff_masks.(m) ~key
    | D_lookup k -> lookup_agrees (key_of_seed k)
    | D_hammer (k, n) ->
        let key = key_of_seed k in
        let ok = ref true in
        for _ = 1 to n do
          if not (lookup_agrees key) then ok := false
        done;
        !ok
    | D_bulk (m, n) ->
        for i = 0 to n - 1 do
          insert m (1000 + i)
        done;
        true
    | D_flush ->
        let ok = iteration_agrees () in
        Ref_dpcls.flush rf;
        Dpcls.flush cls;
        ok
  in
  List.for_all
    (fun op ->
      step op
      && Ref_dpcls.flow_count rf = Dpcls.flow_count cls
      && Ref_dpcls.subtable_count rf = Dpcls.subtable_count cls
      && Ref_dpcls.mean_probes rf = Dpcls.mean_probes cls)
    ops
  && iteration_agrees ()

let prop_dpcls_matches_reference =
  QCheck.Test.make ~count:80 ~name:"dpcls matches the Hashtbl reference"
    QCheck.(
      make
        ~print:Print.(list print_dpcls_op)
        Gen.(list_size (int_range 1 120) gen_dpcls_op))
    dpcls_agrees

type emc_op = E_insert of int * int  (** key seed, value *) | E_lookup of int | E_flush

let print_emc_op = function
  | E_insert (k, v) -> Printf.sprintf "insert k%d=%d" k v
  | E_lookup k -> Printf.sprintf "lookup k%d" k
  | E_flush -> "flush"

(* A 16-slot EMC over 40 keys, so both candidate slots are often taken:
   every lookup, the occupancy after every op and the final hit rate must
   match the coldest-of-two reference. *)
let prop_emc_matches_reference =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> E_insert (k, v)) (int_range 0 39) small_nat);
          (8, map (fun k -> E_lookup k) (int_range 0 39));
          (1, return E_flush);
        ])
  in
  QCheck.Test.make ~count:200 ~name:"EMC matches the coldest-of-two reference"
    QCheck.(
      make ~print:Print.(list print_emc_op) Gen.(list_size (int_range 1 300) gen_op))
    (fun ops ->
      let emc = Emc.create ~entries:16 () and rf = Ref_emc.create ~entries:16 () in
      List.for_all
        (fun op ->
          (match op with
          | E_insert (k, v) ->
              let key = key_of_seed k in
              Ref_emc.insert rf key v;
              Emc.insert emc key v;
              true
          | E_lookup k ->
              let key = key_of_seed k in
              Ref_emc.lookup rf key = Emc.lookup emc key
          | E_flush ->
              Ref_emc.flush rf;
              Emc.flush emc;
              true)
          && Ref_emc.occupancy rf = Emc.occupancy emc)
        ops
      && Ref_emc.hit_rate rf = Emc.hit_rate emc)

(* minor words allocated per call of [f], over [n] calls *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A warm hit allocates at most the result option, however many
   subtables it probes. Four subtables, one register each; every lookup
   key matches in exactly one of them, round robin. *)
let test_dpcls_hit_allocation () =
  let regs = [| FK.Field.Reg0; FK.Field.Reg1; FK.Field.Reg2; FK.Field.Reg3 |] in
  let cls = Dpcls.create () in
  Array.iter
    (fun r ->
      for v = 1 to 100 do
        let k = FK.create () in
        FK.set k r v;
        Dpcls.insert cls ~mask:(mask_of [ r ]) ~key:k v
      done)
    regs;
  let keys =
    Array.init 64 (fun i ->
        let k = FK.create () in
        Array.iter (fun r -> FK.set k r 999) regs;
        FK.set k regs.(i mod 4) (1 + (i * 7 mod 100));
        k)
  in
  let i = ref 0 and probes = ref 0 in
  let hit () =
    (match Dpcls.lookup cls keys.(!i land 63) with
    | Some _ -> probes := !probes + Dpcls.last_probes cls
    | None -> Alcotest.fail "every key is installed");
    incr i
  in
  for _ = 1 to 5000 do
    hit ()
  done;
  probes := 0;
  let n = 20_000 in
  let words = words_per_call n hit in
  Alcotest.(check bool) "hits probe several subtables" true
    (float_of_int !probes /. float_of_int n > 1.5);
  if words > 2. then
    Alcotest.failf "a warm dpcls hit allocates %.2f minor words (budget 2)" words

(* Refilling an occupied EMC slot overwrites its record in place. *)
let test_emc_refill_allocation () =
  let emc = Emc.create ~entries:64 () in
  let keys = Array.init 4096 key_of_seed in
  Array.iteri (fun v k -> Emc.insert emc k v) keys;
  check Alcotest.int "every slot occupied" 64 (Emc.occupancy emc);
  let i = ref 0 in
  let words =
    words_per_call 4096 (fun () ->
        Emc.insert emc keys.(!i) (!i + 1);
        incr i)
  in
  if words > 0.01 then
    Alcotest.failf "an EMC refill allocates %.3f minor words (budget 0)" words

(* -- cache-hierarchy invariants (EMC + SMC + dpcls against the datapath) -- *)

module Smc = Ovs_flow.Smc
module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Netdev = Ovs_netdev.Netdev
module Buffer = Ovs_packet.Buffer

(* The three cache tiers may miss independently, but any tier that claims a
   hit must agree with the classifier (the ground truth): a disagreement
   would forward a packet on a stale or foreign megaflow. *)
let prop_cache_tiers_agree =
  QCheck.Test.make ~count:60 ~name:"EMC/SMC/dpcls agree on every lookup"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 11) in
      let cls = Dpcls.create () in
      let emc = Emc.create ~entries:1024 () in
      let smc = Smc.create ~entries:1024 () in
      let masks =
        [|
          mask_of [ FK.Field.Nw_src ];
          mask_of [ FK.Field.Nw_src; FK.Field.Tp_src ];
          mask_of [ FK.Field.In_port; FK.Field.Nw_dst ];
        |]
      in
      for v = 0 to 19 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 16)) FK.Field.all;
        Dpcls.insert cls ~mask:masks.(v mod 3) ~key:k v
      done;
      let seen = ref [] in
      let ok = ref true in
      let probe k =
        let truth = lookup_full cls k in
        (match (Emc.lookup emc k, truth) with
        | Some v, Some (v', _, _) when v <> v' -> ok := false
        | Some _, None -> ok := false
        | _ -> ());
        (match (Smc.lookup smc k, truth) with
        | Some v, Some (v', _, _) when v <> v' -> ok := false
        | Some _, None -> ok := false
        | _ -> ());
        (* a dpcls hit populates the upper tiers, like the datapath does *)
        match truth with
        | Some (v, _, mask) ->
            Emc.insert emc k v;
            Smc.insert smc k ~mask v;
            seen := FK.copy k :: !seen
        | None -> ()
      in
      for _ = 1 to 200 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 16)) FK.Field.all;
        probe k;
        (* revisit a known flow: every tier must now hit and agree *)
        match !seen with
        | k' :: _ -> probe k'
        | [] -> ()
      done;
      !ok)

let flow_rules = [ "table=0,priority=10,udp actions=output:1" ]

let make_dp ?(rules = flow_rules) () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:2 () in
  ignore (Ovs_ofproto.Parser.install_flows pipeline rules);
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  for i = 0 to 2 do
    ignore (Dpif.add_port dp (Netdev.create ~name:(Printf.sprintf "p%d" i) ()))
  done;
  (pipeline, dp)

let udp_pkt () =
  let pkt = Ovs_packet.Build.udp ~src_port:7777 () in
  pkt.Buffer.in_port <- 0;
  pkt

let process dp pkt = Dpif.process dp (fun _ _ -> ()) pkt

let test_hit_after_install_miss_after_flush () =
  let _, dp = make_dp () in
  let c = Dpif.counters dp in
  process dp (udp_pkt ());
  check Alcotest.int "first packet upcalls" 1 c.Dp_core.upcalls;
  check Alcotest.int "megaflow installed" 1 (List.length (Dpif.dump_megaflows dp));
  process dp (udp_pkt ());
  check Alcotest.int "second packet hits the cache" 1 c.Dp_core.upcalls;
  check Alcotest.int "EMC served it" 1 c.Dp_core.emc_hits;
  Dpif.flush_caches dp;
  check Alcotest.int "flush empties the flow table" 0
    (List.length (Dpif.dump_megaflows dp));
  process dp (udp_pkt ());
  check Alcotest.int "post-flush packet misses again" 2 c.Dp_core.upcalls

let new_policy = "table=0,priority=100,udp actions=output:2"

let test_revalidate_evicts_and_never_resurrects () =
  let pipeline, dp = make_dp () in
  process dp (udp_pkt ());
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "old policy cached" true
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  (* the controller overrides the policy; the cached megaflow is now stale *)
  ignore (Ovs_ofproto.Parser.install_flows pipeline [ new_policy ]);
  Alcotest.(check bool) "revalidation evicts the stale megaflow" true
    (Dpif.revalidate dp >= 1);
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "stale megaflow gone" false
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  (* re-processing must follow the new policy, and revalidation must agree *)
  process dp (udp_pkt ());
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "new policy cached" true
    (Astring.String.is_infix ~affix:"output(2)" dumped);
  Alcotest.(check bool) "old megaflow did not come back" false
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  check Alcotest.int "nothing left to evict" 0 (Dpif.revalidate dp)

(* Regression for the deferred-upcall re-probe path: an upcall queued
   before a rule change must translate against the *new* tables when it is
   finally drained, not resurrect the old decision. *)
let test_deferred_upcall_sees_rule_change () =
  let pipeline, dp = make_dp () in
  let hit_ports = ref [] in
  List.iter
    (fun p ->
      Netdev.set_tx_sink p.Dpif.dev (fun dev _ ->
          hit_ports := dev.Netdev.port_no :: !hit_ports))
    (Dpif.ports dp);
  let pending = Queue.create () in
  Dpif.set_upcall_hook dp (Some (fun pkt key -> Queue.add (pkt, key) pending; true));
  process dp (udp_pkt ());
  check Alcotest.int "packet parked on the upcall queue" 1 (Queue.length pending);
  ignore (Ovs_ofproto.Parser.install_flows pipeline [ new_policy ]);
  (let pkt, key = Queue.pop pending in
   Dpif.handle_upcall dp (fun _ _ -> ()) pkt key);
  Alcotest.(check (list Alcotest.int)) "forwarded by the new rule" [ 2 ] !hit_ports;
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "megaflow carries the new actions" true
    (Astring.String.is_infix ~affix:"output(2)" dumped)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_flow"
    [
      ( "emc",
        [
          Alcotest.test_case "hit/miss" `Quick test_emc_hit_miss;
          Alcotest.test_case "update in place" `Quick test_emc_update_in_place;
          Alcotest.test_case "eviction bounded" `Quick test_emc_eviction_bounded;
          Alcotest.test_case "flush" `Quick test_emc_flush;
          Alcotest.test_case "hit rate" `Quick test_emc_hit_rate;
          Alcotest.test_case "bad size" `Quick test_emc_rejects_bad_size;
          Alcotest.test_case "refill allocates nothing" `Quick
            test_emc_refill_allocation;
        ]
        @ qcheck [ prop_emc_matches_reference ] );
      ( "dpcls",
        [
          Alcotest.test_case "masked match" `Quick test_dpcls_masked_match;
          Alcotest.test_case "one subtable per mask" `Quick test_dpcls_one_subtable_per_mask;
          Alcotest.test_case "multiple subtables" `Quick test_dpcls_multiple_subtables_probed;
          Alcotest.test_case "replace same key" `Quick test_dpcls_replace_same_key;
          Alcotest.test_case "remove" `Quick test_dpcls_remove;
          Alcotest.test_case "flush" `Quick test_dpcls_flush;
          Alcotest.test_case "resort keeps semantics" `Quick test_dpcls_resort_keeps_semantics;
          Alcotest.test_case "resort decay converges after shift" `Quick
            test_dpcls_resort_decay_converges;
          Alcotest.test_case "warm hit allocates at most its result" `Quick
            test_dpcls_hit_allocation;
        ]
        @ qcheck [ prop_dpcls_vs_oracle; prop_dpcls_matches_reference ] );
      ( "hierarchy",
        [
          Alcotest.test_case "hit after install, miss after flush" `Quick
            test_hit_after_install_miss_after_flush;
          Alcotest.test_case "revalidate never resurrects" `Quick
            test_revalidate_evicts_and_never_resurrects;
          Alcotest.test_case "deferred upcall sees rule change" `Quick
            test_deferred_upcall_sees_rule_change;
        ]
        @ qcheck [ prop_cache_tiers_agree ] );
    ]
