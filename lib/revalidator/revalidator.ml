(** The flow-lifecycle subsystem: incremental megaflow revalidation.

    OVS's revalidator threads decide, on every flow-table change,
    which installed megaflows are still translating correctly. The
    classic answer — re-translate everything, or flush everything —
    costs work proportional to the *datapath table size*, which at
    production scale (hundreds of thousands of megaflows, steady rule
    churn from the controller) is exactly the wrong variable: churn
    touches a handful of rules per event.

    This module makes revalidation follow *churn* instead.
    At translate time the datapath records, per megaflow, the rule
    dependency set: for every table the translation visited, either
    the rule that matched ([Matched]) or the fact that it fell
    through ([Missed]). On a sweep, each OpenFlow table whose
    mutation counter ({!Table.version}) moved since the last pass is
    re-snapshotted and diffed against its previous snapshot; untouched
    tables cost one comparison. We mark dirty only megaflows whose
    dependencies could be affected:

    - a rule they matched was removed (or modified, which surfaces
      as remove+add because rule ids are never reused), or
    - a rule was added to a table they visited, overlaps the
      megaflow's match cube, and has priority at least that of the
      rule the megaflow matched there (a strictly-lower-priority
      add cannot steal the lookup; any add can steal a [Missed]).

    The add test is indexed: a table's adds are grouped by rule mask
    and hashed on the bits both the rule and the megaflow constrain, so
    each visitor of the table costs one probe per distinct rule mask,
    and only the adds in the probed bucket get the exact overlap and
    priority test. A sweep's work thus grows with the rules of the
    changed tables, plus one probe per distinct added rule mask for
    each visitor of a table that gained rules, plus the dirty set.

    Only dirty megaflows are re-translated; those whose actions or
    mask changed are evicted through a caller-supplied callback (the
    datapath invalidates its caches there). The companion flush-all
    oracle ({!Dp_core.revalidate}) lets tests and the scale bench
    prove the incremental result identical on every churn event. *)

module FK = Ovs_packet.Flow_key
module Table = Ovs_ofproto.Table
module Match_ = Ovs_ofproto.Match_
module Pipeline = Ovs_ofproto.Pipeline

type outcome = Matched of { rule : int; priority : int } | Missed

type dep = { dep_table : int; dep_outcome : outcome }
(** One table consulted during translation: which rule matched there
    (by process-global rule id), or a miss. *)

type sweep_stats = {
  sw_rules_added : int;
  sw_rules_removed : int;
  sw_dirty : int;  (** megaflows marked by the diff *)
  sw_retranslated : int;  (** = sw_dirty: every dirty flow re-translates *)
  sw_evicted : int;  (** re-translation changed actions or mask *)
}

type stats = {
  st_flows : int;  (** megaflows currently tracked *)
  st_sweeps : int;
  st_rules_added : int;
  st_rules_removed : int;
  st_dirty : int;
  st_retranslated : int;
  st_evicted : int;
}

(* Megaflows are keyed by (mask, masked key): the same identity dpcls
   uses, so the datapath can address entries it installed. *)
type mfid = FK.t * FK.t

(* The polymorphic hash samples only the first few words of a value —
   and megaflows from one pipeline are identical in the leading key
   fields, differing only late in the array (addresses, ports, ct
   state). Every mfid table must hash the whole key or it degenerates
   into one bucket and every operation goes linear in the flow count. *)
module Mfid_tbl = Hashtbl.Make (struct
  type t = mfid

  let equal (m1, k1) (m2, k2) = FK.equal m1 m2 && FK.equal k1 k2
  let hash (m, k) = Hashtbl.hash_param 256 256 (m, k)
end)

type 'a entry = {
  e_id : mfid;
  e_mask : FK.t;
  e_key : FK.t;  (** a full packet key that translates to this megaflow *)
  mutable e_actions : 'a;
  mutable e_deps : dep list;
  mutable e_dirty : bool;  (** already in the current sweep's dirty set *)
}

type rule = Ovs_ofproto.Action.t list Table.rule

(* One table as the last sweep saw it. Rules are immutable apart from
   their hit counters, so the snapshot holds them directly. *)
type baseline = {
  b_version : int;  (** the table's {!Table.version} when taken *)
  b_rules : rule array;  (** sorted by id *)
  b_profile : (FK.t * int) list;  (** {!Table.profile} *)
}

type 'a t = {
  pipeline : Pipeline.t;
  entries : 'a entry Mfid_tbl.t;
  by_rule : (int, 'a entry Mfid_tbl.t) Hashtbl.t;
      (** rule id -> megaflows that matched it *)
  by_table : (int, 'a entry Mfid_tbl.t) Hashtbl.t;
      (** table id -> megaflows whose translation visited it *)
  mutable baselines : baseline array;  (** per table, at the last sweep *)
  mutable sweeps : int;
  mutable tot_added : int;
  mutable tot_removed : int;
  mutable tot_dirty : int;
  mutable tot_retranslated : int;
  mutable tot_evicted : int;
}

(* rule ids are monotone and unique, so sorting by id gives a canonical
   order for the diff *)
let snapshot tbl =
  let rules = ref [] in
  Table.iter tbl (fun r -> rules := r :: !rules);
  let a = Array.of_list !rules in
  Array.sort (fun (a : rule) (b : rule) -> Int.compare a.Table.id b.Table.id) a;
  { b_version = Table.version tbl; b_rules = a; b_profile = Table.profile tbl }

let snapshot_all (p : Pipeline.t) = Array.map snapshot p.Pipeline.tables

let create ~pipeline () =
  {
    pipeline;
    entries = Mfid_tbl.create 4096;
    by_rule = Hashtbl.create 1024;
    by_table = Hashtbl.create 64;
    baselines = snapshot_all pipeline;
    sweeps = 0;
    tot_added = 0;
    tot_removed = 0;
    tot_dirty = 0;
    tot_retranslated = 0;
    tot_evicted = 0;
  }

let flows t = Mfid_tbl.length t.entries

let stats t =
  {
    st_flows = flows t;
    st_sweeps = t.sweeps;
    st_rules_added = t.tot_added;
    st_rules_removed = t.tot_removed;
    st_dirty = t.tot_dirty;
    st_retranslated = t.tot_retranslated;
    st_evicted = t.tot_evicted;
  }

let index tbl key e =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Mfid_tbl.create 8 in
        Hashtbl.replace tbl key s;
        s
  in
  Mfid_tbl.replace set e.e_id e

let unindex tbl key id =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some s ->
      Mfid_tbl.remove s id;
      if Mfid_tbl.length s = 0 then Hashtbl.remove tbl key

let index_deps t e =
  List.iter
    (fun d ->
      index t.by_table d.dep_table e;
      match d.dep_outcome with
      | Matched { rule; _ } -> index t.by_rule rule e
      | Missed -> ())
    e.e_deps

let unindex_deps t e =
  List.iter
    (fun d ->
      unindex t.by_table d.dep_table e.e_id;
      match d.dep_outcome with
      | Matched { rule; _ } -> unindex t.by_rule rule e.e_id
      | Missed -> ())
    e.e_deps

let mfid_of ~mask ~key : mfid = (FK.copy mask, FK.apply_mask key mask)

let remove_entry t id =
  match Mfid_tbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      unindex_deps t e;
      Mfid_tbl.remove t.entries id

(** Start (or refresh) tracking a megaflow the datapath installed:
    [key] is the full packet key it was translated from, [deps] the
    dependency set collected during that translation. *)
let record t ~mask ~key ~actions deps =
  let id = mfid_of ~mask ~key in
  remove_entry t id;
  let e =
    {
      e_id = id;
      e_mask = fst id;
      e_key = FK.copy key;
      e_actions = actions;
      e_deps = deps;
      e_dirty = false;
    }
  in
  Mfid_tbl.replace t.entries id e;
  index_deps t e

(** Stop tracking a megaflow (the datapath evicted it for its own
    reasons: flush, table pressure, fault). *)
let forget t ~mask ~key = remove_entry t (mfid_of ~mask ~key)

let clear t =
  Mfid_tbl.reset t.entries;
  Hashtbl.reset t.by_rule;
  Hashtbl.reset t.by_table;
  t.baselines <- snapshot_all t.pipeline

(* Do the match cube of [m] and the megaflow cube (mask, masked key)
   intersect? Per field: both constrain some bits; they are disjoint
   exactly when a commonly-constrained bit differs. *)
let cube_overlap (m : Match_.t) ~(mask : FK.t) ~(key : FK.t) =
  let mk = m.Match_.key and mm = m.Match_.mask in
  let rec go i =
    i >= FK.Field.count
    ||
    let common = mm.(i) land mask.(i) in
    mk.(i) land common = key.(i) land common && go (i + 1)
  in
  go 0

(* The lowest priority an add to table [tid] needs to steal this
   megaflow's lookup there: any add can steal a miss, a strictly
   lower-priority add cannot steal a match. [max_int] when the
   translation never visited [tid]. *)
let rec steal_priority tid = function
  | [] -> max_int
  | d :: rest ->
      if d.dep_table <> tid then steal_priority tid rest
      else (
        match d.dep_outcome with
        | Missed -> min_int
        | Matched { priority; _ } -> priority)

(* A table's adds that share one rule mask. A rule cube and a megaflow
   cube overlap exactly when they agree on the bits both constrain, so
   hashing the adds on (rule mask AND megaflow mask) leaves one bucket
   that can hold adds overlapping a given megaflow. One such index is
   built per distinct common mask, on first use. *)
type probe = { p_common : FK.t; p_adds : (int, rule list) Hashtbl.t }
type group = {
  g_mask : FK.t;
  g_adds : rule list;
  mutable g_probes : probe list;
}

let group_adds (adds : rule list) =
  List.fold_left
    (fun groups (r : rule) ->
      let mask = r.Table.match_.Match_.mask in
      let rec go = function
        | [] -> [ { g_mask = mask; g_adds = [ r ]; g_probes = [] } ]
        | g :: rest when FK.equal g.g_mask mask ->
            { g with g_adds = r :: g.g_adds } :: rest
        | g :: rest -> g :: go rest
      in
      go groups)
    [] adds

let is_common common ~(rule_mask : FK.t) ~(mf_mask : FK.t) =
  let rec go i =
    i >= FK.Field.count
    || (common.(i) = rule_mask.(i) land mf_mask.(i) && go (i + 1))
  in
  go 0

let probe_for g mf_mask =
  let rec find = function
    | p :: rest ->
        if is_common p.p_common ~rule_mask:g.g_mask ~mf_mask then p
        else find rest
    | [] ->
        let common =
          Array.init FK.Field.count (fun i -> g.g_mask.(i) land mf_mask.(i))
        in
        let p_adds = Hashtbl.create 16 in
        List.iter
          (fun (r : rule) ->
            let h = FK.hash_masked r.Table.match_.Match_.key common in
            let bucket = Option.value (Hashtbl.find_opt p_adds h) ~default:[] in
            Hashtbl.replace p_adds h (r :: bucket))
          g.g_adds;
        let p = { p_common = common; p_adds } in
        g.g_probes <- p :: g.g_probes;
        p
  in
  find g.g_probes

(* Could one of these adds change entry [e]'s translation? Only if it
   reaches [steal] and overlaps the megaflow's cube. *)
let rec any_steals e steal = function
  | [] -> false
  | (r : rule) :: rest ->
      (r.Table.priority >= steal
      && cube_overlap r.Table.match_ ~mask:e.e_mask ~key:e.e_key)
      || any_steals e steal rest

let rec adds_affect e steal = function
  | [] -> false
  | g :: groups ->
      let p = probe_for g e.e_mask in
      (match Hashtbl.find p.p_adds (FK.hash_masked e.e_key p.p_common) with
      | rules -> any_steals e steal rules
      | exception Not_found -> false)
      || adds_affect e steal groups

(* The max priorities of subtables whose existence or max priority
   changed between two profiles. Any such change can grow or shrink
   the set of subtables a lookup probes — e.g. deleting the last rule
   of a mask drops the subtable and *widens* every fresh translation's
   mask — so megaflows whose matched priority is reachable from one of
   these must be re-translated even though their matched rule is
   untouched. Subtable counts are small; assoc lists with FK.equal
   keys are fine. *)
let profile_changes po pn =
  let changed = ref [] in
  List.iter
    (fun (mask, p) ->
      match List.find_opt (fun (m, _) -> FK.equal m mask) pn with
      | Some (_, p') when p' = p -> ()
      | Some (_, p') -> changed := Int.max p p' :: !changed
      | None -> changed := p :: !changed)
    po;
  List.iter
    (fun (mask, p) ->
      if not (List.exists (fun (m, _) -> FK.equal m mask) po) then
        changed := p :: !changed)
    pn;
  !changed

(* Diff two id-sorted rule arrays into removed ids and added rules. A
   modify surfaces as remove+add because ids are never reused. *)
let diff_rules (o : rule array) (n : rule array) =
  let removed = ref [] and added = ref [] in
  let lo = Array.length o and ln = Array.length n in
  let rec go i j =
    if i < lo && (j >= ln || o.(i).Table.id < n.(j).Table.id) then begin
      removed := o.(i).Table.id :: !removed;
      go (i + 1) j
    end
    else if j < ln && (i >= lo || n.(j).Table.id < o.(i).Table.id) then begin
      added := n.(j) :: !added;
      go i (j + 1)
    end
    else if i < lo then go (i + 1) (j + 1)
  in
  go 0 0;
  (!removed, !added)

(** One revalidation pass. Each table whose version moved since the
    previous pass is diffed against its snapshot from then; dirty
    megaflows are marked and re-translated: [translate key] must return
    the fresh (actions, megaflow mask, dependency set) for a packet key;
    when the result no longer matches what was recorded, [evict] is
    called (the datapath removes the megaflow and invalidates caches
    there) and the entry is dropped. Work grows with the rules of the
    changed tables, plus one probe per added rule mask for each visitor
    of a table that gained rules, plus the dirty set — never with the
    tracked megaflows as a whole. *)
let sweep t ~translate ~evict : sweep_stats =
  let n_added = ref 0 and n_removed = ref 0 in
  let dirty = ref [] in
  let mark e =
    if not e.e_dirty then begin
      e.e_dirty <- true;
      dirty := e :: !dirty
    end
  in
  let visitors tid f =
    match Hashtbl.find_opt t.by_table tid with
    | None -> ()
    | Some set -> Mfid_tbl.iter (fun _ e -> if not e.e_dirty then f e) set
  in
  Array.iteri
    (fun tid tbl ->
      let old = t.baselines.(tid) in
      if Table.version tbl <> old.b_version then begin
        let fresh = snapshot tbl in
        t.baselines.(tid) <- fresh;
        let removed, added = diff_rules old.b_rules fresh.b_rules in
        n_removed := !n_removed + List.length removed;
        n_added := !n_added + List.length added;
        List.iter
          (fun rid ->
            match Hashtbl.find_opt t.by_rule rid with
            | None -> ()
            | Some set -> Mfid_tbl.iter (fun _ e -> mark e) set)
          removed;
        (match group_adds added with
        | [] -> ()
        | groups ->
            visitors tid (fun e ->
                if adds_affect e (steal_priority tid e.e_deps) groups then
                  mark e));
        (* subtable landscape changes alter which masks a lookup ORs
           into the megaflow even when the matched rule survives *)
        match profile_changes old.b_profile fresh.b_profile with
        | [] -> ()
        | thresholds ->
            visitors tid (fun e ->
                let reach = steal_priority tid e.e_deps in
                if List.exists (fun th -> th >= reach) thresholds then mark e)
      end)
    t.pipeline.Pipeline.tables;
  let dirty = List.rev !dirty in
  let n_dirty = List.length dirty in
  let n_evicted = ref 0 in
  List.iter
    (fun e ->
      e.e_dirty <- false;
      let actions', mask', deps' = translate e.e_key in
      if e.e_actions <> actions' || not (FK.equal e.e_mask mask') then begin
        evict ~mask:e.e_mask ~key:e.e_key;
        remove_entry t e.e_id;
        incr n_evicted
      end
      else if deps' <> e.e_deps then begin
        unindex_deps t e;
        e.e_deps <- deps';
        index_deps t e
      end)
    dirty;
  t.sweeps <- t.sweeps + 1;
  t.tot_added <- t.tot_added + !n_added;
  t.tot_removed <- t.tot_removed + !n_removed;
  t.tot_dirty <- t.tot_dirty + n_dirty;
  t.tot_retranslated <- t.tot_retranslated + n_dirty;
  t.tot_evicted <- t.tot_evicted + !n_evicted;
  {
    sw_rules_added = !n_added;
    sw_rules_removed = !n_removed;
    sw_dirty = n_dirty;
    sw_retranslated = n_dirty;
    sw_evicted = !n_evicted;
  }

(** Render the cumulative counters (the dpif/revalidator-show body). *)
let render t add =
  let s = stats t in
  add (Printf.sprintf "  megaflows tracked: %d" s.st_flows);
  add (Printf.sprintf "  sweeps: %d" s.st_sweeps);
  add
    (Printf.sprintf "  rules added: %d, removed: %d (diffed against snapshot)"
       s.st_rules_added s.st_rules_removed);
  add
    (Printf.sprintf "  dirty: %d, re-translated: %d, evicted: %d" s.st_dirty
       s.st_retranslated s.st_evicted)
