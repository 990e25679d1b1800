(* Tests for incremental megaflow revalidation (lib/revalidator): the
   cube-overlap predicate, the work-proportional-to-churn guarantee, and
   the QCheck property that the incremental sweep evicts exactly what the
   flush-all oracle would under random rule churn. *)

module Dpif = Ovs_datapath.Dpif
module Reval = Ovs_revalidator.Revalidator
module Pipeline = Ovs_ofproto.Pipeline
module Match_ = Ovs_ofproto.Match_
module Action = Ovs_ofproto.Action
module Netdev = Ovs_netdev.Netdev
module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build

let charge _ _ = ()

(* -- cube_overlap -- *)

(* a megaflow cube from a mask and a (pre-masking) key *)
let cube fields key_fields =
  let mask = FK.create () and key = FK.create () in
  List.iter (fun f -> FK.set mask f (FK.Field.full_mask f)) fields;
  List.iter (fun (f, v) -> FK.set key f v) key_fields;
  (mask, FK.apply_mask key mask)

let test_cube_overlap () =
  let m_dst ip = Match_.with_field (Match_.catchall ()) FK.Field.Nw_dst ip in
  (* rule constrains Nw_dst, megaflow doesn't: no commonly-constrained
     bit can differ, so the cubes intersect *)
  let mask, key = cube [ FK.Field.In_port ] [ (FK.Field.In_port, 3) ] in
  Alcotest.(check bool) "disjoint fields overlap" true
    (Reval.cube_overlap (m_dst 0x0A000001) ~mask ~key);
  (* both constrain Nw_dst and agree *)
  let mask, key =
    cube [ FK.Field.Nw_dst ] [ (FK.Field.Nw_dst, 0x0A000001) ]
  in
  Alcotest.(check bool) "same value overlaps" true
    (Reval.cube_overlap (m_dst 0x0A000001) ~mask ~key);
  (* both constrain Nw_dst and differ in a common bit *)
  Alcotest.(check bool) "different value disjoint" false
    (Reval.cube_overlap (m_dst 0x0A000002) ~mask ~key);
  (* a /24 rule against a /32 megaflow inside (and outside) the prefix *)
  let rule24 =
    Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_dst 0x0A000000 24
  in
  Alcotest.(check bool) "inside prefix overlaps" true
    (Reval.cube_overlap rule24 ~mask ~key);
  let mask, key =
    cube [ FK.Field.Nw_dst ] [ (FK.Field.Nw_dst, 0x0A000101) ]
  in
  Alcotest.(check bool) "outside prefix disjoint" false
    (Reval.cube_overlap rule24 ~mask ~key)

(* -- work proportional to churn, not table size -- *)

let test_no_churn_no_work () =
  let pipeline = Pipeline.create ~n_tables:1 () in
  Pipeline.add_flow pipeline ~priority:0 (Match_.catchall ())
    [ Action.Output 1 ];
  let rv : int Reval.t = Reval.create ~pipeline () in
  for i = 0 to 99 do
    let mask = FK.create () and key = FK.create () in
    FK.set mask FK.Field.Nw_src (FK.Field.full_mask FK.Field.Nw_src);
    FK.set key FK.Field.Nw_src (0x0A000000 + i);
    Reval.record rv ~mask ~key ~actions:i
      [ { Reval.dep_table = 0; dep_outcome = Reval.Missed } ]
  done;
  (* no rules changed: the sweep must not re-translate (or even look at)
     any of the 100 tracked megaflows *)
  let s =
    Reval.sweep rv
      ~translate:(fun _ -> Alcotest.fail "translated with zero churn")
      ~evict:(fun ~mask:_ ~key:_ -> Alcotest.fail "evicted with zero churn")
  in
  Alcotest.(check int) "no adds" 0 s.Reval.sw_rules_added;
  Alcotest.(check int) "no dirty" 0 s.Reval.sw_dirty;
  Alcotest.(check int) "tracked intact" 100 (Reval.flows rv)

(* -- untouched tables cost nothing, and the add test stays exact -- *)

let nw_src_rule ip = Match_.with_field (Match_.catchall ()) FK.Field.Nw_src ip

(* Minor words of one sweep after 10 deletes and 10 adds on table 0,
   with [others] rules spread over tables 1 and 2 that the churn never
   touches. 100 tracked megaflows visit table 0; none of the churned
   rules overlaps them, so nothing is re-translated. *)
let sweep_words ~others =
  let pipeline = Pipeline.create ~n_tables:3 () in
  for i = 0 to others - 1 do
    let m =
      if i land 1 = 0 then nw_src_rule (0x0B000000 + i)
      else Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst i
    in
    Pipeline.add_flow pipeline ~table:(1 + (i land 1)) ~priority:5 m
      [ Action.Output 1 ]
  done;
  let old_rule i = nw_src_rule (0x0A000000 + i) in
  for i = 0 to 9 do
    Pipeline.add_flow pipeline ~priority:10 (old_rule i) [ Action.Output 1 ]
  done;
  let rv : int Reval.t = Reval.create ~pipeline () in
  for i = 0 to 99 do
    let mask, key =
      cube [ FK.Field.Nw_src ] [ (FK.Field.Nw_src, 0x0A000100 + i) ]
    in
    Reval.record rv ~mask ~key ~actions:i
      [ { Reval.dep_table = 0; dep_outcome = Reval.Missed } ]
  done;
  for i = 0 to 9 do
    ignore (Pipeline.del_flows ~table:0 pipeline (old_rule i));
    Pipeline.add_flow pipeline ~priority:10
      (nw_src_rule (0x0A000200 + i))
      [ Action.Output 1 ]
  done;
  let w0 = Gc.minor_words () in
  let s =
    Reval.sweep rv
      ~translate:(fun _ -> Alcotest.fail "translated a disjoint megaflow")
      ~evict:(fun ~mask:_ ~key:_ -> Alcotest.fail "evicted")
  in
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "adds seen" 10 s.Reval.sw_rules_added;
  Alcotest.(check int) "deletes seen" 10 s.Reval.sw_rules_removed;
  w

let test_sweep_ignores_untouched_tables () =
  let small = sweep_words ~others:1_000 in
  let large = sweep_words ~others:10_000 in
  if large > 1.05 *. small then
    Alcotest.failf
      "sweep allocated %.0f words beside 1k untouched rules, %.0f beside 10k"
      small large

(* Megaflows under three masks, adds under four rule masks (so several
   common masks get an index), some megaflows matched at a priority the
   adds cannot reach. Exactly the visitors that some add overlaps at a
   stealing priority are re-translated; the rest never reach [translate]. *)
let test_sweep_add_precision () =
  let pipeline = Pipeline.create ~n_tables:2 () in
  (* one rule per add mask, above every add and overlapping no megaflow,
     so the adds leave table 1's subtable profile unchanged *)
  List.iter
    (fun m -> Pipeline.add_flow pipeline ~table:1 ~priority:400 m [])
    [
      nw_src_rule 0x0C000000;
      Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 9;
      Match_.with_field (nw_src_rule 0x0C000000) FK.Field.Tp_dst 9;
      Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_src 0x0C000000 30;
    ];
  let rv : int Reval.t = Reval.create ~pipeline () in
  let flows = ref [] in
  for i = 0 to 47 do
    let j = i / 3 in
    let src = 0x0A000000 + j in
    let dport, fields =
      match i mod 3 with
      | 0 -> (0, [ FK.Field.Nw_src ])
      | 1 -> (2000 + j, [ FK.Field.Tp_dst ])
      | _ -> (2000 + (j mod 5), [ FK.Field.Nw_src; FK.Field.Tp_dst ])
    in
    let mask, key =
      cube fields [ (FK.Field.Nw_src, src); (FK.Field.Tp_dst, dport) ]
    in
    let outcome =
      if i mod 4 = 0 then Reval.Matched { rule = -1; priority = 100 }
      else Reval.Missed
    in
    let deps =
      [ { Reval.dep_table = 0; dep_outcome = Reval.Missed };
        { Reval.dep_table = 1; dep_outcome = outcome } ]
    in
    Reval.record rv ~mask ~key ~actions:i deps;
    flows := (mask, key, i, deps) :: !flows
  done;
  let adds =
    [
      (nw_src_rule 0x0A000003, 50);
      (nw_src_rule 0x0A000007, 150);
      (Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 2001, 60);
      ( Match_.with_field (nw_src_rule 0x0A000005) FK.Field.Tp_dst 2004,
        200 );
      ( Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_src 0x0A000008 30,
        70 );
      (nw_src_rule 0x0A0000FF, 300);
    ]
  in
  List.iter
    (fun (m, priority) ->
      Pipeline.add_flow pipeline ~table:1 ~priority m [ Action.Output 1 ])
    adds;
  let steal = function
    | Reval.Missed -> min_int
    | Reval.Matched { priority; _ } -> priority
  in
  let expected =
    List.filter_map
      (fun (mask, key, i, deps) ->
        let d = List.nth deps 1 in
        if
          List.exists
            (fun (m, p) ->
              p >= steal d.Reval.dep_outcome && Reval.cube_overlap m ~mask ~key)
            adds
        then Some i
        else None)
      !flows
  in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (mask, key, i, deps) -> Hashtbl.replace by_key key (i, mask, deps))
    !flows;
  let translated = ref [] in
  let s =
    Reval.sweep rv
      ~translate:(fun key ->
        let i, mask, deps = Hashtbl.find by_key key in
        translated := i :: !translated;
        (i, mask, deps))
      ~evict:(fun ~mask:_ ~key:_ -> Alcotest.fail "evicted")
  in
  Alcotest.(check bool) "some visitors dirty, some not" true
    (expected <> [] && List.length expected < List.length !flows);
  Alcotest.(check (list int))
    "re-translated = overlapping at a stealing priority"
    (List.sort compare expected)
    (List.sort compare !translated);
  Alcotest.(check int) "dirty count" (List.length expected) s.Reval.sw_dirty

(* -- incremental == flush-all oracle under random churn -- *)

(* A small universe keeps rule/traffic collisions frequent: 8 source
   addresses on one /24, 4 destination ports, rules that match subsets of
   either, half of them drops. Every round mutates the rule set and then
   proves Dpif.revalidate_check sees zero divergence between the
   incremental sweep and the flush-all re-translation. *)
let prop_incremental_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"incremental sweep == flush-all oracle"
    QCheck.(list_of_size Gen.(int_range 8 24) (int_range 0 9999))
    (fun ops ->
      let pipeline = Pipeline.create ~n_tables:1 () in
      Pipeline.add_flow pipeline ~priority:0 (Match_.catchall ())
        [ Action.Output 1 ];
      let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
      ignore (Dpif.add_port dp (Netdev.create ~name:"ra" ()));
      ignore (Dpif.add_port dp (Netdev.create ~name:"rb" ()));
      Dpif.set_revalidator_enabled dp true;
      let inject r =
        let p =
          B.udp
            ~src_ip:(0x0A000100 + (r mod 8))
            ~dst_ip:0x0A000001 ~src_port:5000
            ~dst_port:(2000 + (r / 8 mod 4))
            ()
        in
        p.Ovs_packet.Buffer.in_port <- 0;
        Dpif.process dp charge p
      in
      (* seed some megaflows before any churn *)
      List.iteri (fun i r -> if i < 6 then inject r) ops;
      let specs = ref [] in
      let ok = ref true in
      List.iter
        (fun r ->
          (match r mod 3 with
          | 0 ->
              (* add a rule on a random slice of the universe *)
              let m =
                if r land 1 = 0 then
                  Match_.with_field (Match_.catchall ()) FK.Field.Nw_src
                    (0x0A000100 + (r / 16 mod 8))
                else
                  Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst
                    (2000 + (r / 16 mod 4))
              in
              let actions = if r land 2 = 0 then [ Action.Output 1 ] else [] in
              Pipeline.add_flow pipeline ~priority:(1 + (r mod 200)) m actions;
              specs := m :: !specs
          | 1 -> (
              (* delete a previously-added rule, if any *)
              match !specs with
              | [] -> ()
              | m :: rest ->
                  specs := rest;
                  ignore (Pipeline.del_flows pipeline m))
          | _ -> inject r);
          let _full, _incr, divergences = Dpif.revalidate_check dp in
          ok := !ok && divergences = 0;
          (* refresh the cache population so later churn has megaflows
             translated under the mutated rule set *)
          inject (r * 7))
        ops;
      !ok)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_revalidator"
    [
      ( "unit",
        [
          Alcotest.test_case "cube_overlap" `Quick test_cube_overlap;
          Alcotest.test_case "zero churn, zero work" `Quick test_no_churn_no_work;
          Alcotest.test_case "untouched tables cost nothing" `Quick
            test_sweep_ignores_untouched_tables;
          Alcotest.test_case "add dirtying is exact" `Quick
            test_sweep_add_precision;
        ] );
      ("oracle", qcheck [ prop_incremental_matches_oracle ]);
    ]
