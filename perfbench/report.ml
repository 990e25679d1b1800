(* What one run reports: the end-to-end metrics (the timed run), the
   per-layer metrics (the traced run), the correctness checks and the
   operation counts, plus human-readable lines. *)

type metric = { name : string; value : float; unit_ : string; note : string }

type t = {
  mutable e2e : metric list;
  mutable layer : metric list;
  mutable checks : (string * bool * string) list;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { e2e = []; layer = []; checks = []; attempted = 0; failed = 0 }

let finite v = if Float.is_finite v then v else 0.

let e2e ?(note = "") r name unit_ value =
  r.e2e <- { name; value = finite value; unit_; note } :: r.e2e

(* every per-layer metric, in report order, with its unit: the one list
   the workloads report against; a layer a workload never calls reads 0
   there *)
let layer_units =
  [ ("netdev.enqueue_ns_per_pkt", "ns"); ("engine_vt.step_ns_per_pkt", "ns");
    ("engine_vt.words_per_pkt", "words"); ("engine_vt.idle_step_share", "share");
    ("dpif.hit_ns_p50", "ns"); ("dpif.upcall_us_p50", "us");
    ("dpif.upcall_us_p99", "us"); ("dpif.words_per_hit", "words");
    ("dpif.words_per_upcall", "words"); ("conntrack.conns", "count");
    ("flow.emc_hit_ratio", "share"); ("flow.smc_hit_ratio", "share");
    ("flow.dpcls_hit_ratio", "share"); ("flow.upcalls_per_pkt", "share");
    ("flow.passes_per_pkt", "count"); ("flow.megaflows", "count");
    ("flow.subtables", "count"); ("flow.mean_probes", "count");
    ("ofconn.feed_us_per_flowmod", "us"); ("ofconn.errors", "count");
    ("revalidator.sweep_ms_p50", "ms"); ("revalidator.dirty_per_round", "count");
    ("revalidator.retranslated_per_round", "count");
    ("revalidator.useful_ratio", "share");
    ("revalidator.words_per_sweep", "words"); ("setup.install_s", "s");
    ("setup.warmup_s", "s"); ("gc.pause_share", "share");
    ("gc.major_per_mpkt", "count"); ("gc.minor_per_mpkt", "count");
    ("trafficgen.ns_per_pkt", "ns"); ("trafficgen.share", "share");
    ("ofp_codec.encode_us_per_flowmod", "us"); ("trace.overhead", "share") ]

let layer ?(note = "") r name value =
  match List.assoc_opt name layer_units with
  | Some unit_ -> r.layer <- { name; value = finite value; unit_; note } :: r.layer
  | None -> invalid_arg ("Report.layer: no per-layer metric " ^ name)

(* order the per-layer set canonically, filling layers not called *)
let fill_layers r =
  let have = r.layer in
  r.layer <-
    List.rev_map
      (fun (n, u) ->
        match List.find_opt (fun m -> m.name = n) have with
        | Some m -> m
        | None -> { name = n; value = 0.; unit_ = u; note = "not called" })
      layer_units

let check r name ok detail = r.checks <- (name, ok, detail) :: r.checks

let ops r ~attempted ~failed =
  r.attempted <- r.attempted + attempted;
  r.failed <- r.failed + failed

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* The end-to-end figures of a timed run: the rate over the windows of
   [ops] and the batch quantiles over the windows of [lat] (the same
   windows unless the workload's operations are not its batches), both
   scaled to the host-speed reference (see Samples.Probe), and
   allocation over every unit. *)
let end_to_end r ~(ops : Samples.Windows.w) ?(lat = ops) ~words ~n_ops
    ~rate_note ~words_note () =
  let module W = Samples.Windows in
  W.close ops;
  W.close lat;
  let rate = W.rate ops in
  let n =
    Printf.sprintf "median over %d windows of %d batches, scaled by %.3f"
      lat.W.windows lat.W.per (W.mean_scale lat)
  in
  e2e r "ops_per_s" "1/s" rate
    ~note:
      (Printf.sprintf "%s; unscaled %.1f, scaled by %.3f" (rate_note rate)
         (W.raw_rate ops) (W.mean_scale ops));
  e2e r "batch_p50_us" "us" (W.latency lat 0.5 /. 1e3) ~note:n;
  e2e r "batch_p99_us" "us" (W.latency lat 0.99 /. 1e3) ~note:n;
  e2e r "minor_words_per_op" "words" (ratio words (float_of_int n_ops))
    ~note:words_note

let correct r = List.for_all (fun (_, ok, _) -> ok) r.checks

let print_metric m =
  Printf.printf "  %-34s %16.4f %-6s%s\n" m.name m.value m.unit_
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

let print_human r ~workload ~trace =
  Printf.printf "workload %s (%s run)\n" workload
    (if trace then "traced" else "timed");
  List.iter print_metric (List.rev (if trace then r.layer else r.e2e));
  Printf.printf "  %-34s %16d\n  %-34s %16d\n  %-34s %16.6f\n" "attempted"
    r.attempted "failed" r.failed "fail_ratio"
    (ratio_i r.failed (Int.max 1 r.attempted));
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "  check %-28s %s  %s\n" name
        (if ok then "ok  " else "FAIL")
        detail)
    (List.rev r.checks)

let json_string s = "\"" ^ String.escaped s ^ "\""

(* the last line of standard output: the machine-read result *)
let print_json r ~trace =
  let ms = List.rev (if trace then r.layer else r.e2e) in
  let metric m =
    Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string m.name)
      m.value (json_string m.unit_)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (correct r) r.attempted r.failed
    (String.concat ", " (List.map metric ms))
