(* The wall-clock benchmark. One invocation runs one workload:

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   It builds the workload's rig several times (the median is setup_s),
   runs the reproduction pin on the first build, measures the last one
   for [seconds] of closed-loop work, checks the outputs, prints the
   metrics by name with units, and ends with one JSON line. --trace 0
   reports the end-to-end metrics of an untraced run; --trace 1
   alternates untraced and traced windows and reports the per-layer
   metrics and the tracing overhead. Exit status 1 on a failed check. *)

module type WORKLOAD = sig
  type rig

  val name : string
  val setups : int
  val pin_seed : int
  val pin_vns : float

  val setup : seed:int -> rig * float * float
  (** build and warm a rig: (rig, install seconds, warm-up seconds) *)

  val pin : rig -> float
  (** charged virtual ns of the fixed pin pass *)

  val run :
    Report.t -> rig -> tr:Span.t -> trace:bool -> seconds:float ->
    Span.Alternate.w
end

let workloads : (module WORKLOAD) list =
  [ (module P2p); (module Nsx.Dfw_miss); (module Nsx.Rule_churn) ]

let out_dir = Filename.concat "perfbench" "out"

let usage () =
  prerr_endline
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  prerr_endline
    ("workloads: "
    ^ String.concat ", "
        (List.map (fun (module W : WORKLOAD) -> W.name) workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let (module W : WORKLOAD) =
    match
      List.find_opt (fun (module W : WORKLOAD) -> W.name = !workload) workloads
    with
    | Some w -> w
    | None -> usage ()
  in
  let rep = Report.create () in
  let setup_s = Samples.create ()
  and install_s = Samples.create ()
  and warmup_s = Samples.create () in
  (* build [W.setups] rigs, one at a time; the first (pin seed) runs the
     reproduction pin, the last (run seed) is measured *)
  let rec build i =
    Gc.compact ();
    let p0 = Samples.Probe.take () in
    let t0 = Samples.now_ns () in
    let g, inst, warm = W.setup ~seed:(if i = 1 then W.pin_seed else !seed) in
    let t1 = Samples.now_ns () in
    (* scaled like every timed unit, by probes just before and after *)
    let scale = Samples.Probe.scale [ p0; Samples.Probe.take () ] in
    Samples.add setup_s ((t1 -. t0) /. 1e9 *. scale);
    Samples.add install_s (inst *. scale);
    Samples.add warmup_s (warm *. scale);
    if i = 1 then begin
      let vns = W.pin g in
      Report.check rep "virtual_ns_pin" (vns = W.pin_vns)
        (Printf.sprintf "seed %d pass charged %h virtual ns, recorded %h"
           W.pin_seed vns W.pin_vns)
    end;
    if i = W.setups then g else build (i + 1)
  in
  let g = build 1 in
  let tr = if !trace then Span.create () else Span.off in
  if !trace then Span.Pause.start ();
  Samples.heap_reset ();
  let alt = W.run rep g ~tr ~trace:!trace ~seconds:!seconds in
  Samples.heap_mark ();
  Span.Pause.stop ();
  Report.e2e rep "top_heap_mb" "MB" (Samples.heap_peak_mb ())
    ~note:"peak major heap over the timed phase";
  Report.e2e rep "setup_s" "s" (Samples.quantile setup_s 0.5)
    ~note:(Printf.sprintf "median of %d" W.setups);
  (* runtime and rig layers, common to every workload *)
  let tops = float_of_int alt.Span.Alternate.tr_ops in
  Report.layer rep "setup.install_s" (Samples.quantile install_s 0.5);
  Report.layer rep "setup.warmup_s" (Samples.quantile warmup_s 0.5);
  Report.layer rep "gc.pause_share" (Span.Pause.share ());
  Report.layer rep "gc.major_per_mpkt"
    (Report.ratio (float_of_int tr.Span.major_gcs *. 1e6) tops);
  Report.layer rep "gc.minor_per_mpkt"
    (Report.ratio (float_of_int tr.Span.minor_gcs *. 1e6) tops);
  Report.layer rep "trafficgen.share"
    (Report.ratio
       (Span.self_ns tr Span.trafficgen)
       (Span.total_self_ns tr));
  Report.layer rep "trace.overhead" (Span.Alternate.overhead alt);
  Report.fill_layers rep;
  if !trace then begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat out_dir ("spans-" ^ W.name ^ ".csv") in
    Span.write tr path;
    Printf.printf "spans: %d kept (%d beyond the cap) -> %s\n" tr.Span.kept
      tr.Span.dropped path;
    Printf.printf "self time per layer (traced windows):\n";
    let total = Span.total_self_ns tr in
    Array.iteri
      (fun l name ->
        if Span.calls tr l > 0 then
          Printf.printf "  %-12s %10.1f ms %6.2f%% %9d spans %12.0f words\n"
            name
            (Span.self_ns tr l /. 1e6)
            (100. *. Report.ratio (Span.self_ns tr l) total)
            (Span.calls tr l) (Span.self_words tr l))
      Span.layers
  end;
  Report.print_human rep ~workload:W.name ~trace:!trace;
  Report.print_json rep ~trace:!trace;
  if not (Report.correct rep) then exit 1
