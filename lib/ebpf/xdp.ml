(** The XDP hook: program attachment and costed execution.

    A hook owns a verified program plus a reusable VM, and reports the
    virtual-time cost of each run from the VM's execution statistics — the
    sandbox interpretation overhead that makes Table 5's ladder and the
    eBPF datapath's 10-20% penalty (Fig 2). *)

type t = {
  name : string;
  prog : Insn.t array;
  prog_id : int;  (** registration id, installable into a prog_array *)
  vm : Vm.t;
  mutable runs : int;
  mutable total_insns : int;
}

(** Verify and attach a program. Returns [Error] with the verifier's
    diagnosis when the program is rejected, exactly like the kernel would
    at load time (Fig 4's workflow). *)
let load ~name prog : (t, Verifier.error) result =
  match Verifier.verify prog with
  | Error e -> Error e
  | Ok () ->
      Ok
        { name; prog; prog_id = Vm.register_program prog; vm = Vm.create ();
          runs = 0; total_insns = 0 }

let load_exn ~name prog =
  match load ~name prog with
  | Ok t -> t
  | Error e -> Fmt.failwith "XDP load of %s rejected: %a" name Verifier.pp_error e

(** Run the program on a packet. Returns the XDP action and the virtual
    time the execution cost under [costs]. *)
let run t (costs : Ovs_sim.Costs.t) (pkt : Ovs_packet.Buffer.t) :
    Vm.action * Ovs_sim.Time.ns =
  let action = Vm.execute t.vm t.prog pkt in
  let s = Vm.last_stats t.vm in
  t.runs <- t.runs + 1;
  t.total_insns <- t.total_insns + s.Vm.insns;
  let cost =
    costs.Ovs_sim.Costs.xdp_prog_overhead
    +. (float_of_int s.Vm.insns *. costs.Ovs_sim.Costs.ebpf_insn)
    +. (float_of_int s.Vm.helper_calls *. costs.Ovs_sim.Costs.ebpf_helper)
    +. (float_of_int s.Vm.map_lookups *. costs.Ovs_sim.Costs.ebpf_map_lookup)
    (* touching freshly DMA'd packet bytes costs one cache miss *)
    +. (if s.Vm.pkt_loads > 0 then costs.Ovs_sim.Costs.cache_miss else 0.)
  in
  (action, cost)

(** Install this program into a [Prog_array] slot so other programs can
    tail-call it. *)
let install_in_prog_array t (arr : Maps.t) ~slot =
  ignore (Maps.update arr (Int64.of_int slot) (Int64.of_int t.prog_id))

let instruction_count t = Array.length t.prog

let mean_insns_per_run t =
  if t.runs = 0 then 0. else float_of_int t.total_insns /. float_of_int t.runs
