(** The readout every execution engine reports. Two engines run the PMD
    dataplane — {!Engine_vt} (the deterministic virtual-time scheduler;
    the schedule explorer's substrate) and {!Engine_domains} (real
    parallelism on OCaml domains, measured in wall-clock Mpps) — and
    both summarize a run as {!stats}. *)

(** Per-execution-unit load readout. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ({!Engine_vt}) or measured wall ns
          ({!Engine_domains}) *)
}

type stats = {
  s_engine : string;
  s_units : int;
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) for {!Engine_vt}; real
          elapsed wall-clock for {!Engine_domains} *)
  s_mpps : float;
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under {!Engine_vt}, wall ns under
          {!Engine_domains}; per-domain sketches are merged into one on
          stop) *)
}

val mpps : delivered:int -> wall_ns:float -> float
(** Delivered packets over nanoseconds, in millions per second. *)
