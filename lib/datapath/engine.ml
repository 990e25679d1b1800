(** The readout every execution engine reports: {e how} the PMD
    dataplane runs is separated from {e what} it runs.

    Two engines share this readout:
    - {!Engine_vt} — the virtual-time scheduler the simulator has always
      used: one OS thread, per-context charged nanoseconds, deterministic
      to the byte. The schedule explorer ([lib/mc]) builds on its private
      step API.
    - {!Engine_domains} — real parallelism: each PMD context is an OCaml
      [Domain.t], rings carry [Atomic.t] SPSC cursors, the umempool takes
      a real [Mutex.t], and throughput is wall-clock Mpps. *)

(** Per-execution-unit load readout: a PMD context's (or domain's) share
    of the work. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ({!Engine_vt}) or measured wall ns
          ({!Engine_domains}) *)
}

type stats = {
  s_engine : string;  (** implementation name, e.g. "vt" / "domains" *)
  s_units : int;  (** parallel execution units carrying the pmd leg *)
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) for {!Engine_vt}; real
          elapsed wall-clock for {!Engine_domains} *)
  s_mpps : float;  (** delivered over [s_wall_ns] *)
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under {!Engine_vt}, wall ns under
          {!Engine_domains}; per-domain sketches are merged into one on
          stop) *)
}

let mpps ~delivered ~wall_ns =
  if wall_ns <= 0. then 0. else float_of_int delivered /. wall_ns *. 1e3
