(** The virtual-time execution engine: the deterministic single-thread
    scheduler. One {!step} is the pre-redesign poll sweep, charging
    byte-identical virtual nanoseconds (pinned by the determinism test).
    The schedule explorer's private fine-grained step access lives
    here. *)

type t

val create :
  dp:Dpif.t ->
  machine:Ovs_sim.Cpu.t ->
  softirq:Ovs_sim.Cpu.ctx array ->
  legacy:Ovs_sim.Cpu.ctx array ->
  rt:Pmd.t option ->
  port_no:int ->
  queues:int ->
  unit ->
  t
(** [legacy] holds the one-context-per-queue loop's contexts (used when
    [rt] is [None]); with [rt] set, steps go through the poll-mode
    runtime. *)

val runtime : t -> Pmd.t option
(** The poll-mode runtime behind this engine, if any — for introspection
    (reports, health monitoring), not for driving steps. *)

val note_offered : t -> int -> unit
(** Record packets the traffic rig offered, for the stats readout. *)

val step : t -> int
(** One poll sweep over the pmd leg; returns the packets polled. *)

val stats : t -> Engine.stats

(** {1 Schedule-explorer access}

    Single-PMD single-phase steps for interleaving enumeration — the
    explorer's private API. Ordinary callers call {!step}.
    @raise Invalid_argument on a legacy-loop engine (no PMD runtime). *)

val step_poll : t -> Pmd.pmd -> Pmd.rxq -> int
val step_retry : t -> Pmd.pmd -> unit
val step_drain : t -> Pmd.pmd -> unit
val handle_crashes : t -> unit
