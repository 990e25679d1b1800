(** The poll-mode runtime: dedicated PMD threads (Sec 3.2, O1).

    Each PMD is its own {!Ovs_sim.Cpu.ctx} — one busy-polling core — and
    owns a share of a port's receive queues, assigned through
    {!Rxq_sched} exactly like pmd-rxq-assign. A PMD's main loop polls its
    rxqs in round-robin with the datapath's configured batch size; full
    fast-path misses land in a bounded per-PMD upcall queue that the PMD
    drains into the shared slow path after each burst (real dpif-netdev
    PMD threads handle their own upcalls inline, which is why the drain
    charges the PMD's own context — total work is identical to the
    single-context path, so [n_pmds = 1] reproduces its rates).

    Per-PMD counters mirror [ovs-appctl dpif-netdev/pmd-stats-show]: hits
    per cache tier, misses, lost (upcall-queue overflow) and busy cycles;
    {!reports} adds idle time against a wall clock and average
    cycles(ns)-per-packet. The simulation is single-threaded, so the
    runtime attributes the shared {!Dp_core} counter deltas around each
    poll to the polling PMD — per-PMD totals sum to the aggregate by
    construction. *)

module Cpu = Ovs_sim.Cpu
module Coverage = Ovs_sim.Coverage

let cov_poll = Coverage.counter "pmd_poll"
let cov_idle_poll = Coverage.counter "pmd_idle_poll"
let cov_upcall_enqueued = Coverage.counter "pmd_upcall_enqueued"
let cov_rebalance = Coverage.counter "pmd_rxq_rebalance"
let cov_upcall_retried = Coverage.counter "pmd_upcall_retried"
let cov_retry_lost = Coverage.counter "pmd_retry_lost"
let cov_crash = Coverage.counter "pmd_crash"
let cov_restart = Coverage.counter "pmd_restart"

module Faults = Ovs_faults.Faults

(* retry backoff: re-queueing an upcall costs a little PMD time per
   attempt (the thread sleeps/spins before retrying) *)
let retry_backoff_ns = 100.

(** One receive queue as a PMD sees it: identity plus the measured load
    that cycles-based rebalancing sorts on. *)
type rxq = {
  rxq_port : int;
  rxq_queue : int;
  mutable rxq_cycles : Ovs_sim.Time.ns;  (** busy time spent on this rxq *)
  mutable rxq_packets : int;
}

(** pmd-stats-show counters. [miss] is a full fast-path miss that reached
    the slow path; [lost] is an upcall the bounded queue had no room for
    (the packet is dropped, never processed). *)
type stats = {
  mutable rx_packets : int;
  mutable emc_hits : int;
  mutable smc_hits : int;
  mutable megaflow_hits : int;
  mutable miss : int;
  mutable lost : int;
  mutable retried : int;  (** upcalls parked in the retry queue *)
  mutable polls : int;
  mutable idle_polls : int;  (** polls that dequeued nothing *)
}

let fresh_stats () =
  {
    rx_packets = 0;
    emc_hits = 0;
    smc_hits = 0;
    megaflow_hits = 0;
    miss = 0;
    lost = 0;
    retried = 0;
    polls = 0;
    idle_polls = 0;
  }

type pmd = {
  id : int;
  ctx : Cpu.ctx;
  mutable rxqs : rxq list;
  pstats : stats;
  upcalls : (Ovs_packet.Buffer.t * Ovs_packet.Flow_key.t) Queue.t;
  retries : (Ovs_packet.Buffer.t * Ovs_packet.Flow_key.t * int) Queue.t;
      (** upcalls the bounded queue refused, with their attempt count *)
  mutable alive : bool;  (** false between a crash fault and restart *)
  mutable restarts : int;
}

type t = {
  dp : Dpif.t;
  softirq : Cpu.ctx array;  (** kernel-side context per queue *)
  pmds : pmd array;
  port_no : int;
  n_rxqs : int;
  upcall_capacity : int;
  retry_capacity : int;
  max_retries : int;
  batch : int;
}

(* (Re-)claim single-consumer ring ownership to match the assignment. *)
let claim_xsks t =
  match Dpif.xsks t.dp ~port_no:t.port_no with
  | None -> ()
  | Some xsks ->
      Array.iter (fun x -> Ovs_xsk.Xsk.set_owner x ~pmd:(-1)) xsks;
      Array.iter
        (fun p ->
          List.iter
            (fun r ->
              if r.rxq_queue < Array.length xsks then
                Ovs_xsk.Xsk.set_owner xsks.(r.rxq_queue) ~pmd:p.id)
            p.rxqs)
        t.pmds

let apply_assignment t (a : Rxq_sched.assignment) =
  let old_rxqs = Array.make t.n_rxqs None in
  Array.iter
    (fun p ->
      List.iter (fun r -> old_rxqs.(r.rxq_queue) <- Some r) p.rxqs;
      p.rxqs <- [])
    t.pmds;
  for q = t.n_rxqs - 1 downto 0 do
    let r =
      match old_rxqs.(q) with
      | Some r -> r
      | None -> { rxq_port = t.port_no; rxq_queue = q; rxq_cycles = 0.; rxq_packets = 0 }
    in
    let p = t.pmds.(a.Rxq_sched.queue_to_pmd.(q)) in
    p.rxqs <- r :: p.rxqs
  done;
  claim_xsks t

let create ?(upcall_capacity = 512) ?(retry_capacity = 256) ?(max_retries = 3)
    ~dp ~machine ~softirq ~port_no ~n_rxqs ~n_pmds () =
  if n_pmds <= 0 then invalid_arg "Pmd.create: n_pmds must be positive";
  if n_rxqs <= 0 then invalid_arg "Pmd.create: n_rxqs must be positive";
  if Array.length softirq < n_rxqs then
    invalid_arg "Pmd.create: need one softirq ctx per rxq";
  let pmds =
    Array.init n_pmds (fun i ->
        {
          id = i;
          ctx = Cpu.ctx machine (Printf.sprintf "pmd%d" i);
          rxqs = [];
          pstats = fresh_stats ();
          upcalls = Queue.create ();
          retries = Queue.create ();
          alive = true;
          restarts = 0;
        })
  in
  let t =
    {
      dp;
      softirq;
      pmds;
      port_no;
      n_rxqs;
      upcall_capacity;
      retry_capacity;
      max_retries;
      batch = (Dpif.afxdp_opts dp).Dpif.batch_size;
    }
  in
  apply_assignment t (Rxq_sched.round_robin ~n_queues:n_rxqs ~n_pmds);
  t

let n_pmds t = Array.length t.pmds
let pmds t = Array.to_list t.pmds
let ctxs t = Array.to_list (Array.map (fun p -> p.ctx) t.pmds)
let stats_of p = p.pstats
let pmd_id p = p.id
let pmd_ctx p = p.ctx

(** The rxq→PMD assignment as (port, queue, pmd) rows, pmd-rxq-show's
    content. *)
let assignment t =
  Array.to_list t.pmds
  |> List.concat_map (fun p ->
         List.map (fun r -> (r.rxq_port, r.rxq_queue, p.id)) p.rxqs)
  |> List.sort compare

(* When the bounded queue refuses an upcall (overflow, or an armed
   upcall-storm fault), park it in the retry queue instead of losing it
   outright — the retry queue is bounded too, so sustained pressure still
   loses packets, but a transient burst recovers without drops. Returning
   [true] tells the datapath we own the packet; a definitive loss returns
   [false] so Dp_core counts the drop. The retry machinery is dormant on
   the sunny path: the upcall queue never overflows there.

   A parked upcall outlives the poll that received it, and with it the
   umem frame its buffer aliases: the frame goes back to the pool when
   the poll ends and carries another packet two polls later. So the
   retry queue keeps a private copy of the bytes and metadata (host
   memory, no virtual time). The main queue needs none in the main loop
   ({!poll_all}): it drains in the same iteration, before the frame can
   be refilled. (The explorer's split steps can put other polls between
   a poll and its drain; its oracles count packets, not their bytes.) *)
let upcall_hook_for t pmd (pkt : Ovs_packet.Buffer.t) key =
  if Queue.length pmd.upcalls >= t.upcall_capacity || Faults.upcall_storm ()
  then
    if Queue.length pmd.retries < t.retry_capacity then begin
      Queue.add (Ovs_packet.Buffer.copy pkt, key, 0) pmd.retries;
      pmd.pstats.retried <- pmd.pstats.retried + 1;
      Coverage.incr cov_upcall_retried;
      true
    end
    else begin
      pmd.pstats.lost <- pmd.pstats.lost + 1;
      false
    end
  else begin
    Queue.add (pkt, key) pmd.upcalls;
    Coverage.incr cov_upcall_enqueued;
    true
  end

(* The retry backoff is PMD-side work outside any Dpif call, so the
   datapath's charge wrapping never sees it; attribute it to the upcall
   stage by hand or the per-stage sums drift from the charged totals
   (the invariant the stage bench and the schedule explorer enforce). *)
let charge_backoff t pmd ns =
  (match Dpif.tracer t.dp with
  | Some tr ->
      Ovs_sim.Trace.set_stage tr Ovs_sim.Trace.St_upcall;
      Ovs_sim.Trace.on_charge tr ns
  | None -> ());
  Cpu.charge pmd.ctx Cpu.User ns

(* Bounded retry with backoff: each pass moves parked upcalls back into
   the main queue if it has room, charging a small per-attempt backoff to
   the PMD's core; an upcall out of attempts is lost for good (counted in
   both [lost] and the datapath's [dropped] — the hook already said we
   owned it). *)
let process_retries t pmd =
  let n = Queue.length pmd.retries in
  for _ = 1 to n do
    let pkt, key, attempts = Queue.pop pmd.retries in
    if attempts >= t.max_retries then begin
      pmd.pstats.lost <- pmd.pstats.lost + 1;
      let c = Dpif.counters t.dp in
      c.Dp_core.dropped <- c.Dp_core.dropped + 1;
      Coverage.incr cov_retry_lost
    end
    else begin
      charge_backoff t pmd (retry_backoff_ns *. float_of_int (attempts + 1));
      if
        Queue.length pmd.upcalls < t.upcall_capacity
        && not (Faults.upcall_storm ())
      then Queue.add (pkt, key) pmd.upcalls
      else Queue.add (pkt, key, attempts + 1) pmd.retries
    end
  done

(* Drain this PMD's bounded upcall queue into the shared slow path,
   charging the PMD's own core (dpif-netdev PMDs handle their own
   upcalls). A slow-path execution that recirculates into a fresh miss
   re-enqueues through the still-installed hook; the loop runs dry. *)
let drain_upcalls t pmd =
  let charge cat ns = Cpu.charge pmd.ctx cat ns in
  while not (Queue.is_empty pmd.upcalls) do
    let pkt, key = Queue.pop pmd.upcalls in
    Dpif.handle_upcall t.dp charge pkt key
  done

(* A dead or stalled PMD takes no steps; its rxqs back up. *)
let runnable pmd = pmd.alive && not (Faults.pmd_stalled ~pmd:pmd.id)

(* Bracket [f], folding the shared datapath counter deltas it causes into
   [pmd]'s own stats. The simulation is single-threaded, so the deltas
   around a call are exactly the work this PMD did; splitting one bracket
   into consecutive brackets (the schedule explorer's per-step calls)
   attributes identically because the deltas are additive. *)
let attributed t pmd f =
  let agg = Dpif.counters t.dp in
  let emc0 = agg.Dp_core.emc_hits
  and smc0 = agg.Dp_core.smc_hits
  and dpcls0 = agg.Dp_core.dpcls_hits
  and upcalls0 = agg.Dp_core.upcalls in
  let r = f () in
  let s = pmd.pstats in
  s.emc_hits <- s.emc_hits + (agg.Dp_core.emc_hits - emc0);
  s.smc_hits <- s.smc_hits + (agg.Dp_core.smc_hits - smc0);
  s.megaflow_hits <- s.megaflow_hits + (agg.Dp_core.dpcls_hits - dpcls0);
  s.miss <- s.miss + (agg.Dp_core.upcalls - upcalls0);
  r

(* Per-poll burst bookkeeping shared by the fused loop and the step API. *)
let count_poll pmd (rxq : rxq) ~busy0 n =
  let s = pmd.pstats in
  s.rx_packets <- s.rx_packets + n;
  s.polls <- s.polls + 1;
  Coverage.incr cov_poll;
  if n = 0 then begin
    s.idle_polls <- s.idle_polls + 1;
    Coverage.incr cov_idle_poll
  end;
  rxq.rxq_cycles <- rxq.rxq_cycles +. (Cpu.busy pmd.ctx -. busy0);
  rxq.rxq_packets <- rxq.rxq_packets + n

(** Poll one of [pmd]'s rxqs: one burst through the datapath, then a
    retry pass and a drain of the upcall queue — the fused main-loop
    iteration, equivalent to the {!step_poll}/{!step_retry}/{!step_drain}
    sequence run back to back. Returns packets dequeued. A dead or
    stalled PMD does nothing; its rxqs back up. *)
let poll_rxq t pmd (rxq : rxq) =
  if not (runnable pmd) then 0
  else begin
    let busy0 = Cpu.busy pmd.ctx in
    Dpif.set_upcall_hook t.dp (Some (upcall_hook_for t pmd));
    let n =
      attributed t pmd (fun () ->
          let n =
            Dpif.poll t.dp
              ~softirq:t.softirq.(rxq.rxq_queue)
              ~pmd:pmd.ctx ~max:t.batch ~port_no:rxq.rxq_port
              ~queue:rxq.rxq_queue ()
          in
          process_retries t pmd;
          drain_upcalls t pmd;
          n)
    in
    Dpif.set_upcall_hook t.dp None;
    count_poll pmd rxq ~busy0 n;
    n
  end

(** {1 Schedule-explorer steps}

    The three phases of a PMD main-loop iteration as separately
    schedulable actions for {!Ovs_mc}: each installs and removes the
    upcall hook around itself and does its own counter attribution, so
    any interleaving of steps across PMDs is a well-formed execution —
    [step_poll; step_retry; step_drain] on one PMD reproduces
    {!poll_rxq} exactly. *)

(** One burst from one rxq through the datapath — no retry pass, no
    drain; misses accumulate in the PMD's bounded queues. *)
let step_poll t pmd (rxq : rxq) =
  if not (runnable pmd) then 0
  else begin
    let busy0 = Cpu.busy pmd.ctx in
    Dpif.set_upcall_hook t.dp (Some (upcall_hook_for t pmd));
    let n =
      attributed t pmd (fun () ->
          Dpif.poll t.dp
            ~softirq:t.softirq.(rxq.rxq_queue)
            ~pmd:pmd.ctx ~max:t.batch ~port_no:rxq.rxq_port
            ~queue:rxq.rxq_queue ())
    in
    Dpif.set_upcall_hook t.dp None;
    count_poll pmd rxq ~busy0 n;
    n
  end

(** One bounded-retry backoff pass over the PMD's parked upcalls. *)
let step_retry t pmd = if runnable pmd then process_retries t pmd

(** Drain the PMD's upcall queue into the shared slow path. The hook
    stays installed while draining so a recirculated fresh miss
    re-enqueues instead of being mis-counted. *)
let step_drain t pmd =
  if runnable pmd then begin
    Dpif.set_upcall_hook t.dp (Some (upcall_hook_for t pmd));
    attributed t pmd (fun () -> drain_upcalls t pmd);
    Dpif.set_upcall_hook t.dp None
  end

(* Crash transitions (fault injection): a PMD crash is a process crash —
   queued upcalls die with the thread (counted lost and dropped), and the
   shared caches are flushed because the datapath process restarts cold.
   The [pmd_crash_pending] hook fires exactly once per crash fault. *)
let handle_crashes t =
  Array.iter
    (fun pmd ->
      if Faults.pmd_crash_pending ~pmd:pmd.id then begin
        let died = Queue.length pmd.upcalls + Queue.length pmd.retries in
        pmd.pstats.lost <- pmd.pstats.lost + died;
        let c = Dpif.counters t.dp in
        c.Dp_core.dropped <- c.Dp_core.dropped + died;
        Queue.clear pmd.upcalls;
        Queue.clear pmd.retries;
        pmd.alive <- false;
        Coverage.incr cov_crash;
        Dpif.flush_caches t.dp
      end)
    t.pmds

(** Restart a crashed PMD (the health monitor's repair): reclaim its XSK
    rings, revalidate what survives in the flow caches — the crash
    flushed them, so traffic repopulates the megaflow table through the
    normal upcall path (the re-sync of Sec 2.1). *)
let restart t pmd =
  if not pmd.alive then begin
    pmd.alive <- true;
    pmd.restarts <- pmd.restarts + 1;
    claim_xsks t;
    Faults.mark_pmd_restarted ~pmd:pmd.id;
    ignore (Dpif.revalidate t.dp : int);
    Coverage.incr cov_restart
  end

let alive pmd = pmd.alive
let restarts pmd = pmd.restarts

(** Upcalls waiting in this PMD (main queue + retry queue) — in-flight
    packets for conservation accounting. *)
let queued pmd = Queue.length pmd.upcalls + Queue.length pmd.retries

(* Bounded-queue introspection for the explorer's capacity oracle. *)
let upcall_queue_len pmd = Queue.length pmd.upcalls
let retry_queue_len pmd = Queue.length pmd.retries
let upcall_capacity t = t.upcall_capacity
let retry_capacity t = t.retry_capacity
let rxqs_of pmd = pmd.rxqs

(** One main-loop iteration for every PMD: each polls each of its rxqs
    once. Returns total packets dequeued across the runtime. *)
let poll_all t =
  handle_crashes t;
  Array.fold_left
    (fun acc pmd ->
      List.fold_left (fun acc rxq -> acc + poll_rxq t pmd rxq) acc pmd.rxqs)
    0 t.pmds

(** Zero the per-PMD and per-rxq counters and each PMD core's clock
    (between a warmup and a measurement phase). *)
let reset_stats t =
  Array.iter
    (fun p ->
      let s = p.pstats in
      s.rx_packets <- 0;
      s.emc_hits <- 0;
      s.smc_hits <- 0;
      s.megaflow_hits <- 0;
      s.miss <- 0;
      s.lost <- 0;
      s.retried <- 0;
      s.polls <- 0;
      s.idle_polls <- 0;
      Cpu.reset p.ctx;
      List.iter
        (fun r ->
          r.rxq_cycles <- 0.;
          r.rxq_packets <- 0)
        p.rxqs)
    t.pmds

(** Re-shard rxqs over the PMDs by measured per-rxq busy time (the
    cycles-based pmd-rxq-assign policy); measured loads carry over. *)
let rebalance t =
  let loads = Array.make t.n_rxqs 0. in
  Array.iter
    (fun p -> List.iter (fun r -> loads.(r.rxq_queue) <- r.rxq_cycles) p.rxqs)
    t.pmds;
  Coverage.incr cov_rebalance;
  apply_assignment t (Rxq_sched.cycles_based ~loads ~n_pmds:(Array.length t.pmds))

(** A rendered-stats-friendly snapshot of one PMD, pmd-stats-show's
    content plus the rxq detail pmd-rxq-show wants. *)
type report = {
  r_pmd : int;
  r_rxqs : (int * int * Ovs_sim.Time.ns * int) list;
      (** (port, queue, busy ns, packets) per assigned rxq *)
  r_stats : stats;  (** snapshot copy — safe to hold across resets *)
  r_busy_ns : Ovs_sim.Time.ns;
  r_idle_ns : Ovs_sim.Time.ns;  (** wall minus busy: spinning, not working *)
  r_cycles_per_pkt : float;  (** busy ns per processed packet *)
}

let reports ?wall t =
  let wall =
    match wall with
    | Some w -> w
    | None ->
        Array.fold_left (fun acc p -> Float.max acc (Cpu.busy p.ctx)) 0. t.pmds
  in
  Array.to_list t.pmds
  |> List.map (fun p ->
         let s = p.pstats in
         let busy = Cpu.busy p.ctx in
         {
           r_pmd = p.id;
           r_rxqs =
             List.map
               (fun r -> (r.rxq_port, r.rxq_queue, r.rxq_cycles, r.rxq_packets))
               p.rxqs;
           r_stats =
             {
               rx_packets = s.rx_packets;
               emc_hits = s.emc_hits;
               smc_hits = s.smc_hits;
               megaflow_hits = s.megaflow_hits;
               miss = s.miss;
               lost = s.lost;
               retried = s.retried;
               polls = s.polls;
               idle_polls = s.idle_polls;
             };
           r_busy_ns = busy;
           r_idle_ns = Float.max 0. (wall -. busy);
           r_cycles_per_pkt =
             (if s.rx_packets > 0 then busy /. float_of_int s.rx_packets else 0.);
         })
