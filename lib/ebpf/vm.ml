(** The eBPF interpreter.

    Executes verified programs over a packet. Pointers are tagged [int64]
    values (tag in the top byte selects the region: stack, packet, ctx, map
    value, map handle); loads and stores translate through the tag. Packet
    loads are network byte order — this VM is "big-endian hardware", which
    lets programs skip the byte swapping a little-endian kernel needs,
    without changing instruction counts materially.

    Execution statistics (instructions retired, helper calls, map lookups)
    feed the cost model: XDP processing time is charged per instruction and
    per helper, which is what makes Table 5's complexity ladder emerge. *)

type action =
  | Aborted
  | Drop
  | Pass
  | Tx
  | Redirect of Maps.kind * int
      (** target slot value plus the kind of map it came from: an [Xskmap]
          redirect lands in an AF_XDP socket, a [Devmap] redirect goes
          straight to another device (Fig 5 path C) *)

let action_code = function
  | Aborted -> 0L
  | Drop -> 1L
  | Pass -> 2L
  | Tx -> 3L
  | Redirect _ -> 4L

let action_name = function
  | Aborted -> "XDP_ABORTED"
  | Drop -> "XDP_DROP"
  | Pass -> "XDP_PASS"
  | Tx -> "XDP_TX"
  | Redirect (_, i) -> Printf.sprintf "XDP_REDIRECT(%d)" i

type stats = {
  mutable insns : int;
  mutable helper_calls : int;
  mutable map_lookups : int;
  mutable pkt_loads : int;  (** loads from packet memory (cache-miss cost) *)
}

type outcome = { action : action; stats : stats; trace : int64 list }

exception Fault of string

(* pointer tags *)
let tag_stack = 0x10L
let tag_packet = 0x20L
let tag_ctx = 0x30L
let tag_map_value = 0x40L
let tag_map_handle = 0x50L

let make_ptr tag payload = Int64.logor (Int64.shift_left tag 48) payload
let ptr_tag v = Int64.shift_right_logical v 48
let ptr_payload v = Int64.logand v 0xFFFF_FFFF_FFFFL

let fuel_limit = 1_000_000
let max_tail_calls = 32

(* programs must be registered to be tail-callable (prog_array slots hold
   registration ids, as the kernel's prog fds do) *)
let program_registry : (int, Insn.t array) Hashtbl.t = Hashtbl.create 16
let next_prog_id = ref 0

let register_program (prog : Insn.t array) : int =
  incr next_prog_id;
  Hashtbl.replace program_registry !next_prog_id prog;
  !next_prog_id

let reset_programs () =
  Hashtbl.reset program_registry;
  next_prog_id := 0

(* The VM owns every piece of per-run state — registers, stack, the
   statistics record, the trace accumulator and the current packet — so a
   run allocates no state of its own, only the int64 values it computes.
   Each run starts by resetting it. *)
type t = {
  stack : Bytes.t;
  mutable stack_dirty : bool;  (** a store wrote it since it was zeroed *)
  regs : int64 array;
  stats : stats;  (** the last run's statistics, updated in place *)
  mutable trace_rev : int64 list;  (** [Trace] helper values, newest first *)
  mutable pkt : Ovs_packet.Buffer.t;
  mutable pkt_len : int;
  mutable tail_depth : int;
  mutable redirect_target : int;
  mutable redirect_kind : Maps.kind;
  mutable map_value_refs : (int * int64) array;  (** slot -> (map id, key) *)
  mutable n_refs : int;
}

let create () =
  {
    stack = Bytes.make 512 '\000';
    stack_dirty = false;
    regs = Array.make 11 0L;
    stats = { insns = 0; helper_calls = 0; map_lookups = 0; pkt_loads = 0 };
    trace_rev = [];
    pkt = Ovs_packet.Buffer.create ~size:0 ();
    pkt_len = 0;
    tail_depth = 0;
    redirect_target = -1;
    redirect_kind = Maps.Xskmap;
    map_value_refs = Array.make 16 (0, 0L);
    n_refs = 0;
  }

let alloc_ref t map_id key =
  if t.n_refs = Array.length t.map_value_refs then begin
    let bigger = Array.make (2 * t.n_refs) (0, 0L) in
    Array.blit t.map_value_refs 0 bigger 0 t.n_refs;
    t.map_value_refs <- bigger
  end;
  t.map_value_refs.(t.n_refs) <- (map_id, key);
  t.n_refs <- t.n_refs + 1;
  t.n_refs - 1

(* a tail call unwinds to [exec] with the target program *)
exception Tail_jump of Insn.t array

(* [Insn.reg_index], restated so register access inlines to an array
   index *)
let[@inline] reg_index : Insn.reg -> int = function
  | R0 -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10

let[@inline] get t r = t.regs.(reg_index r)
let[@inline] set t r v = t.regs.(reg_index r) <- v
let src_val t = function Insn.Reg r -> get t r | Insn.Imm i -> Int64.of_int i

(* registers at program entry: r1 = ctx, r10 = frame top, the rest 0 *)
let reset_regs t =
  Array.fill t.regs 0 11 0L;
  set t Insn.R1 (make_ptr tag_ctx 0L);
  set t Insn.R10 (make_ptr tag_stack 512L)

let load t (sz : Insn.size) addr =
  let tag = ptr_tag addr and off = Int64.to_int (ptr_payload addr) in
  let nbytes = Insn.size_bytes sz in
  let pkt = t.pkt in
  if Int64.equal tag tag_packet then begin
    if off + nbytes > t.pkt_len then raise (Fault "packet load out of bounds");
    t.stats.pkt_loads <- t.stats.pkt_loads + 1;
    match sz with
    | B -> Int64.of_int (Ovs_packet.Buffer.get_u8 pkt off)
    | H -> Int64.of_int (Ovs_packet.Buffer.get_u16 pkt off)
    | W -> Int64.of_int (Ovs_packet.Buffer.get_u32 pkt off)
    | DW ->
        Int64.logor
          (Int64.shift_left (Int64.of_int (Ovs_packet.Buffer.get_u32 pkt off)) 32)
          (Int64.of_int (Ovs_packet.Buffer.get_u32 pkt (off + 4)))
  end
  else if Int64.equal tag tag_stack then begin
    (* the pointer's payload is a byte offset into the 512B frame; r10
       carries 512 (the frame top), so [r10-8] addresses bytes 504..512 *)
    if off < 0 || off + nbytes > 512 then raise (Fault "stack load out of bounds");
    let acc = ref 0L in
    for i = 0 to nbytes - 1 do
      acc :=
        Int64.logor (Int64.shift_left !acc 8)
          (Int64.of_int (Bytes.get_uint8 t.stack (off + i)))
    done;
    !acc
  end
  else if Int64.equal tag tag_ctx then begin
    (* xdp_md { data; data_end; ifindex; rx_queue_index } *)
    if off = 0 then make_ptr tag_packet 0L
    else if off = 4 then make_ptr tag_packet (Int64.of_int t.pkt_len)
    else if off = 8 then Int64.of_int pkt.Ovs_packet.Buffer.in_port
    else if off = 12 then 0L
    else raise (Fault "ctx load out of bounds")
  end
  else if Int64.equal tag tag_map_value then begin
    let slot = off in
    if slot >= t.n_refs then raise (Fault "dangling map value pointer");
    let map_id, key = t.map_value_refs.(slot) in
    match Maps.lookup (Maps.find_exn map_id) key with
    | Some v -> v
    | None -> 0L
  end
  else raise (Fault "load through non-pointer")

let store t (sz : Insn.size) addr v =
  let tag = ptr_tag addr and off = Int64.to_int (ptr_payload addr) in
  let nbytes = Insn.size_bytes sz in
  let pkt = t.pkt in
  if Int64.equal tag tag_packet then begin
    if off + nbytes > t.pkt_len then raise (Fault "packet store out of bounds");
    match sz with
    | B -> Ovs_packet.Buffer.set_u8 pkt off (Int64.to_int v land 0xFF)
    | H -> Ovs_packet.Buffer.set_u16 pkt off (Int64.to_int v land 0xFFFF)
    | W -> Ovs_packet.Buffer.set_u32 pkt off (Int64.to_int v land 0xFFFFFFFF)
    | DW ->
        Ovs_packet.Buffer.set_u32 pkt off
          (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFFFFFF);
        Ovs_packet.Buffer.set_u32 pkt (off + 4)
          (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  end
  else if Int64.equal tag tag_stack then begin
    if off < 0 || off + nbytes > 512 then
      raise (Fault "stack store out of bounds");
    t.stack_dirty <- true;
    for i = 0 to nbytes - 1 do
      let shift = 8 * (nbytes - 1 - i) in
      Bytes.set_uint8 t.stack (off + i)
        (Int64.to_int (Int64.shift_right_logical v shift) land 0xFF)
    done
  end
  else if Int64.equal tag tag_map_value then begin
    let slot = off in
    if slot >= t.n_refs then raise (Fault "dangling map value pointer");
    let map_id, key = t.map_value_refs.(slot) in
    ignore (Maps.update (Maps.find_exn map_id) key v)
  end
  else raise (Fault "store through non-pointer")

let alu64 (op : Insn.alu_op) a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if b = 0L then 0L (* BPF semantics: division by zero yields 0 *)
           else Int64.unsigned_div a b
  | Or -> Int64.logor a b
  | And -> Int64.logand a b
  | Lsh -> Int64.shift_left a (Int64.to_int b land 63)
  | Rsh -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Mod -> if b = 0L then a (* BPF semantics: dst mod 0 leaves dst *)
           else Int64.unsigned_rem a b
  | Xor -> Int64.logxor a b
  | Mov -> b
  | Arsh -> Int64.shift_right a (Int64.to_int b land 63)

let cond_holds (c : Insn.cond) a b =
  match c with
  | Jeq -> Int64.equal a b
  | Jne -> not (Int64.equal a b)
  | Jgt -> Int64.unsigned_compare a b > 0
  | Jge -> Int64.unsigned_compare a b >= 0
  | Jlt -> Int64.unsigned_compare a b < 0
  | Jle -> Int64.unsigned_compare a b <= 0
  | Jsgt -> Int64.compare a b > 0
  | Jsge -> Int64.compare a b >= 0
  | Jslt -> Int64.compare a b < 0
  | Jsle -> Int64.compare a b <= 0
  | Jset -> not (Int64.equal (Int64.logand a b) 0L)

let map_of_reg t r = Maps.find_exn (Int64.to_int (ptr_payload (get t r)))

let call t (helper : Insn.helper) =
  let stats = t.stats in
  stats.helper_calls <- stats.helper_calls + 1;
  match helper with
  | Map_lookup ->
      stats.map_lookups <- stats.map_lookups + 1;
      let m = map_of_reg t R1 in
      let key = load t DW (get t R2) in
      (match Maps.lookup m key with
      | Some _ ->
          let slot = alloc_ref t m.Maps.id key in
          set t R0 (make_ptr tag_map_value (Int64.of_int slot))
      | None -> set t R0 0L)
  | Map_update ->
      let m = map_of_reg t R1 in
      let key = load t DW (get t R2) in
      let v =
        if Int64.equal (ptr_tag (get t R3)) tag_stack then load t DW (get t R3)
        else get t R3
      in
      set t R0 (if Maps.update m key v then 0L else -1L)
  | Map_delete ->
      let m = map_of_reg t R1 in
      let key = load t DW (get t R2) in
      Maps.delete m key;
      set t R0 0L
  | Redirect_map ->
      let m = map_of_reg t R1 in
      stats.map_lookups <- stats.map_lookups + 1;
      (match Maps.lookup m (get t R2) with
      | Some target ->
          t.redirect_target <- Int64.to_int target;
          t.redirect_kind <- m.Maps.kind;
          set t R0 4L (* XDP_REDIRECT *)
      | None -> set t R0 (get t R3))
  | Tail_call -> begin
      let m = map_of_reg t R2 in
      stats.map_lookups <- stats.map_lookups + 1;
      match Maps.lookup m (get t R3) with
      | Some pid when pid >= 0L && t.tail_depth < max_tail_calls -> begin
          match Hashtbl.find_opt program_registry (Int64.to_int pid) with
          | Some target ->
              t.tail_depth <- t.tail_depth + 1;
              raise (Tail_jump target)
          | None -> set t R0 (-1L)
        end
      | Some _ | None -> set t R0 (-1L)
    end
  | Ktime_get_ns -> set t R0 0L
  | Get_hash -> set t R0 (Int64.of_int t.pkt.Ovs_packet.Buffer.rss_hash)
  | Trace ->
      t.trace_rev <- get t R1 :: t.trace_rev;
      set t R0 0L

let rec step t (prog : Insn.t array) pc =
  let stats = t.stats in
  if stats.insns >= fuel_limit then raise (Fault "fuel exhausted");
  stats.insns <- stats.insns + 1;
  if pc >= Array.length prog then raise (Fault "pc out of bounds");
  match prog.(pc) with
  | Exit -> get t R0
  | Alu64 (op, dst, src) ->
      set t dst (alu64 op (get t dst) (src_val t src));
      step t prog (pc + 1)
  | Alu32 (op, dst, src) ->
      let mask v = Int64.logand v 0xFFFF_FFFFL in
      set t dst (mask (alu64 op (mask (get t dst)) (mask (src_val t src))));
      step t prog (pc + 1)
  | Neg dst ->
      set t dst (Int64.neg (get t dst));
      step t prog (pc + 1)
  | Ld (sz, dst, srcr, off) ->
      set t dst (load t sz (Int64.add (get t srcr) (Int64.of_int off)));
      step t prog (pc + 1)
  | St (sz, dstr, off, src) ->
      store t sz (Int64.add (get t dstr) (Int64.of_int off)) (src_val t src);
      step t prog (pc + 1)
  | Ja off -> step t prog (pc + 1 + off)
  | Jcond (c, r, src, off) ->
      if cond_holds c (get t r) (src_val t src) then step t prog (pc + 1 + off)
      else step t prog (pc + 1)
  | Call h ->
      call t h;
      step t prog (pc + 1)
  | Ld_map_fd (dst, map_id) ->
      set t dst (make_ptr tag_map_handle (Int64.of_int map_id));
      step t prog (pc + 1)

(* tail calls unwind to here and restart in the target program with a
   fresh invocation state (the stack frame is reused, as in the kernel) *)
let rec exec t prog =
  try step t prog 0
  with Tail_jump target ->
    reset_regs t;
    exec t target

(** Run [prog] over [pkt] in XDP context and return its action; the run's
    statistics are left in {!last_stats}. The program must have passed {!Verifier.verify};
    runtime faults on unverified programs raise [Fault]. This is the
    allocation-free entry the XDP hook uses. *)
let execute t (prog : Insn.t array) (pkt : Ovs_packet.Buffer.t) : action =
  let stats = t.stats in
  stats.insns <- 0;
  stats.helper_calls <- 0;
  stats.map_lookups <- 0;
  stats.pkt_loads <- 0;
  t.trace_rev <- [];
  t.pkt <- pkt;
  t.pkt_len <- Ovs_packet.Buffer.length pkt;
  t.tail_depth <- 0;
  t.redirect_target <- -1;
  t.n_refs <- 0;
  if t.stack_dirty then begin
    Bytes.fill t.stack 0 512 '\000';
    t.stack_dirty <- false
  end;
  reset_regs t;
  let r0 = exec t prog in
  match Int64.to_int r0 with
  | 0 -> Aborted
  | 1 -> Drop
  | 2 -> Pass
  | 3 -> Tx
  | 4 ->
      if t.redirect_target >= 0 then Redirect (t.redirect_kind, t.redirect_target)
      else Aborted
  | _ -> Aborted

(** The last run's statistics, in place: the next run overwrites them. *)
let last_stats t = t.stats

(** {!execute}, returning the action with a snapshot of the run's
    statistics and trace — for tests and tools that keep outcomes. *)
let run t prog pkt : outcome =
  let action = execute t prog pkt in
  let s = t.stats in
  {
    action;
    stats =
      { insns = s.insns; helper_calls = s.helper_calls;
        map_lookups = s.map_lookups; pkt_loads = s.pkt_loads };
    trace = List.rev t.trace_rev;
  }
