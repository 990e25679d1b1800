(* Tests for the eBPF substrate: assembler, interpreter, verifier, maps,
   XDP hook, and the program library. *)

open Ovs_ebpf
module Insn = Insn
module B = Ovs_packet.Build

let check = Alcotest.check

let fresh_maps () = Maps.reset_registry ()

(* a minimal packet the parse programs accept *)
let ipv4_packet () = B.udp ~frame_len:64 ()

let run_prog ?(pkt = ipv4_packet ()) prog =
  let vm = Vm.create () in
  Vm.run vm prog pkt

let verify_ok name prog =
  match Verifier.verify prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s rejected: %a" name Verifier.pp_error e

let verify_rejected name prog =
  match Verifier.verify prog with
  | Ok () -> Alcotest.failf "%s unexpectedly accepted" name
  | Error _ -> ()

(* -- assembler -- *)

let test_asm_label_resolution () =
  let b = Asm.builder () in
  Asm.jcond b Insn.Jeq Insn.R1 (Insn.Imm 0) "skip";
  Asm.mov b Insn.R0 1;
  Asm.exit_ b;
  Asm.label b "skip";
  Asm.mov b Insn.R0 2;
  Asm.exit_ b;
  let prog = Asm.finish b in
  (match prog.(0) with
  | Insn.Jcond (_, _, _, 2) -> ()
  | i -> Alcotest.failf "bad offset: %a" Insn.pp i);
  check Alcotest.int "length" 5 (Array.length prog)

let test_asm_unknown_label () =
  let b = Asm.builder () in
  Asm.jmp b "nowhere";
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Asm: unknown label nowhere") (fun () ->
      ignore (Asm.finish b))

let test_asm_backward_label () =
  let b = Asm.builder () in
  Asm.label b "top";
  Asm.mov b Insn.R0 0;
  Asm.jmp b "top";
  let prog = Asm.finish b in
  match prog.(1) with
  | Insn.Ja off -> check Alcotest.int "negative offset" (-2) off
  | i -> Alcotest.failf "unexpected %a" Insn.pp i

(* -- interpreter -- *)

let test_vm_alu64 () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 10;
  Asm.emit b (Insn.Alu64 (Insn.Add, Insn.R0, Insn.Imm 5));
  Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R0, Insn.Imm 3));
  Asm.emit b (Insn.Alu64 (Insn.Sub, Insn.R0, Insn.Imm 44));
  Asm.exit_ b;
  let o = run_prog (Asm.finish b) in
  (* (10+5)*3-44 = 1 = XDP_DROP *)
  Alcotest.(check bool) "alu result" true (o.Vm.action = Vm.Drop)

let test_vm_alu32_truncates () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 0;
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R2, Insn.Imm max_int));
  Asm.emit b (Insn.Alu32 (Insn.Add, Insn.R2, Insn.Imm 1));
  (* low 32 bits of max_int are 0xFFFFFFFF; +1 truncated to 32 bits = 0 *)
  Asm.jcond b Insn.Jeq Insn.R2 (Insn.Imm 0) "ok";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  Alcotest.(check bool) "32-bit wrap" true (o.Vm.action = Vm.Pass)

let test_vm_stack_store_load () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 0xABCD;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld b Insn.DW Insn.R3 Insn.R10 (-8);
  Asm.jcond b Insn.Jeq Insn.R3 (Insn.Reg Insn.R2) "ok";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  Alcotest.(check bool) "stack roundtrip" true (o.Vm.action = Vm.Pass)

let test_vm_packet_load () =
  (* read the ethertype (offset 12, 16-bit) and check it's 0x0800 *)
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 14;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "bad";
  Asm.ld b Insn.H Insn.R5 Insn.R2 12;
  Asm.jcond b Insn.Jeq Insn.R5 (Insn.Imm 0x0800) "ok";
  Asm.label b "bad";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let prog = Asm.finish b in
  verify_ok "packet load" prog;
  let o = run_prog prog in
  Alcotest.(check bool) "read ethertype" true (o.Vm.action = Vm.Pass)

let test_vm_packet_store_mutates () =
  let pkt = ipv4_packet () in
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 14;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "out";
  Asm.st b Insn.B Insn.R2 0 (Insn.Imm 0x5A);
  Asm.label b "out";
  Asm.ret b 2;
  ignore (run_prog ~pkt (Asm.finish b));
  check Alcotest.int "first byte rewritten" 0x5A (Ovs_packet.Buffer.get_u8 pkt 0)

let test_vm_div_by_zero_yields_zero () =
  (* BPF semantics since Linux 4.11: runtime division by zero produces 0
     rather than a fault, so verified programs can never trap on it *)
  let prog =
    [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 4);
       Insn.Alu64 (Insn.Mov, Insn.R1, Insn.Imm 0);
       Insn.Alu64 (Insn.Div, Insn.R0, Insn.Reg Insn.R1);
       Insn.Exit |]
  in
  let o = run_prog prog in
  Alcotest.(check bool) "result is 0 (XDP_ABORTED)" true (o.Vm.action = Vm.Aborted)

let test_vm_insn_counting () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 2;
  Asm.exit_ b;
  let o = run_prog (Asm.finish b) in
  check Alcotest.int "insns" 2 o.Vm.stats.Vm.insns

let test_vm_trace_helper () =
  let b = Asm.builder () in
  Asm.mov b Insn.R1 42;
  Asm.call b Insn.Trace;
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  check (Alcotest.list Alcotest.int64) "trace" [ 42L ] o.Vm.trace

(* -- maps -- *)

let test_maps_hash_ops () =
  fresh_maps ();
  let m = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:4 in
  Alcotest.(check bool) "miss" true (Maps.lookup m 1L = None);
  Alcotest.(check bool) "insert" true (Maps.update m 1L 100L);
  Alcotest.(check bool) "hit" true (Maps.lookup m 1L = Some 100L);
  Alcotest.(check bool) "overwrite" true (Maps.update m 1L 200L);
  Alcotest.(check bool) "new value" true (Maps.lookup m 1L = Some 200L);
  Maps.delete m 1L;
  Alcotest.(check bool) "deleted" true (Maps.lookup m 1L = None)

let test_maps_hash_full () =
  fresh_maps ();
  let m = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:2 in
  Alcotest.(check bool) "1" true (Maps.update m 1L 1L);
  Alcotest.(check bool) "2" true (Maps.update m 2L 2L);
  Alcotest.(check bool) "full" false (Maps.update m 3L 3L);
  Alcotest.(check bool) "existing key still updatable" true (Maps.update m 1L 9L)

let test_maps_array_bounds () =
  fresh_maps ();
  let m = Maps.create ~name:"a" ~kind:Maps.Array ~max_entries:4 in
  Alcotest.(check bool) "in range" true (Maps.update m 3L 7L);
  Alcotest.(check bool) "read back" true (Maps.lookup m 3L = Some 7L);
  Alcotest.(check bool) "out of range update" false (Maps.update m 4L 7L);
  Alcotest.(check bool) "out of range lookup" true (Maps.lookup m 9L = None)

let test_map_lookup_from_bytecode () =
  fresh_maps ();
  let m = Maps.create ~name:"t" ~kind:Maps.Hash ~max_entries:8 in
  ignore (Maps.update m 5L 77L);
  let b = Asm.builder () in
  Asm.mov b Insn.R2 5;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) "miss";
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.jcond b Insn.Jeq Insn.R3 (Insn.Imm 77) "hit";
  Asm.label b "miss";
  Asm.ret b 0;
  Asm.label b "hit";
  Asm.ret b 2;
  let prog = Asm.finish b in
  verify_ok "map lookup prog" prog;
  let o = run_prog prog in
  Alcotest.(check bool) "value read through pointer" true (o.Vm.action = Vm.Pass);
  check Alcotest.int "map lookups counted" 1 o.Vm.stats.Vm.map_lookups

(* -- verifier -- *)

let test_verifier_rejects_loop () =
  let prog = [| Insn.Ja (-1) |] in
  verify_rejected "backward jump" prog

let test_verifier_rejects_uninit_read () =
  let prog = [| Insn.Alu64 (Insn.Add, Insn.R3, Insn.Imm 1); Insn.Exit |] in
  verify_rejected "uninitialized register" prog

let test_verifier_rejects_missing_r0 () =
  let prog = [| Insn.Exit |] in
  verify_rejected "r0 uninitialized at exit" prog

let test_verifier_rejects_unchecked_packet_access () =
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  (* no bounds check against data_end *)
  Asm.ld b Insn.H Insn.R3 Insn.R2 12;
  Asm.ret b 1;
  verify_rejected "unchecked packet load" (Asm.finish b)

let test_verifier_rejects_check_too_small () =
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 10;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "out";
  (* checked 10 bytes, then read at offset 12: must be rejected *)
  Asm.ld b Insn.H Insn.R5 Insn.R2 12;
  Asm.label b "out";
  Asm.ret b 1;
  verify_rejected "bounds check too small" (Asm.finish b)

let test_verifier_rejects_stack_oob () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-520) (Insn.Reg Insn.R2);
  Asm.ret b 1;
  verify_rejected "stack out of frame" (Asm.finish b)

let test_verifier_rejects_uninit_stack_read () =
  let b = Asm.builder () in
  Asm.ld b Insn.DW Insn.R2 Insn.R10 (-16);
  Asm.ret b 1;
  verify_rejected "uninitialized stack read" (Asm.finish b)

let test_verifier_rejects_null_deref () =
  fresh_maps ();
  let m = Maps.create ~name:"m" ~kind:Maps.Hash ~max_entries:4 in
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  (* dereference without checking for NULL *)
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.ret b 1;
  verify_rejected "null map value deref" (Asm.finish b)

let test_verifier_rejects_ctx_store () =
  let b = Asm.builder () in
  Asm.st b Insn.W Insn.R1 0 (Insn.Imm 0);
  Asm.ret b 1;
  verify_rejected "ctx is read-only" (Asm.finish b)

let test_verifier_rejects_r10_write () =
  let b = Asm.builder () in
  Asm.mov b Insn.R10 0;
  Asm.ret b 1;
  verify_rejected "r10 read-only" (Asm.finish b)

let test_verifier_rejects_pointer_arith () =
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R1, Insn.Imm 2));
  Asm.ret b 1;
  verify_rejected "pointer multiplication" (Asm.finish b)

let test_verifier_rejects_pointer_leak_compare () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 5;
  (* compare ctx pointer with a scalar *)
  Asm.jcond b Insn.Jgt Insn.R1 (Insn.Reg Insn.R2) "x";
  Asm.label b "x";
  Asm.ret b 1;
  verify_rejected "pointer/scalar comparison" (Asm.finish b)

let test_verifier_rejects_div_zero_imm () =
  let prog =
    [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 1);
       Insn.Alu64 (Insn.Div, Insn.R0, Insn.Imm 0);
       Insn.Exit |]
  in
  verify_rejected "constant division by zero" prog

let test_verifier_rejects_oob_jump () =
  let prog = [| Insn.Ja 5; Insn.Exit |] in
  verify_rejected "jump out of bounds" prog

let test_verifier_rejects_fallthrough_end () =
  let prog = [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 0) |] in
  verify_rejected "falls off the end" prog

let test_verifier_rejects_empty () = verify_rejected "empty" [||]

let test_verifier_accepts_null_checked_deref () =
  fresh_maps ();
  let m = Maps.create ~name:"m" ~kind:Maps.Hash ~max_entries:4 in
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) "null";
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.label b "null";
  Asm.ret b 1;
  verify_ok "null-checked deref" (Asm.finish b)

let test_verifier_whole_program_library () =
  fresh_maps ();
  let l2_table = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:64 in
  let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:64 in
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:16 in
  let mac_to_dev = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:16 in
  List.iter
    (fun (name, prog) -> verify_ok name prog)
    (Progs.all ~l2_table ~sessions ~xskmap ~mac_to_dev)

(* property: straight-line ALU programs over initialized registers always
   verify and never fault *)
let prop_straightline_alu_safe =
  QCheck.Test.make ~count:200 ~name:"straight-line ALU programs are safe"
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 7) small_nat))
    (fun ops ->
      let b = Asm.builder () in
      Asm.mov b Insn.R0 1;
      Asm.mov b Insn.R2 7;
      List.iter
        (fun (op, v) ->
          let v = 1 + v in
          let alu =
            match op with
            | 0 -> Insn.Add
            | 1 -> Insn.Sub
            | 2 -> Insn.Mul
            | 3 -> Insn.Or
            | 4 -> Insn.And
            | 5 -> Insn.Xor
            | 6 -> Insn.Div
            | _ -> Insn.Mod
          in
          Asm.emit b (Insn.Alu64 (alu, Insn.R2, Insn.Imm v)))
        ops;
      Asm.exit_ b;
      let prog = Asm.finish b in
      match Verifier.verify prog with
      | Error _ -> false
      | Ok () -> (
          try
            ignore (run_prog prog);
            true
          with Vm.Fault _ -> false))

(* Soundness fuzz: build programs from safe templates, then corrupt one
   instruction at random. Whatever the verifier still accepts must never
   fault at runtime, on packets of any length — the verifier's entire
   contract (Sec 2.2.2's "distributions are willing to support third-party
   eBPF programs because of eBPF's safe, sandboxed implementation"). *)
let prop_verifier_soundness =
  QCheck.Test.make ~count:400 ~name:"verifier acceptance implies no runtime fault"
    QCheck.(pair small_int (int_range 0 120))
    (fun (seed, pkt_len) ->
      fresh_maps ();
      let prng = Ovs_sim.Prng.of_int (seed * 7919) in
      let m = Maps.create ~name:"f" ~kind:Maps.Hash ~max_entries:8 in
      ignore (Maps.update m 1L 5L);
      let b = Asm.builder () in
      let n_blocks = 1 + Ovs_sim.Prng.int prng 5 in
      Asm.mov b Insn.R0 2;
      for blk = 0 to n_blocks - 1 do
        let lbl = Printf.sprintf "b%d" blk in
        match Ovs_sim.Prng.int prng 5 with
        | 0 ->
            (* ALU play on scratch registers *)
            Asm.mov b Insn.R2 (Ovs_sim.Prng.int prng 1000);
            Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R2, Insn.Imm 3));
            Asm.emit b (Insn.Alu32 (Insn.Add, Insn.R2, Insn.Imm 7))
        | 1 ->
            (* stack roundtrip *)
            Asm.mov b Insn.R3 blk;
            Asm.st b Insn.DW Insn.R10 (-8 - (8 * (blk mod 4))) (Insn.Reg Insn.R3);
            Asm.ld b Insn.DW Insn.R4 Insn.R10 (-8 - (8 * (blk mod 4)))
        | 2 ->
            (* guarded packet read *)
            Asm.ld b Insn.W Insn.R6 Insn.R1 0;
            Asm.ld b Insn.W Insn.R7 Insn.R1 4;
            Asm.mov_reg b Insn.R8 Insn.R6;
            Asm.add b Insn.R8 (14 + Ovs_sim.Prng.int prng 30);
            Asm.jcond b Insn.Jgt Insn.R8 (Insn.Reg Insn.R7) lbl;
            Asm.ld b Insn.H Insn.R5 Insn.R6 (Ovs_sim.Prng.int prng 12);
            Asm.label b lbl
        | 3 ->
            (* map lookup with null check *)
            Asm.mov b Insn.R2 1;
            Asm.st b Insn.DW Insn.R10 (-16) (Insn.Reg Insn.R2);
            Asm.ld_map_fd b Insn.R1 m;
            Asm.mov_reg b Insn.R2 Insn.R10;
            Asm.add b Insn.R2 (-16);
            Asm.call b Insn.Map_lookup;
            Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) lbl;
            Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
            Asm.label b lbl;
            Asm.mov b Insn.R0 2
        | _ ->
            (* forward branch over a few instructions *)
            Asm.mov b Insn.R5 (Ovs_sim.Prng.int prng 10);
            Asm.jcond b Insn.Jgt Insn.R5 (Insn.Imm 5) lbl;
            Asm.emit b (Insn.Alu64 (Insn.Xor, Insn.R5, Insn.Imm 3));
            Asm.label b lbl
      done;
      Asm.exit_ b;
      let prog = Asm.finish b in
      (* corrupt one instruction *)
      let mutate prog =
        let p = Array.copy prog in
        let i = Ovs_sim.Prng.int prng (Array.length p) in
        let regs = [| Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R5; Insn.R6; Insn.R9; Insn.R10 |] in
        let r () = regs.(Ovs_sim.Prng.int prng (Array.length regs)) in
        (p.(i) <-
          (match Ovs_sim.Prng.int prng 5 with
          | 0 -> Insn.Alu64 (Insn.Mov, r (), Insn.Reg (r ()))
          | 1 -> Insn.Ld (Insn.DW, r (), r (), Ovs_sim.Prng.int prng 64 - 32)
          | 2 -> Insn.Jcond (Insn.Jgt, r (), Insn.Imm (Ovs_sim.Prng.int prng 100),
                             Ovs_sim.Prng.int prng 6)
          | 3 -> Insn.St (Insn.W, r (), Ovs_sim.Prng.int prng 32 - 16, Insn.Imm 7)
          | _ -> Insn.Exit));
        p
      in
      let candidate = if Ovs_sim.Prng.bool prng then mutate prog else prog in
      match Verifier.verify candidate with
      | Error _ -> true  (* rejection is always sound *)
      | Ok () -> (
          let pkt =
            let buf = Ovs_packet.Buffer.create ~size:(Int.max pkt_len 1) () in
            Ovs_packet.Buffer.put buf pkt_len;
            buf
          in
          try
            ignore (run_prog ~pkt candidate);
            true
          with Vm.Fault msg ->
            QCheck.Test.fail_reportf "verified program faulted: %s" msg))

(* -- the XDP program library semantics -- *)

let test_prog_task_d_swaps_macs () =
  let pkt =
    B.udp ~src_mac:(Ovs_packet.Mac.of_index 11) ~dst_mac:(Ovs_packet.Mac.of_index 22) ()
  in
  let o = run_prog ~pkt Progs.task_d in
  Alcotest.(check bool) "tx" true (o.Vm.action = Vm.Tx);
  check Alcotest.int "dst is old src" (Ovs_packet.Mac.of_index 11)
    (Ovs_packet.Ethernet.get_dst pkt);
  check Alcotest.int "src is old dst" (Ovs_packet.Mac.of_index 22)
    (Ovs_packet.Ethernet.get_src pkt)

let test_prog_task_b_drops_non_ip () =
  let pkt = B.arp ~spa:1 ~tpa:2 () in
  let o = run_prog ~pkt Progs.task_b in
  Alcotest.(check bool) "drop" true (o.Vm.action = Vm.Drop)

let test_prog_xsk_default_redirects () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let o = run_prog (Progs.xsk_default ~xskmap) in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Xskmap, 0) -> ()
  | a -> Alcotest.failf "expected xsk redirect, got %s" (Vm.action_name a))

let test_prog_xsk_default_passes_unbound_queue () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  (* queue 0 not bound: management traffic falls through to the stack *)
  let o = run_prog (Progs.xsk_default ~xskmap) in
  Alcotest.(check bool) "pass" true (o.Vm.action = Vm.Pass)

let test_prog_veth_redirect_by_mac () =
  fresh_maps ();
  let macs = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:8 in
  let dst = Ovs_packet.Mac.of_index 2 in
  ignore (Maps.update macs (Int64.of_int dst) 5L);
  let pkt = B.udp ~dst_mac:dst () in
  let o = run_prog ~pkt (Progs.veth_redirect ~mac_to_dev:macs) in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Devmap, 5) -> ()
  | a -> Alcotest.failf "expected devmap redirect, got %s" (Vm.action_name a));
  (* unknown mac passes to the stack/userspace *)
  let pkt2 = B.udp ~dst_mac:(Ovs_packet.Mac.of_index 9) () in
  let o2 = run_prog ~pkt:pkt2 (Progs.veth_redirect ~mac_to_dev:macs) in
  Alcotest.(check bool) "miss passes" true (o2.Vm.action = Vm.Pass)

let test_prog_l4_lb_hit_and_miss () =
  fresh_maps ();
  let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:64 in
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let prog = Progs.l4_load_balancer ~sessions ~xskmap in
  (* a miss goes to userspace through the xskmap *)
  let pkt = ipv4_packet () in
  let o = run_prog ~pkt prog in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Xskmap, _) -> ()
  | a -> Alcotest.failf "miss should upcall, got %s" (Vm.action_name a));
  (* compute the same 5-tuple key the program computes and install it *)
  let key = ref 0L in
  let k = Ovs_packet.Flow_key.extract pkt in
  let open Ovs_packet.Flow_key in
  let src = Int64.of_int (get k Field.Nw_src) in
  let dst = Int64.shift_left (Int64.of_int (get k Field.Nw_dst)) 17 in
  let ports =
    Int64.shift_left
      (Int64.of_int ((get k Field.Tp_src lsl 16) lor get k Field.Tp_dst))
      31
  in
  key := Int64.logxor (Int64.logxor src dst) ports;
  key := Int64.logxor !key (Int64.of_int (get k Field.Nw_proto));
  let backend_mac = Int64.of_int (Ovs_packet.Mac.of_index 33) in
  ignore (Maps.update sessions !key backend_mac);
  let pkt2 = ipv4_packet () in
  let o2 = run_prog ~pkt:pkt2 prog in
  Alcotest.(check bool) "session hit transmits directly" true (o2.Vm.action = Vm.Tx);
  check Alcotest.int "backend mac written" (Ovs_packet.Mac.of_index 33)
    (Ovs_packet.Ethernet.get_dst pkt2)

let test_prog_steer_control () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let prog = Progs.steer_control ~xskmap in
  (* OpenFlow (TCP 6653) stays on the kernel path *)
  let of_pkt = B.tcp ~dst_port:6653 () in
  let o = run_prog ~pkt:of_pkt prog in
  Alcotest.(check bool) "openflow passes to stack" true (o.Vm.action = Vm.Pass);
  (* ARP stays on the kernel path *)
  let arp_pkt = B.arp ~spa:1 ~tpa:2 () in
  let o2 = run_prog ~pkt:arp_pkt prog in
  Alcotest.(check bool) "arp passes to stack" true (o2.Vm.action = Vm.Pass);
  (* data plane traffic goes to userspace *)
  let data = ipv4_packet () in
  let o3 = run_prog ~pkt:data prog in
  (match o3.Vm.action with
  | Vm.Redirect (Maps.Xskmap, _) -> ()
  | a -> Alcotest.failf "data should go to OVS, got %s" (Vm.action_name a))

(* -- tail calls (Sec 2.2.2's program chaining) -- *)

let tail_call_prog ~(prog_array : Maps.t) ~slot ~fallthrough =
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm slot));
  Asm.ld_map_fd b Insn.R2 prog_array;
  (* r1 already holds ctx at program start *)
  Asm.call b Insn.Tail_call;
  Asm.ret b fallthrough;
  Asm.finish b

let test_tail_call_jumps_into_target () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:4 in
  let target = Xdp.load_exn ~name:"stage2" Progs.pass_all in
  Xdp.install_in_prog_array target pa ~slot:0;
  let caller = tail_call_prog ~prog_array:pa ~slot:0 ~fallthrough:Asm.xdp_drop in
  verify_ok "tail caller" caller;
  let o = run_prog caller in
  Alcotest.(check bool) "jumped into stage2 (PASS)" true (o.Vm.action = Vm.Pass)

let test_tail_call_empty_slot_falls_through () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:4 in
  let caller = tail_call_prog ~prog_array:pa ~slot:2 ~fallthrough:Asm.xdp_drop in
  let o = run_prog caller in
  Alcotest.(check bool) "fell through (DROP)" true (o.Vm.action = Vm.Drop)

let test_tail_call_depth_bounded () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:1 in
  (* a program that tail-calls itself: must stop at the depth limit and
     take its own fallthrough, not spin forever *)
  let self = tail_call_prog ~prog_array:pa ~slot:0 ~fallthrough:Asm.xdp_pass in
  let id = Vm.register_program self in
  ignore (Maps.update pa 0L (Int64.of_int id));
  let o = run_prog self in
  Alcotest.(check bool) "terminates via fallthrough" true (o.Vm.action = Vm.Pass);
  Alcotest.(check bool) "bounded work" true (o.Vm.stats.Vm.insns < 200)

let test_tail_call_three_stage_pipeline () =
  (* the eBPF datapath pattern: parse -> lookup -> act as chained stages *)
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"stages" ~kind:Maps.Prog_array ~max_entries:4 in
  let stage3 = Xdp.load_exn ~name:"act" Progs.task_d in
  Xdp.install_in_prog_array stage3 pa ~slot:2;
  let stage2 = Xdp.load_exn ~name:"lookup" (tail_call_prog ~prog_array:pa ~slot:2 ~fallthrough:Asm.xdp_drop) in
  Xdp.install_in_prog_array stage2 pa ~slot:1;
  let stage1 = tail_call_prog ~prog_array:pa ~slot:1 ~fallthrough:Asm.xdp_drop in
  verify_ok "stage1" stage1;
  let pkt = ipv4_packet () in
  let o = run_prog ~pkt stage1 in
  Alcotest.(check bool) "chained to the act stage (TX)" true (o.Vm.action = Vm.Tx)

(* -- reused per-run state -- *)

(* Every program of the library, with maps that let each path fire
   (an L2 hit, a load-balancer session, bound XSK and devmap slots),
   plus tail-call chains: three stages, a self-call at the depth bound,
   an empty slot. *)
let reset_programs () =
  fresh_maps ();
  Vm.reset_programs ();
  let l2_table = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:16 in
  ignore (Maps.update l2_table (Int64.of_int (Ovs_packet.Mac.of_index 2)) 7L);
  let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:16 in
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let mac_to_dev = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:8 in
  ignore (Maps.update mac_to_dev (Int64.of_int (Ovs_packet.Mac.of_index 2)) 5L);
  (* the session key the load balancer computes for the default UDP
     packet (as in the load-balancer test) *)
  let k = Ovs_packet.Flow_key.extract (ipv4_packet ()) in
  let g f = Int64.of_int (Ovs_packet.Flow_key.get k f) in
  let open Ovs_packet.Flow_key.Field in
  let key =
    Int64.logxor
      (Int64.logxor
         (Int64.logxor (g Nw_src) (Int64.shift_left (g Nw_dst) 17))
         (Int64.shift_left
            (Int64.logor (Int64.shift_left (g Tp_src) 16) (g Tp_dst))
            31))
      (g Nw_proto)
  in
  ignore (Maps.update sessions key (Int64.of_int (Ovs_packet.Mac.of_index 33)));
  (* two probes of state the library never touches: the trace
     accumulator, and a redirect verdict with no redirect_map call *)
  let traced =
    let b = Asm.builder () in
    Asm.mov b Insn.R1 42;
    Asm.call b Insn.Trace;
    Asm.ret b Asm.xdp_pass;
    Asm.finish b
  in
  let bare_redirect =
    let b = Asm.builder () in
    Asm.ret b 4;
    Asm.finish b
  in
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:4 in
  let stage3 = Xdp.load_exn ~name:"act" Progs.task_d in
  Xdp.install_in_prog_array stage3 pa ~slot:2;
  let stage2 =
    Xdp.load_exn ~name:"lookup"
      (tail_call_prog ~prog_array:pa ~slot:2 ~fallthrough:Asm.xdp_drop)
  in
  Xdp.install_in_prog_array stage2 pa ~slot:1;
  let self = tail_call_prog ~prog_array:pa ~slot:0 ~fallthrough:Asm.xdp_pass in
  ignore (Maps.update pa 0L (Int64.of_int (Vm.register_program self)));
  Progs.all ~l2_table ~sessions ~xskmap ~mac_to_dev
  @ [
      ("trace", traced);
      ("redirect verdict, no target", bare_redirect);
      ("tail chain", tail_call_prog ~prog_array:pa ~slot:1 ~fallthrough:Asm.xdp_drop);
      ("tail self", self);
      ("tail empty slot", tail_call_prog ~prog_array:pa ~slot:3 ~fallthrough:Asm.xdp_drop);
    ]

(* packets that steer the programs down their different paths, whole or
   cut short *)
let gen_vm_packet =
  let open QCheck.Gen in
  let mac = map Ovs_packet.Mac.of_index (int_range 1 3) in
  let whole =
    oneof
      [
        map2 (fun dst_mac sp -> B.udp ~dst_mac ~src_port:sp ()) mac (int_bound 0xFFFF);
        return (ipv4_packet ());
        map (fun dp -> B.tcp ~dst_port:dp ()) (oneofl [ 80; 6653 ]);
        return (B.arp ~spa:1 ~tpa:2 ());
      ]
  in
  whole >>= fun pkt ->
  map
    (fun cut ->
      let b = Ovs_packet.Buffer.contents pkt in
      let n =
        match cut with None -> Bytes.length b | Some n -> n mod (Bytes.length b + 1)
      in
      Bytes.to_string (Bytes.sub b 0 n))
    (opt (int_bound 80))

let prop_vm_state_reset =
  QCheck.Test.make ~count:300
    ~name:"a reused VM runs B exactly as a fresh one (every program)"
    QCheck.(
      make
        ~print:(fun (i, a, b) -> Printf.sprintf "first prog %d, A=%S B=%S" i a b)
        Gen.(triple (int_bound 100) gen_vm_packet gen_vm_packet))
    (fun (first, a, b) ->
      let progs = Array.of_list (reset_programs ()) in
      let pkt s = Ovs_packet.Buffer.of_bytes (Bytes.of_string s) in
      Array.for_all
        (fun (_, prog) ->
          let vm = Vm.create () in
          let _, prog_a = progs.(first mod Array.length progs) in
          ignore (Vm.run vm prog_a (pkt a));
          ignore (Vm.run vm prog (pkt a));
          let b1 = pkt b and b2 = pkt b in
          let reused = Vm.run vm prog b1 in
          let fresh = Vm.run (Vm.create ()) prog b2 in
          reused = fresh
          && Bytes.equal (Ovs_packet.Buffer.contents b1) (Ovs_packet.Buffer.contents b2))
        progs)

let test_verifier_tail_call_types () =
  fresh_maps ();
  let h = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:4 in
  (* a hash map is not a prog_array *)
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm 0));
  Asm.ld_map_fd b Insn.R2 h;
  Asm.call b Insn.Tail_call;
  Asm.ret b 2;
  verify_rejected "tail_call on hash map" (Asm.finish b);
  (* r1 must still be the context *)
  let b2 = Asm.builder () in
  let pa = Maps.create ~name:"p" ~kind:Maps.Prog_array ~max_entries:4 in
  Asm.mov b2 Insn.R1 0;
  Asm.emit b2 (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm 0));
  Asm.ld_map_fd b2 Insn.R2 pa;
  Asm.call b2 Insn.Tail_call;
  Asm.ret b2 2;
  verify_rejected "tail_call without ctx" (Asm.finish b2)

let test_xdp_hook_cost_grows_with_complexity () =
  fresh_maps ();
  let c = Ovs_sim.Costs.default in
  let l2 = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:8 in
  let run prog =
    let hook = Xdp.load_exn ~name:"t" prog in
    snd (Xdp.run hook c (ipv4_packet ()))
  in
  let a = run Progs.task_a in
  let bp = run Progs.task_b in
  let cp = run (Progs.task_c ~l2_table:l2) in
  Alcotest.(check bool) "B dearer than A" true (bp > a);
  Alcotest.(check bool) "C dearer than B" true (cp > bp)

let test_xdp_load_rejects_bad_program () =
  match Xdp.load ~name:"bad" [| Insn.Ja (-1) |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loader accepted a looping program"

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_ebpf"
    [
      ( "asm",
        [
          Alcotest.test_case "label resolution" `Quick test_asm_label_resolution;
          Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
          Alcotest.test_case "backward label offsets" `Quick test_asm_backward_label;
        ] );
      ( "vm",
        [
          Alcotest.test_case "alu64" `Quick test_vm_alu64;
          Alcotest.test_case "alu32 truncates" `Quick test_vm_alu32_truncates;
          Alcotest.test_case "stack store/load" `Quick test_vm_stack_store_load;
          Alcotest.test_case "packet load" `Quick test_vm_packet_load;
          Alcotest.test_case "packet store mutates" `Quick test_vm_packet_store_mutates;
          Alcotest.test_case "div by zero yields zero" `Quick test_vm_div_by_zero_yields_zero;
          Alcotest.test_case "instruction counting" `Quick test_vm_insn_counting;
          Alcotest.test_case "trace helper" `Quick test_vm_trace_helper;
        ] );
      ( "maps",
        [
          Alcotest.test_case "hash ops" `Quick test_maps_hash_ops;
          Alcotest.test_case "hash full" `Quick test_maps_hash_full;
          Alcotest.test_case "array bounds" `Quick test_maps_array_bounds;
          Alcotest.test_case "lookup from bytecode" `Quick test_map_lookup_from_bytecode;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rejects loop" `Quick test_verifier_rejects_loop;
          Alcotest.test_case "rejects uninit read" `Quick test_verifier_rejects_uninit_read;
          Alcotest.test_case "rejects missing r0" `Quick test_verifier_rejects_missing_r0;
          Alcotest.test_case "rejects unchecked pkt access" `Quick
            test_verifier_rejects_unchecked_packet_access;
          Alcotest.test_case "rejects short bounds check" `Quick
            test_verifier_rejects_check_too_small;
          Alcotest.test_case "rejects stack oob" `Quick test_verifier_rejects_stack_oob;
          Alcotest.test_case "rejects uninit stack read" `Quick
            test_verifier_rejects_uninit_stack_read;
          Alcotest.test_case "rejects null deref" `Quick test_verifier_rejects_null_deref;
          Alcotest.test_case "rejects ctx store" `Quick test_verifier_rejects_ctx_store;
          Alcotest.test_case "rejects r10 write" `Quick test_verifier_rejects_r10_write;
          Alcotest.test_case "rejects pointer arith" `Quick
            test_verifier_rejects_pointer_arith;
          Alcotest.test_case "rejects pointer compare" `Quick
            test_verifier_rejects_pointer_leak_compare;
          Alcotest.test_case "rejects div 0 imm" `Quick test_verifier_rejects_div_zero_imm;
          Alcotest.test_case "rejects oob jump" `Quick test_verifier_rejects_oob_jump;
          Alcotest.test_case "rejects fallthrough end" `Quick
            test_verifier_rejects_fallthrough_end;
          Alcotest.test_case "rejects empty" `Quick test_verifier_rejects_empty;
          Alcotest.test_case "accepts null-checked deref" `Quick
            test_verifier_accepts_null_checked_deref;
          Alcotest.test_case "accepts whole program library" `Quick
            test_verifier_whole_program_library;
        ]
        @ qcheck [ prop_straightline_alu_safe; prop_verifier_soundness ] );
      ( "programs",
        [
          Alcotest.test_case "task_d swaps macs" `Quick test_prog_task_d_swaps_macs;
          Alcotest.test_case "task_b drops non-ip" `Quick test_prog_task_b_drops_non_ip;
          Alcotest.test_case "xsk_default redirects" `Quick test_prog_xsk_default_redirects;
          Alcotest.test_case "xsk_default pass on unbound queue" `Quick
            test_prog_xsk_default_passes_unbound_queue;
          Alcotest.test_case "veth_redirect by mac" `Quick test_prog_veth_redirect_by_mac;
          Alcotest.test_case "l4 lb hit and miss" `Quick test_prog_l4_lb_hit_and_miss;
          Alcotest.test_case "steer control traffic" `Quick test_prog_steer_control;
          Alcotest.test_case "cost grows with complexity" `Quick
            test_xdp_hook_cost_grows_with_complexity;
          Alcotest.test_case "loader rejects bad program" `Quick
            test_xdp_load_rejects_bad_program;
        ] );
      ( "tail_calls",
        [
          Alcotest.test_case "jumps into target" `Quick test_tail_call_jumps_into_target;
          Alcotest.test_case "empty slot falls through" `Quick
            test_tail_call_empty_slot_falls_through;
          Alcotest.test_case "depth bounded" `Quick test_tail_call_depth_bounded;
          Alcotest.test_case "three-stage pipeline" `Quick
            test_tail_call_three_stage_pipeline;
          Alcotest.test_case "verifier type checks" `Quick test_verifier_tail_call_types;
        ]
        @ qcheck [ prop_vm_state_reset ] );
    ]
