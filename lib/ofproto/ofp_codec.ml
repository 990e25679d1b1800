(** OpenFlow 1.3 wire codec: the binary protocol the NSX agent speaks to
    ovs-vswitchd (Fig 7). Implements the subset the system needs — HELLO,
    ECHO, FEATURES, FLOW_MOD with OXM matches and apply-actions/goto-table
    instructions, PACKET_IN/OUT, and multipart flow stats.

    Standard fields use the ONF OPENFLOW_BASIC OXM class with their real
    field numbers; the OVS-specific fields (conntrack state, registers,
    tunnel endpoints) ride an experimenter OXM class, as Open vSwitch's
    NXM extensions do in reality. *)

module FK = Ovs_packet.Flow_key

let version = 0x04 (* OpenFlow 1.3 *)

type msg =
  | Hello
  | Error of { err_type : int; code : int }
  | Echo_request of Bytes.t
  | Echo_reply of Bytes.t
  | Features_request
  | Features_reply of { datapath_id : int64; n_tables : int }
  | Packet_in of {
      total_len : int;
      reason : int;
      table_id : int;
      in_port : int;
      data : Bytes.t;
    }
  | Packet_out of { in_port : int; actions : Action.t list; data : Bytes.t }
  | Flow_mod of {
      command : [ `Add | `Modify | `Delete ];
      table_id : int;
      priority : int;
      cookie : int;
      match_ : Match_.t;
      actions : Action.t list;  (** apply-actions + trailing goto, flattened *)
    }
  | Flow_stats_request of { table_id : int }
  | Flow_stats_reply of (int * int * int) list  (** (table, priority, n_packets) *)

exception Decode_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Decode_error m)) fmt

(* -- a growable big-endian writer -- *)

module W = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }

  let ensure t n =
    if t.len + n > Bytes.length t.buf then begin
      let bigger = Bytes.create (Int.max (t.len + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end

  let u8 t v =
    ensure t 1;
    Bytes.set_uint8 t.buf t.len v;
    t.len <- t.len + 1

  let u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    Bytes.set_int32_be t.buf t.len (Int32.of_int v);
    t.len <- t.len + 4

  let u64 t v =
    ensure t 8;
    Bytes.set_int64_be t.buf t.len v;
    t.len <- t.len + 8

  let bytes t b =
    ensure t (Bytes.length b);
    Bytes.blit b 0 t.buf t.len (Bytes.length b);
    t.len <- t.len + Bytes.length b

  let zeros t n =
    ensure t n;
    Bytes.fill t.buf t.len n '\000';
    t.len <- t.len + n

  (* reserve space for a 16-bit length and patch it later *)
  let patch_u16 t ~at v = Bytes.set_uint16_be t.buf at v

  let contents t = Bytes.sub t.buf 0 t.len
end

(* -- a bounds-checked reader -- *)

module R = struct
  type t = { buf : Bytes.t; mutable pos : int; stop : int }

  let of_bytes ?(pos = 0) ?stop buf =
    { buf; pos; stop = Option.value stop ~default:(Bytes.length buf) }

  let remaining t = t.stop - t.pos

  let need t n = if remaining t < n then fail "truncated message (need %d bytes)" n

  let u8 t =
    need t 1;
    let v = Bytes.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_be t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = Int32.to_int (Bytes.get_int32_be t.buf t.pos) land 0xFFFFFFFF in
    t.pos <- t.pos + 4;
    v

  let u64 t =
    need t 8;
    let v = Bytes.get_int64_be t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let bytes t n =
    need t n;
    let b = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    b

  let skip t n =
    need t n;
    t.pos <- t.pos + n

  let sub t n =
    need t n;
    let r = { buf = t.buf; pos = t.pos; stop = t.pos + n } in
    t.pos <- t.pos + n;
    r
end

(* -- OXM encoding -- *)

let oxm_basic = 0x8000
let oxm_experimenter = 0xFFFF
let nx_experimenter_id = 0x00002320 (* Nicira, as OVS extensions use *)

(* ONF basic field numbers for the fields that have one; the experimenter
   class carries the rest keyed by our own Field index *)
let basic_number ~nw_proto = function
  | FK.Field.In_port -> Some (0, 4)
  | FK.Field.Dl_dst -> Some (3, 6)
  | FK.Field.Dl_src -> Some (4, 6)
  | FK.Field.Dl_type -> Some (5, 2)
  | FK.Field.Vlan_tci -> Some (6, 2)
  | FK.Field.Nw_tos -> Some (8, 1)
  | FK.Field.Nw_proto -> Some (10, 1)
  | FK.Field.Nw_src -> Some (11, 4)
  | FK.Field.Nw_dst -> Some (12, 4)
  | FK.Field.Tp_src ->
      if nw_proto = Ovs_packet.Ipv4.Proto.udp then Some (15, 2) else Some (13, 2)
  | FK.Field.Tp_dst ->
      if nw_proto = Ovs_packet.Ipv4.Proto.udp then Some (16, 2) else Some (14, 2)
  | FK.Field.Tun_id -> Some (38, 8)
  | _ -> None

let field_of_basic = function
  | 0 -> (FK.Field.In_port, 4)
  | 3 -> (FK.Field.Dl_dst, 6)
  | 4 -> (FK.Field.Dl_src, 6)
  | 5 -> (FK.Field.Dl_type, 2)
  | 6 -> (FK.Field.Vlan_tci, 2)
  | 8 -> (FK.Field.Nw_tos, 1)
  | 10 -> (FK.Field.Nw_proto, 1)
  | 11 -> (FK.Field.Nw_src, 4)
  | 12 -> (FK.Field.Nw_dst, 4)
  | 13 | 15 -> (FK.Field.Tp_src, 2)
  | 14 | 16 -> (FK.Field.Tp_dst, 2)
  | 38 -> (FK.Field.Tun_id, 8)
  | n -> fail "unknown OXM basic field %d" n

let write_value w ~size v =
  match size with
  | 1 -> W.u8 w (v land 0xFF)
  | 2 -> W.u16 w (v land 0xFFFF)
  | 4 -> W.u32 w v
  | 6 ->
      W.u16 w ((v lsr 32) land 0xFFFF);
      W.u32 w (v land 0xFFFFFFFF)
  | 8 -> W.u64 w (Int64.of_int v)
  | n -> invalid_arg (Printf.sprintf "write_value: size %d" n)

let read_value r ~size =
  match size with
  | 1 -> R.u8 r
  | 2 -> R.u16 r
  | 4 -> R.u32 r
  | 6 ->
      let hi = R.u16 r in
      let lo = R.u32 r in
      (hi lsl 32) lor lo
  | 8 -> Int64.to_int (R.u64 r)
  | n -> fail "read_value: size %d" n

(* encode a match as an OXM list (with the ofp_match wrapper) *)
let encode_match w (m : Match_.t) =
  let start = w.W.len in
  W.u16 w 1 (* OFPMT_OXM *);
  let len_at = w.W.len in
  W.u16 w 0 (* patched below *);
  let nw_proto = FK.get m.Match_.key FK.Field.Nw_proto in
  Array.iter
    (fun f ->
      let mask = FK.get m.Match_.mask f in
      if mask <> 0 then begin
        let value = FK.get m.Match_.key f in
        let full = FK.Field.full_mask f in
        let has_mask = mask <> full in
        match basic_number ~nw_proto f with
        | Some (number, size) ->
            W.u16 w oxm_basic;
            W.u8 w ((number lsl 1) lor if has_mask then 1 else 0);
            W.u8 w (if has_mask then 2 * size else size);
            write_value w ~size value;
            if has_mask then write_value w ~size mask
        | None ->
            (* experimenter OXM: class, field = our index, 4-byte exp id *)
            W.u16 w oxm_experimenter;
            W.u8 w ((FK.Field.to_index f lsl 1) lor if has_mask then 1 else 0);
            let size = 8 in
            W.u8 w ((if has_mask then 2 * size else size) + 4);
            W.u32 w nx_experimenter_id;
            write_value w ~size value;
            if has_mask then write_value w ~size mask
      end)
    FK.Field.all;
  let match_len = w.W.len - start in
  W.patch_u16 w ~at:len_at match_len;
  (* pad to 8 bytes *)
  let pad = (8 - (match_len mod 8)) mod 8 in
  W.zeros w pad

let decode_match r : Match_.t =
  let m = Match_.catchall () in
  let typ = R.u16 r in
  if typ <> 1 then fail "unsupported match type %d" typ;
  let match_len = R.u16 r in
  if match_len < 4 then fail "bad match length %d" match_len;
  let body = R.sub r (match_len - 4) in
  let pad = (8 - (match_len mod 8)) mod 8 in
  R.skip r pad;
  while R.remaining body > 0 do
    let cls = R.u16 body in
    let fm = R.u8 body in
    let has_mask = fm land 1 = 1 in
    let number = fm lsr 1 in
    let _payload = R.u8 body in
    if cls = oxm_basic then begin
      let field, size = field_of_basic number in
      let value = read_value body ~size in
      let mask = if has_mask then read_value body ~size else FK.Field.full_mask field in
      ignore (Match_.with_masked m field value mask)
    end
    else if cls = oxm_experimenter then begin
      let exp = R.u32 body in
      if exp <> nx_experimenter_id then fail "unknown experimenter 0x%x" exp;
      if number < 0 || number >= FK.Field.count then fail "bad experimenter field %d" number;
      let field = FK.Field.all.(number) in
      let size = 8 in
      let value = read_value body ~size in
      let mask = if has_mask then read_value body ~size else FK.Field.full_mask field in
      ignore (Match_.with_masked m field value mask)
    end
    else fail "unknown OXM class 0x%x" cls
  done;
  m

(* -- actions -- *)

(* experimenter action subtypes for the OVS-only actions *)
let nxast_ct = 35
let nxast_tnl_push = 120
let nxast_tnl_pop = 121
let nxast_normal = 122
let nxast_flood = 123
let nxast_controller = 124
let nxast_in_port = 125
let nxast_reg_move = 126

let encode_action w (a : Action.t) =
  let experimenter subtype body =
    let start = w.W.len in
    W.u16 w 0xFFFF;
    let len_at = w.W.len in
    W.u16 w 0;
    W.u32 w nx_experimenter_id;
    W.u16 w subtype;
    body ();
    let pad = (8 - ((w.W.len - start) mod 8)) mod 8 in
    W.zeros w pad;
    W.patch_u16 w ~at:len_at (w.W.len - start)
  in
  match a with
  | Action.Output port ->
      W.u16 w 0 (* OFPAT_OUTPUT *);
      W.u16 w 16;
      W.u32 w port;
      W.u16 w 0xFFFF (* max_len *);
      W.zeros w 6
  | Action.Push_vlan _tci ->
      W.u16 w 17;
      W.u16 w 8;
      W.u16 w 0x8100;
      W.zeros w 2
  | Action.Pop_vlan ->
      W.u16 w 18;
      W.u16 w 8;
      W.zeros w 4
  | Action.Set_field (f, v) ->
      (* OFPAT_SET_FIELD with a single OXM TLV *)
      let start = w.W.len in
      W.u16 w 25;
      let len_at = w.W.len in
      W.u16 w 0;
      (match basic_number ~nw_proto:6 f with
      | Some (number, size) ->
          W.u16 w oxm_basic;
          W.u8 w (number lsl 1);
          W.u8 w size;
          write_value w ~size v
      | None ->
          W.u16 w oxm_experimenter;
          W.u8 w (FK.Field.to_index f lsl 1);
          W.u8 w (8 + 4);
          W.u32 w nx_experimenter_id;
          write_value w ~size:8 v);
      let pad = (8 - ((w.W.len - start) mod 8)) mod 8 in
      W.zeros w pad;
      W.patch_u16 w ~at:len_at (w.W.len - start)
  | Action.Ct { zone; commit; nat; table } ->
      experimenter nxast_ct (fun () ->
          W.u8 w (if commit then 1 else 0);
          W.u16 w zone;
          W.u8 w (match table with Some t -> t | None -> 0xFF);
          (match nat with
          | None -> W.u8 w 0
          | Some { Action.snat; dnat } ->
              W.u8 w 1;
              let enc = function
                | None -> W.u8 w 0
                | Some (ip, port) ->
                    W.u8 w 1;
                    W.u32 w ip;
                    W.u16 w port
              in
              enc snat;
              enc dnat))
  | Action.Tunnel_push ts ->
      experimenter nxast_tnl_push (fun () ->
          W.u8 w
            (match ts.Action.tnl_kind with
            | Ovs_packet.Tunnel.Geneve -> 0
            | Ovs_packet.Tunnel.Vxlan -> 1
            | Ovs_packet.Tunnel.Gre -> 2
            | Ovs_packet.Tunnel.Erspan -> 3);
          W.u32 w ts.Action.vni;
          W.u32 w ts.Action.remote_ip;
          W.u32 w ts.Action.local_ip;
          W.u64 w (Int64.of_int ts.Action.remote_mac);
          W.u64 w (Int64.of_int ts.Action.local_mac);
          W.u32 w ts.Action.out_port)
  | Action.Tunnel_pop resume -> experimenter nxast_tnl_pop (fun () -> W.u8 w resume)
  | Action.Normal -> experimenter nxast_normal (fun () -> ())
  | Action.Flood -> experimenter nxast_flood (fun () -> ())
  | Action.Controller -> experimenter nxast_controller (fun () -> ())
  | Action.In_port_output -> experimenter nxast_in_port (fun () -> ())
  | Action.Move (src, dst) ->
      experimenter nxast_reg_move (fun () ->
          W.u8 w (FK.Field.to_index src);
          W.u8 w (FK.Field.to_index dst))
  | Action.Drop -> ()  (* drop is the absence of actions *)
  | Action.Goto_table _ | Action.Meter _ ->
      invalid_arg "encode_action: instruction-level action"

let decode_action r : Action.t option =
  let typ = R.u16 r in
  let len = R.u16 r in
  if len < 4 then fail "bad action length %d" len;
  let body = R.sub r (len - 4) in
  match typ with
  | 0 ->
      let port = R.u32 body in
      Some (Action.Output port)
  | 17 -> Some (Action.Push_vlan 0)
  | 18 -> Some Action.Pop_vlan
  | 25 -> begin
      let cls = R.u16 body in
      let fm = R.u8 body in
      let number = fm lsr 1 in
      let _sz = R.u8 body in
      if cls = oxm_basic then begin
        let field, size = field_of_basic number in
        Some (Action.Set_field (field, read_value body ~size))
      end
      else begin
        let exp = R.u32 body in
        if exp <> nx_experimenter_id then fail "set_field experimenter 0x%x" exp;
        let field = FK.Field.all.(number) in
        Some (Action.Set_field (field, read_value body ~size:8))
      end
    end
  | 0xFFFF -> begin
      let exp = R.u32 body in
      if exp <> nx_experimenter_id then fail "unknown action experimenter 0x%x" exp;
      let subtype = R.u16 body in
      if subtype = nxast_ct then begin
        let commit = R.u8 body = 1 in
        let zone = R.u16 body in
        let tbl = R.u8 body in
        let table = if tbl = 0xFF then None else Some tbl in
        let nat =
          if R.u8 body = 0 then None
          else begin
            let dec () = if R.u8 body = 1 then begin
                let ip = R.u32 body in
                let port = R.u16 body in
                Some (ip, port)
              end
              else None
            in
            let snat = dec () in
            let dnat = dec () in
            Some { Action.snat; dnat }
          end
        in
        Some (Action.Ct { zone; commit; nat; table })
      end
      else if subtype = nxast_tnl_push then begin
        let kind =
          match R.u8 body with
          | 0 -> Ovs_packet.Tunnel.Geneve
          | 1 -> Ovs_packet.Tunnel.Vxlan
          | 2 -> Ovs_packet.Tunnel.Gre
          | _ -> Ovs_packet.Tunnel.Erspan
        in
        let vni = R.u32 body in
        let remote_ip = R.u32 body in
        let local_ip = R.u32 body in
        let remote_mac = Int64.to_int (R.u64 body) in
        let local_mac = Int64.to_int (R.u64 body) in
        let out_port = R.u32 body in
        Some
          (Action.Tunnel_push
             { Action.tnl_kind = kind; vni; remote_ip; local_ip; remote_mac;
               local_mac; out_port })
      end
      else if subtype = nxast_tnl_pop then Some (Action.Tunnel_pop (R.u8 body))
      else if subtype = nxast_normal then Some Action.Normal
      else if subtype = nxast_flood then Some Action.Flood
      else if subtype = nxast_controller then Some Action.Controller
      else if subtype = nxast_in_port then Some Action.In_port_output
      else if subtype = nxast_reg_move then begin
        let src = FK.Field.all.(R.u8 body) in
        let dst = FK.Field.all.(R.u8 body) in
        Some (Action.Move (src, dst))
      end
      else fail "unknown experimenter action subtype %d" subtype
    end
  | t -> fail "unknown action type %d" t

(* instructions: apply-actions (4), goto-table (1), meter (6) *)
let encode_instructions w (actions : Action.t list) =
  let gotos, meters, plain =
    List.fold_left
      (fun (g, m, p) a ->
        match a with
        | Action.Goto_table t -> (Some t, m, p)
        | Action.Meter id -> (g, Some id, p)
        | other -> (g, m, other :: p))
      (None, None, []) actions
  in
  let plain = List.rev plain in
  (match meters with
  | Some id ->
      W.u16 w 6;
      W.u16 w 8;
      W.u32 w id
  | None -> ());
  (* apply-actions, even when empty (an explicit drop) *)
  let start = w.W.len in
  W.u16 w 4;
  let len_at = w.W.len in
  W.u16 w 0;
  W.zeros w 4;
  List.iter (encode_action w) plain;
  W.patch_u16 w ~at:len_at (w.W.len - start);
  match gotos with
  | Some t ->
      W.u16 w 1;
      W.u16 w 8;
      W.u8 w t;
      W.zeros w 3
  | None -> ()

let decode_instructions r : Action.t list =
  let actions = ref [] and goto = ref None and meter = ref None in
  let saw_apply = ref false in
  while R.remaining r > 0 do
    let typ = R.u16 r in
    let len = R.u16 r in
    if len < 4 then fail "bad instruction length";
    let body = R.sub r (len - 4) in
    match typ with
    | 1 -> goto := Some (R.u8 body)
    | 6 -> meter := Some (R.u32 body)
    | 4 ->
        saw_apply := true;
        R.skip body 4;
        while R.remaining body > 0 do
          match decode_action body with
          | Some a -> actions := a :: !actions
          | None -> ()
        done
    | _ -> ()  (* ignore unknown instructions, as real switches do *)
  done;
  let base = List.rev !actions in
  (* an empty apply-actions instruction is the wire form of an explicit
     drop (that is how {!encode_action} emits [Action.Drop]); restore it
     so a matched rule drops visibly instead of emitting nothing *)
  let base =
    if base = [] && !saw_apply && !goto = None then [ Action.Drop ] else base
  in
  let base = match !meter with Some id -> Action.Meter id :: base | None -> base in
  match !goto with Some t -> base @ [ Action.Goto_table t ] | None -> base

(* -- messages -- *)

let msg_type = function
  | Hello -> 0
  | Error _ -> 1
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Packet_in _ -> 10
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Flow_stats_request _ -> 18
  | Flow_stats_reply _ -> 19

(** Encode one message with its header. *)
let encode ?(xid = 0) (m : msg) : Bytes.t =
  let w = W.create () in
  W.u8 w version;
  W.u8 w (msg_type m);
  let len_at = w.W.len in
  W.u16 w 0;
  W.u32 w xid;
  (match m with
  | Hello | Features_request -> ()
  | Error { err_type; code } ->
      W.u16 w err_type;
      W.u16 w code
  | Echo_request b | Echo_reply b -> W.bytes w b
  | Features_reply { datapath_id; n_tables } ->
      W.u64 w datapath_id;
      W.u32 w 0 (* n_buffers *);
      W.u8 w n_tables;
      W.zeros w 3;
      W.u32 w 0 (* capabilities *);
      W.u32 w 0
  | Packet_in { total_len; reason; table_id; in_port; data } ->
      W.u32 w 0xFFFFFFFF (* buffer id: none *);
      W.u16 w total_len;
      W.u8 w reason;
      W.u8 w table_id;
      W.u64 w 0L (* cookie *);
      let m = Match_.with_field (Match_.catchall ()) FK.Field.In_port in_port in
      encode_match w m;
      W.zeros w 2;
      W.bytes w data
  | Packet_out { in_port; actions; data } ->
      W.u32 w 0xFFFFFFFF;
      W.u32 w in_port;
      let actions_len_at = w.W.len in
      W.u16 w 0;
      W.zeros w 6;
      let a0 = w.W.len in
      List.iter (encode_action w) actions;
      W.patch_u16 w ~at:actions_len_at (w.W.len - a0);
      W.bytes w data
  | Flow_mod { command; table_id; priority; cookie; match_; actions } ->
      W.u64 w (Int64.of_int cookie);
      W.u64 w 0L (* cookie mask *);
      W.u8 w table_id;
      W.u8 w (match command with `Add -> 0 | `Modify -> 1 | `Delete -> 3);
      W.u16 w 0 (* idle timeout *);
      W.u16 w 0 (* hard timeout *);
      W.u16 w priority;
      W.u32 w 0xFFFFFFFF (* buffer *);
      W.u32 w 0xFFFFFFFF (* out port *);
      W.u32 w 0xFFFFFFFF (* out group *);
      W.u16 w 0 (* flags *);
      W.zeros w 2;
      encode_match w match_;
      encode_instructions w actions
  | Flow_stats_request { table_id } ->
      W.u16 w 1 (* OFPMP_FLOW *);
      W.u16 w 0;
      W.zeros w 4;
      W.u8 w table_id;
      W.zeros w 7
  | Flow_stats_reply rows ->
      W.u16 w 1;
      W.u16 w 0;
      W.zeros w 4;
      List.iter
        (fun (table, priority, n_packets) ->
          W.u16 w 16;
          W.u8 w table;
          W.u8 w 0;
          W.u16 w priority;
          W.zeros w 2;
          W.u64 w (Int64.of_int n_packets))
        rows);
  let b = W.contents w in
  Bytes.set_uint16_be b len_at (Bytes.length b);
  b

(** Decode the message that starts at byte [off] of [b] (default 0).
    Returns the message, its xid, and the number of bytes consumed
    (messages can be concatenated on a stream). *)
let decode ?(off = 0) (b : Bytes.t) : msg * int * int =
  let r = R.of_bytes ~pos:off b in
  let v = R.u8 r in
  if v <> version then fail "unsupported OpenFlow version 0x%x" v;
  let typ = R.u8 r in
  let total_len = R.u16 r in
  if total_len < 8 then fail "bad message length %d" total_len;
  if Bytes.length b - off < total_len then fail "truncated message";
  let xid = R.u32 r in
  let body = R.sub r (total_len - 8) in
  let m =
    match typ with
    | 0 -> Hello
    | 1 ->
        let err_type = R.u16 body in
        let code = R.u16 body in
        Error { err_type; code }
    | 2 -> Echo_request (R.bytes body (R.remaining body))
    | 3 -> Echo_reply (R.bytes body (R.remaining body))
    | 5 -> Features_request
    | 6 ->
        let datapath_id = R.u64 body in
        let _ = R.u32 body in
        let n_tables = R.u8 body in
        Features_reply { datapath_id; n_tables }
    | 10 ->
        let _buffer = R.u32 body in
        let total_len = R.u16 body in
        let reason = R.u8 body in
        let table_id = R.u8 body in
        let _cookie = R.u64 body in
        let m = decode_match body in
        R.skip body 2;
        let data = R.bytes body (R.remaining body) in
        let in_port = FK.get m.Match_.key FK.Field.In_port in
        Packet_in { total_len; reason; table_id; in_port; data }
    | 13 ->
        let _buffer = R.u32 body in
        let in_port = R.u32 body in
        let actions_len = R.u16 body in
        R.skip body 6;
        let acts = R.sub body actions_len in
        let actions = ref [] in
        while R.remaining acts > 0 do
          match decode_action acts with
          | Some a -> actions := a :: !actions
          | None -> ()
        done;
        let data = R.bytes body (R.remaining body) in
        Packet_out { in_port; actions = List.rev !actions; data }
    | 14 ->
        let cookie = Int64.to_int (R.u64 body) in
        let _mask = R.u64 body in
        let table_id = R.u8 body in
        let command =
          match R.u8 body with 3 -> `Delete | 1 -> `Modify | _ -> `Add
        in
        let _idle = R.u16 body in
        let _hard = R.u16 body in
        let priority = R.u16 body in
        R.skip body 16 (* buffer, out port, out group, flags, pad *);
        let match_ = decode_match body in
        let actions = decode_instructions body in
        Flow_mod { command; table_id; priority; cookie; match_; actions }
    | 18 ->
        R.skip body 8;
        let table_id = R.u8 body in
        Flow_stats_request { table_id }
    | 19 ->
        R.skip body 8;
        let rows = ref [] in
        while R.remaining body >= 16 do
          let _len = R.u16 body in
          let table = R.u8 body in
          let _ = R.u8 body in
          let priority = R.u16 body in
          R.skip body 2;
          let n_packets = Int64.to_int (R.u64 body) in
          rows := (table, priority, n_packets) :: !rows
        done;
        Flow_stats_reply (List.rev !rows)
    | t -> fail "unknown message type %d" t
  in
  (m, xid, total_len)
