(** A small reactive OpenFlow controller — the remote end of the Fig 7
    channel, speaking the same wire bytes the switch does.

    [Learning_l2] implements the classic reactive L2 learning switch:
    every PACKET_IN teaches it where the source MAC lives; known
    destinations get a proactive FLOW_MOD (so later packets stay on the
    fast path) plus a PACKET_OUT for the packet in hand; unknown
    destinations are flooded. It exists both as a realistic controller
    workload and to exercise PACKET_IN/PACKET_OUT/FLOW_MOD end to end. *)

module FK = Ovs_packet.Flow_key

type t = {
  mutable mac_to_port : (int * int) list;  (** (mac, port) *)
  ports : int list;  (** floodable ports *)
  mutable packet_ins : int;
  mutable flow_mods_sent : int;
  mutable xid : int;
}

let create ~ports = { mac_to_port = []; ports; packet_ins = 0; flow_mods_sent = 0; xid = 100 }

let fresh_xid t =
  t.xid <- t.xid + 1;
  t.xid

(** React to one PACKET_IN; returns the wire-encodable replies. *)
let handle_packet_in t ~in_port ~(data : Bytes.t) : Ofp_codec.msg list =
  t.packet_ins <- t.packet_ins + 1;
  let pkt = Ovs_packet.Buffer.of_bytes data in
  match Ovs_packet.Ethernet.parse pkt with
  | None -> []
  | Some eth ->
      let src = eth.Ovs_packet.Ethernet.src and dst = eth.Ovs_packet.Ethernet.dst in
      (* learn the source *)
      if not (List.mem_assoc src t.mac_to_port) then
        t.mac_to_port <- (src, in_port) :: t.mac_to_port;
      let out_actions =
        match List.assoc_opt dst t.mac_to_port with
        | Some port -> [ Action.Output port ]
        | None ->
            List.filter_map
              (fun p -> if p <> in_port then Some (Action.Output p) else None)
              t.ports
      in
      let flow_mods =
        match List.assoc_opt dst t.mac_to_port with
        | Some port ->
            (* proactively pin the path so the datapath caches it *)
            t.flow_mods_sent <- t.flow_mods_sent + 1;
            let m =
              Match_.with_field
                (Match_.with_field (Match_.catchall ()) FK.Field.In_port in_port)
                FK.Field.Dl_dst dst
            in
            [ Ofp_codec.Flow_mod
                { command = `Add; table_id = 0; priority = 10; cookie = 0;
                  match_ = m; actions = [ Action.Output port ] } ]
        | None -> []
      in
      flow_mods
      @ [ Ofp_codec.Packet_out { in_port; actions = out_actions; data } ]

(** Process raw PACKET_IN bytes; returns reply bytes ready to feed back to
    the switch connection. *)
let feed t (input : Bytes.t) : Bytes.t =
  let out = Stdlib.Buffer.create 64 in
  let pos = ref 0 in
  (try
     while Bytes.length input - !pos >= 8 do
       let m, _, consumed = Ofp_codec.decode ~off:!pos input in
       pos := !pos + consumed;
       match m with
       | Ofp_codec.Packet_in { in_port; data; _ } ->
           List.iter
             (fun reply ->
               Stdlib.Buffer.add_bytes out (Ofp_codec.encode ~xid:(fresh_xid t) reply))
             (handle_packet_in t ~in_port ~data)
       | _ -> ()
     done
   with Ofp_codec.Decode_error _ -> ());
  Stdlib.Buffer.to_bytes out
