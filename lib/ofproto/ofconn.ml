(** An OpenFlow switch-side connection: the state machine ovs-vswitchd
    runs for each controller (or NSX agent) session. Feed it wire bytes;
    it applies FLOW_MODs to the pipeline and produces the reply bytes
    (HELLO, ECHO, FEATURES, flow stats). *)

type t = {
  pipeline : Pipeline.t;
  datapath_id : int64;
  mutable hello_received : bool;
  mutable flow_mods : int;
  mutable errors : int;
}

let create ?(datapath_id = 0x00002320L) ~pipeline () =
  { pipeline; datapath_id; hello_received = false; flow_mods = 0; errors = 0 }

(** Process one decoded message; returns reply messages. *)
let handle_msg t ~xid (m : Ofp_codec.msg) : (int * Ofp_codec.msg) list =
  match m with
  | Ofp_codec.Hello ->
      t.hello_received <- true;
      [ (xid, Ofp_codec.Hello) ]
  | Ofp_codec.Echo_request payload -> [ (xid, Ofp_codec.Echo_reply payload) ]
  | Ofp_codec.Features_request ->
      [ (xid,
         Ofp_codec.Features_reply
           { datapath_id = t.datapath_id; n_tables = Pipeline.n_tables t.pipeline }) ]
  | Ofp_codec.Flow_mod { command = `Add; table_id; priority; cookie; match_; actions } ->
      Pipeline.add_flow t.pipeline ~table:table_id ~cookie ~priority match_ actions;
      t.flow_mods <- t.flow_mods + 1;
      []
  | Ofp_codec.Flow_mod { command = `Modify; table_id; priority; cookie; match_; actions } ->
      (* OFPFC_MODIFY with our non-strict matcher: replace the rules the
         spec covers by one rule with the new actions. Delete-then-add
         keeps classifier invariants (max_priority, subtable GC) exact. *)
      ignore (Pipeline.del_flows ~table:table_id t.pipeline match_);
      Pipeline.add_flow t.pipeline ~table:table_id ~cookie ~priority match_ actions;
      t.flow_mods <- t.flow_mods + 1;
      []
  | Ofp_codec.Flow_mod { command = `Delete; table_id; match_; _ } ->
      (* table 0xFF is OFPTT_ALL: delete from every table *)
      let table = if table_id = 0xFF then None else Some table_id in
      ignore (Pipeline.del_flows ?table t.pipeline match_);
      t.flow_mods <- t.flow_mods + 1;
      []
  | Ofp_codec.Flow_stats_request { table_id } ->
      let rows = ref [] in
      Table.iter t.pipeline.Pipeline.tables.(table_id) (fun r ->
          rows := (table_id, r.Table.priority, r.Table.hits) :: !rows);
      [ (xid, Ofp_codec.Flow_stats_reply (List.rev !rows)) ]
  | Ofp_codec.Echo_reply _ | Ofp_codec.Features_reply _ | Ofp_codec.Packet_in _
  | Ofp_codec.Flow_stats_reply _ | Ofp_codec.Error _ ->
      []  (* controller-to-switch only handles requests *)
  | Ofp_codec.Packet_out _ -> []  (* packet injection handled by the caller *)

(** Feed raw bytes (possibly several concatenated messages); returns the
    encoded replies. Malformed input produces an OFPT_ERROR instead of
    tearing the session down. *)
let feed t (input : Bytes.t) : Bytes.t =
  let out = Stdlib.Buffer.create 64 in
  let pos = ref 0 in
  (try
     while Bytes.length input - !pos >= 8 do
       let m, xid, consumed = Ofp_codec.decode ~off:!pos input in
       pos := !pos + consumed;
       List.iter
         (fun (rx, reply) ->
           Stdlib.Buffer.add_bytes out (Ofp_codec.encode ~xid:rx reply))
         (handle_msg t ~xid m)
     done
   with Ofp_codec.Decode_error _ ->
     t.errors <- t.errors + 1;
     Stdlib.Buffer.add_bytes out
       (Ofp_codec.encode ~xid:0 (Ofp_codec.Error { err_type = 1; code = 0 })));
  Stdlib.Buffer.to_bytes out
