(** The flow key: every packet header and metadata field the OVS pipeline
    can match on, extracted once per packet ("miniflow extraction").

    Represented as a fixed-size [int array] indexed by {!Field.t}. This keeps
    masking, hashing and comparison generic and fast, which is exactly what
    the exact-match cache and the tuple-space classifier need. IPv6 addresses
    are folded into two 62-bit halves per address (documented lossy fold;
    prefix masks remain meaningful within each half). *)

module Field = struct
  type t =
    | In_port
    | Recirc_id
    | Dl_src
    | Dl_dst
    | Dl_type
    | Vlan_tci
    | Nw_src
    | Nw_dst
    | Nw_proto
    | Nw_tos
    | Nw_ttl
    | Nw_frag
    | Tp_src
    | Tp_dst
    | Tcp_flags
    | Tun_id
    | Tun_src
    | Tun_dst
    | Ct_state
    | Ct_zone
    | Ct_mark
    | Ip6_src_hi
    | Ip6_src_lo
    | Ip6_dst_hi
    | Ip6_dst_lo
    | Reg0  (** pipeline metadata registers (NSX uses them heavily) *)
    | Reg1
    | Reg2
    | Reg3
    | Reg4
    | Reg5
    | Reg6
    | Reg7

  let all =
    [|
      In_port; Recirc_id; Dl_src; Dl_dst; Dl_type; Vlan_tci; Nw_src; Nw_dst;
      Nw_proto; Nw_tos; Nw_ttl; Nw_frag; Tp_src; Tp_dst; Tcp_flags; Tun_id;
      Tun_src; Tun_dst; Ct_state; Ct_zone; Ct_mark; Ip6_src_hi; Ip6_src_lo;
      Ip6_dst_hi; Ip6_dst_lo; Reg0; Reg1; Reg2; Reg3; Reg4; Reg5; Reg6; Reg7;
    |]

  let count = Array.length all

  (* inlined so that [get]/[set] on a constant field compile to a plain
     array access *)
  let[@inline] to_index : t -> int = function
    | In_port -> 0
    | Recirc_id -> 1
    | Dl_src -> 2
    | Dl_dst -> 3
    | Dl_type -> 4
    | Vlan_tci -> 5
    | Nw_src -> 6
    | Nw_dst -> 7
    | Nw_proto -> 8
    | Nw_tos -> 9
    | Nw_ttl -> 10
    | Nw_frag -> 11
    | Tp_src -> 12
    | Tp_dst -> 13
    | Tcp_flags -> 14
    | Tun_id -> 15
    | Tun_src -> 16
    | Tun_dst -> 17
    | Ct_state -> 18
    | Ct_zone -> 19
    | Ct_mark -> 20
    | Ip6_src_hi -> 21
    | Ip6_src_lo -> 22
    | Ip6_dst_hi -> 23
    | Ip6_dst_lo -> 24
    | Reg0 -> 25
    | Reg1 -> 26
    | Reg2 -> 27
    | Reg3 -> 28
    | Reg4 -> 29
    | Reg5 -> 30
    | Reg6 -> 31
    | Reg7 -> 32

  let name = function
    | In_port -> "in_port"
    | Recirc_id -> "recirc_id"
    | Dl_src -> "dl_src"
    | Dl_dst -> "dl_dst"
    | Dl_type -> "dl_type"
    | Vlan_tci -> "vlan_tci"
    | Nw_src -> "nw_src"
    | Nw_dst -> "nw_dst"
    | Nw_proto -> "nw_proto"
    | Nw_tos -> "nw_tos"
    | Nw_ttl -> "nw_ttl"
    | Nw_frag -> "nw_frag"
    | Tp_src -> "tp_src"
    | Tp_dst -> "tp_dst"
    | Tcp_flags -> "tcp_flags"
    | Tun_id -> "tun_id"
    | Tun_src -> "tun_src"
    | Tun_dst -> "tun_dst"
    | Ct_state -> "ct_state"
    | Ct_zone -> "ct_zone"
    | Ct_mark -> "ct_mark"
    | Ip6_src_hi -> "ipv6_src_hi"
    | Ip6_src_lo -> "ipv6_src_lo"
    | Ip6_dst_hi -> "ipv6_dst_hi"
    | Ip6_dst_lo -> "ipv6_dst_lo"
    | Reg0 -> "reg0"
    | Reg1 -> "reg1"
    | Reg2 -> "reg2"
    | Reg3 -> "reg3"
    | Reg4 -> "reg4"
    | Reg5 -> "reg5"
    | Reg6 -> "reg6"
    | Reg7 -> "reg7"

  let of_name s =
    let rec find i =
      if i >= count then None
      else if name all.(i) = s then Some all.(i)
      else find (i + 1)
    in
    find 0

  (** Width of the field in bits, for exact-match mask construction. *)
  let width = function
    | In_port -> 32
    | Recirc_id -> 32
    | Dl_src | Dl_dst -> 48
    | Dl_type -> 16
    | Vlan_tci -> 16
    | Nw_src | Nw_dst -> 32
    | Nw_proto -> 8
    | Nw_tos -> 8
    | Nw_ttl -> 8
    | Nw_frag -> 8
    | Tp_src | Tp_dst -> 16
    | Tcp_flags -> 16
    | Tun_id -> 32
    | Tun_src | Tun_dst -> 32
    | Ct_state -> 16
    | Ct_zone -> 16
    | Ct_mark -> 32
    | Ip6_src_hi | Ip6_src_lo | Ip6_dst_hi | Ip6_dst_lo -> 62
    | Reg0 | Reg1 | Reg2 | Reg3 | Reg4 | Reg5 | Reg6 | Reg7 -> 32

  let full_mask f =
    let w = width f in
    if w >= 62 then max_int else (1 lsl w) - 1
end

type t = int array

(* ct_state bits, mirroring OVS's +new+est+rel+rpl+inv+trk *)
module Ct_state_bits = struct
  let new_ = 0x01
  let est = 0x02
  let rel = 0x04
  let rpl = 0x08
  let inv = 0x10
  let trk = 0x20
end

let create () : t = Array.make Field.count 0
let[@inline] get (k : t) f = k.(Field.to_index f)
let[@inline] set (k : t) f v = k.(Field.to_index f) <- v
let copy (k : t) : t = Array.copy k
let rec equal_from (a : t) (b : t) i =
  i >= Field.count || (a.(i) = b.(i) && equal_from a b (i + 1))

(* a field-by-field loop: cheaper than polymorphic equality on the
   EMC's hit path *)
let equal (a : t) (b : t) =
  Array.length a = Array.length b && equal_from a b 0

(** FNV-1a over all fields; the EMC and dpcls hash keys this way. *)
let hash (k : t) =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Field.count - 1 do
    h := (!h lxor k.(i)) * 0x100000001b3
  done;
  !h land max_int

(** Hash restricted to fields selected by a mask (dpcls subtable hashing). *)
let hash_masked (k : t) (mask : t) =
  let h = ref 0x3bf29ce484222325 in
  for i = 0 to Field.count - 1 do
    if mask.(i) <> 0 then h := (!h lxor (k.(i) land mask.(i))) * 0x100000001b3
  done;
  !h land max_int

let equal_masked (a : t) (b : t) (mask : t) =
  let rec go i =
    i >= Field.count
    || (a.(i) land mask.(i) = b.(i) land mask.(i) && go (i + 1))
  in
  go 0

(** Apply [mask] to [k], returning a fresh key with wildcarded bits zeroed. *)
let apply_mask (k : t) (mask : t) : t =
  Array.init Field.count (fun i -> k.(i) land mask.(i))

(** 5-tuple RSS hash, the value AF_XDP must compute in software (Sec 5.5). *)
let rss_hash (k : t) =
  let open Field in
  let h = ref 0x9e3779b9 in
  let mix v = h := (!h lxor v) * 0x01000193 land 0x7FFFFFFF in
  mix (get k Nw_src);
  mix (get k Nw_dst);
  mix (get k Nw_proto);
  mix (get k Tp_src);
  mix (get k Tp_dst);
  !h

(* Big-endian reads at offset [ofs] of a packet whose live bytes start at
   [s] in [d] — the [Buffer] accessors, restated here so the extraction
   loop inlines them. *)
let u8 d s ofs = Bytes.get_uint8 d (s + ofs)
let u16 d s ofs = Bytes.get_uint16_be d (s + ofs)
let u32 d s ofs = Int32.to_int (Bytes.get_int32_be d (s + ofs)) land 0xFFFF_FFFF
let mac d s ofs =
  (u16 d s ofs lsl 32) lor (u16 d s (ofs + 2) lsl 16) lor u16 d s (ofs + 4)

(* One 64-bit IPv6 address half at [ofs], folded to 62 bits (its value
   shifted right by two, as in {!Field}'s documented lossy fold). *)
let fold_ip6_half d s ofs = (u32 d s ofs lsl 30) lor (u32 d s (ofs + 4) lsr 2)

(** Extract the flow key from a packet into the caller-owned [k], the
    analogue of OVS's [miniflow_extract]: every field of [k] is
    overwritten. Parses Ethernet, VLAN, ARP, IPv4/IPv6 and L4 headers
    straight from the bytes (no header records) and copies packet metadata
    (port, recirculation, conntrack, tunnel). Like the header parsers it
    stands for, it sets [buf.l3_ofs] once the Ethernet header parses and
    [buf.l4_ofs] once the IPv4/IPv6 header does, and leaves them alone
    otherwise. Never raises on a well-formed buffer, whatever its bytes. *)
let extract_into (k : t) (buf : Buffer.t) =
  let open Field in
  Array.fill k 0 Field.count 0;
  set k In_port buf.Buffer.in_port;
  set k Recirc_id buf.Buffer.recirc_id;
  set k Ct_state buf.Buffer.ct_state;
  set k Ct_zone buf.Buffer.ct_zone;
  set k Ct_mark buf.Buffer.ct_mark;
  Array.blit buf.Buffer.regs 0 k (to_index Reg0) 8;
  (match buf.Buffer.tunnel with
  | Some tmd ->
      set k Tun_id tmd.Buffer.tun_id;
      set k Tun_src tmd.Buffer.tun_src;
      set k Tun_dst tmd.Buffer.tun_dst
  | None -> ());
  let len = Buffer.length buf in
  let d = buf.Buffer.data and s = buf.Buffer.start in
  (* Ethernet, with at most one 802.1Q tag *)
  let l3 =
    if len < Ethernet.header_len then -1
    else begin
      let ty = u16 d s 12 in
      if ty <> Ethernet.Ethertype.vlan then begin
        set k Dl_type ty;
        Ethernet.header_len
      end
      else if len < Ethernet.header_len + Ethernet.vlan_header_len then -1
      else begin
        set k Dl_type (u16 d s 16);
        set k Vlan_tci (u16 d s 14 lor 0x1000);
        Ethernet.header_len + Ethernet.vlan_header_len
      end
    end
  in
  if l3 >= 0 then begin
    buf.Buffer.l3_ofs <- l3;
    set k Dl_dst (mac d s 0);
    set k Dl_src (mac d s 6);
    let eth_type = get k Dl_type in
    if eth_type = Ethernet.Ethertype.ipv4 then begin
      if len >= l3 + Ipv4.header_len && u8 d s l3 lsr 4 = 4 then begin
        let ihl = (u8 d s l3 land 0xF) * 4 in
        if ihl >= Ipv4.header_len && len >= l3 + ihl then begin
          let l4 = l3 + ihl in
          buf.Buffer.l4_ofs <- l4;
          let frag_word = u16 d s (l3 + 6) in
          let frag_off = frag_word land 0x1FFF in
          let proto = u8 d s (l3 + 9) in
          set k Nw_src (u32 d s (l3 + 12));
          set k Nw_dst (u32 d s (l3 + 16));
          set k Nw_proto proto;
          set k Nw_tos (u8 d s (l3 + 1));
          set k Nw_ttl (u8 d s (l3 + 8));
          (* a fragment has MF set or a nonzero offset; only the first
             carries the L4 header *)
          set k Nw_frag
            (if frag_off > 0 || frag_word land 0x2000 <> 0 then 1 else 0);
          if frag_off = 0 then begin
            if proto = Ipv4.Proto.udp then begin
              if len >= l4 + Udp.header_len then begin
                set k Tp_src (u16 d s l4);
                set k Tp_dst (u16 d s (l4 + 2))
              end
            end
            else if proto = Ipv4.Proto.tcp then begin
              if len >= l4 + Tcp.header_len then begin
                set k Tp_src (u16 d s l4);
                set k Tp_dst (u16 d s (l4 + 2));
                set k Tcp_flags (u16 d s (l4 + 12) land 0x3F)
              end
            end
            else if proto = Ipv4.Proto.icmp then begin
              if len >= l4 + Icmp.header_len then begin
                set k Tp_src (u8 d s l4);
                set k Tp_dst (u8 d s (l4 + 1))
              end
            end
          end
        end
      end
    end
    else if eth_type = Ethernet.Ethertype.ipv6 then begin
      if len >= l3 + Ipv6.header_len then begin
        let w0 = u32 d s l3 in
        if w0 lsr 28 = 6 then begin
          buf.Buffer.l4_ofs <- l3 + Ipv6.header_len;
          set k Ip6_src_hi (fold_ip6_half d s (l3 + 8));
          set k Ip6_src_lo (fold_ip6_half d s (l3 + 16));
          set k Ip6_dst_hi (fold_ip6_half d s (l3 + 24));
          set k Ip6_dst_lo (fold_ip6_half d s (l3 + 32));
          set k Nw_proto (u8 d s (l3 + 6));
          set k Nw_tos ((w0 lsr 20) land 0xFF);
          set k Nw_ttl (u8 d s (l3 + 7))
        end
      end
    end
    else if eth_type = Ethernet.Ethertype.arp then begin
      if
        len >= l3 + Arp.payload_len
        && u16 d s l3 = 1 (* htype ethernet *)
        && u16 d s (l3 + 2) = Ethernet.Ethertype.ipv4
      then begin
        (* OVS convention: ARP op in nw_proto, spa/tpa in nw_src/dst *)
        set k Nw_proto (u16 d s (l3 + 6));
        set k Nw_src (u32 d s (l3 + 14));
        set k Nw_dst (u32 d s (l3 + 24))
      end
    end
  end

(** {!extract_into} a fresh key. *)
let extract (buf : Buffer.t) : t =
  let k = create () in
  extract_into k buf;
  k

let pp ppf (k : t) =
  let open Field in
  Fmt.pf ppf "in_port=%d" (get k In_port);
  if get k Recirc_id <> 0 then Fmt.pf ppf ",recirc=%d" (get k Recirc_id);
  if get k Tun_id <> 0 then Fmt.pf ppf ",tun_id=%d" (get k Tun_id);
  Fmt.pf ppf ",%s>%s,dl_type=%s"
    (Mac.to_string (get k Dl_src))
    (Mac.to_string (get k Dl_dst))
    (Ethernet.Ethertype.to_string (get k Dl_type));
  if get k Dl_type = Ethernet.Ethertype.ipv4 then
    Fmt.pf ppf ",%s>%s,proto=%s,tp=%d>%d"
      (Ipv4.addr_to_string (get k Nw_src))
      (Ipv4.addr_to_string (get k Nw_dst))
      (Ipv4.Proto.to_string (get k Nw_proto))
      (get k Tp_src) (get k Tp_dst);
  if get k Ct_state <> 0 then Fmt.pf ppf ",ct_state=0x%x" (get k Ct_state)
