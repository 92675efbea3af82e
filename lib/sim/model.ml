(** The compiled network model.

    The pre-processing "network model building service" (§2.2) parses all
    routers' configurations into Hoyan's internal model once a day; change
    verification then updates it incrementally.  This module compiles a
    topology plus per-device configurations into everything the simulators
    need: address ownership, BGP sessions, the IGP view, SR tunnels and
    the per-device local tables (connected + static routes). *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Printer = Hoyan_config.Printer
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Bgp = Hoyan_proto.Bgp
module Smap = Map.Make (String)

type t = {
  topo : Topology.t;
  configs : Types.t Smap.t;
  igp : Isis.t;
  owner_tbl : (Ip.t, string) Hashtbl.t; (* address -> owning device *)
  net : Bgp.network;
  local_tables : Route.t list Smap.t;
  tunnels : Hoyan_proto.Sr.tunnel list Smap.t;
  te_aware : bool;
}

let owner (t : t) (addr : Ip.t) : string option =
  Hashtbl.find_opt t.owner_tbl addr

let config (t : t) dev = Smap.find_opt dev t.configs

let vsb_of (configs : Types.t Smap.t) dev =
  match Smap.find_opt dev configs with
  | Some cfg -> (
      match Vsb.of_vendor cfg.Types.dc_vendor with
      | Some v -> v
      | None -> Vsb.vendor_a)
  | None -> Vsb.vendor_a

(* ------------------------------------------------------------------ *)
(* Local tables: connected and static routes                           *)
(* ------------------------------------------------------------------ *)

(** Direct (connected) routes of a device.  A non-host interface address
    produces both the subnet route and an extra host /32 (or /128) route —
    the quirk behind two Table-5 VSBs. *)
let direct_routes (dev : string) (cfg : Types.t) : Route.t list =
  List.concat_map
    (fun (i : Types.iface_config) ->
      match i.Types.if_addr with
      | None -> []
      | Some addr ->
          let bits = Ip.family_bits (Ip.family addr) in
          let subnet =
            Route.make ~device:dev
              ~prefix:(Prefix.make addr i.Types.if_plen)
              ~proto:Route.Direct ~preference:0 ~out_iface:i.Types.if_name
              ~source:Route.Local ()
          in
          if i.Types.if_plen >= bits then [ subnet ]
          else
            let host =
              Route.make ~device:dev ~prefix:(Prefix.make addr bits)
                ~proto:Route.Direct ~preference:0 ~out_iface:i.Types.if_name
                ~source:Route.Local ()
            in
            [ subnet; host ])
    cfg.Types.dc_ifaces

let static_routes (dev : string) (cfg : Types.t) : Route.t list =
  List.map
    (fun (s : Types.static_route) ->
      Route.make ~device:dev ~prefix:s.Types.st_prefix ~vrf:s.Types.st_vrf
        ~proto:Route.Static ?nexthop:s.Types.st_nexthop
        ?out_iface:s.Types.st_iface ~preference:s.Types.st_preference
        ~tag:s.Types.st_tag ~source:Route.Local ())
    cfg.Types.dc_statics

(** IS-IS loopback routes (only materialized when the device redistributes
    IS-IS into BGP; the IGP matrix serves all other purposes). *)
let isis_routes (igp : Isis.t) (topo : Topology.t) (dev : string)
    (cfg : Types.t) : Route.t list =
  let redistributes_isis =
    List.exists
      (fun (p, _) -> p = Route.Isis)
      cfg.Types.dc_bgp.Types.bgp_redistribute
  in
  if not redistributes_isis then []
  else
    List.filter_map
      (fun (d : Topology.device) ->
        if String.equal d.Topology.name dev then None
        else
          match Isis.cost igp ~src:dev ~dst:d.Topology.name with
          | None -> None
          | Some c ->
              let bits = Ip.family_bits (Ip.family d.Topology.router_id) in
              Some
                (Route.make ~device:dev
                   ~prefix:(Prefix.make d.Topology.router_id bits)
                   ~proto:Route.Isis ~preference:15 ~igp_cost:c
                   ~source:Route.Local ()))
      (Topology.devices topo)

(* ------------------------------------------------------------------ *)
(* Session resolution                                                  *)
(* ------------------------------------------------------------------ *)

(** The local address a device uses towards a given peer address: the
    interface address sharing the peer's subnet, falling back to the
    router id (loopback peering). *)
let local_addr_towards (cfg : Types.t) (router_id : Ip.t) (peer : Ip.t) : Ip.t =
  let on_same_subnet =
    List.find_opt
      (fun (i : Types.iface_config) ->
        match i.Types.if_addr with
        | Some a ->
            Ip.family a = Ip.family peer
            && Prefix.mem peer (Prefix.make a i.Types.if_plen)
        | None -> false)
      cfg.Types.dc_ifaces
  in
  match on_same_subnet with
  | Some i -> Option.value i.Types.if_addr ~default:router_id
  | None -> router_id

let sessions_of (topo : Topology.t) (igp : Isis.t)
    (owner_tbl : (Ip.t, string) Hashtbl.t) (dev : string) (cfg : Types.t) :
    Bgp.session list =
  let router_id =
    match Topology.device topo dev with
    | Some d -> d.Topology.router_id
    | None ->
        Option.value cfg.Types.dc_bgp.Types.bgp_router_id ~default:(Ip.V4 0)
  in
  List.filter_map
    (fun (nb : Types.neighbor) ->
      match Hashtbl.find_opt owner_tbl nb.Types.nb_addr with
      | None -> None (* external neighbor not in the model: input routes
                        stand in for whatever it would send *)
      | Some peer_dev ->
          if String.equal peer_dev dev then None
          else if
            (* a session is only up when the peer is reachable: a
               link-address peering (the neighbor address sits on one of
               our connected subnets) needs the physical link itself,
               while a loopback peering needs an IGP path *)
            (let direct_peering =
               List.exists
                 (fun (i : Types.iface_config) ->
                   match Types.iface_subnet i with
                   | Some subnet -> Prefix.mem nb.Types.nb_addr subnet
                   | None -> false)
                 cfg.Types.dc_ifaces
             in
             if direct_peering then
               not (Option.is_some (Topology.edge_between topo dev peer_dev))
             else not (Isis.reachable igp ~src:dev ~dst:peer_dev))
          then None
          else
            let ebgp = nb.Types.nb_remote_asn <> cfg.Types.dc_bgp.Types.bgp_asn in
            Some
              {
                Bgp.s_local = dev;
                s_peer = peer_dev;
                s_local_addr =
                  local_addr_towards cfg router_id nb.Types.nb_addr;
                s_peer_addr = nb.Types.nb_addr;
                s_ebgp = ebgp;
                s_import = nb.Types.nb_import;
                s_export = nb.Types.nb_export;
                s_rr_client = nb.Types.nb_rr_client;
                s_next_hop_self = nb.Types.nb_next_hop_self;
                s_add_paths = nb.Types.nb_add_paths;
                s_vrf = nb.Types.nb_vrf;
              })
    cfg.Types.dc_bgp.Types.bgp_neighbors

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

(** Compile the model.  [regex] injects the AS-path regex engine (the
    diagnosis experiments pass {!Hoyan_regex.Regex.Legacy.matches_str});
    [te_aware = false] reproduces the pre-2023 IS-IS-TE modelling gap. *)
let build ?(te_aware = true)
    ?(regex = fun p s -> Hoyan_regex.Regex.matches_str p s)
    (topo : Topology.t) (configs : Types.t Smap.t) : t =
  let igp = Isis.compute ~te_aware topo configs in
  (* address ownership: interface addresses + router ids (loopbacks) *)
  let owner_tbl = Hashtbl.create 1024 in
  Smap.iter
    (fun dev (cfg : Types.t) ->
      List.iter
        (fun (i : Types.iface_config) ->
          match i.Types.if_addr with
          | Some a -> Hashtbl.replace owner_tbl a dev
          | None -> ())
        cfg.Types.dc_ifaces)
    configs;
  List.iter
    (fun (d : Topology.device) ->
      Hashtbl.replace owner_tbl d.Topology.router_id d.Topology.name)
    (Topology.devices topo);
  (* local tables *)
  let local_tables =
    Smap.mapi
      (fun dev cfg ->
        direct_routes dev cfg @ static_routes dev cfg
        @ isis_routes igp topo dev cfg)
      configs
  in
  (* SR tunnels *)
  let endpoint_of addr = Hashtbl.find_opt owner_tbl addr in
  let tunnels =
    Smap.mapi
      (fun dev cfg -> Sr.resolve igp ~device:dev ~endpoint_of cfg)
      configs
  in
  (* device contexts *)
  let net =
    Smap.mapi
      (fun dev (cfg : Types.t) ->
        let topo_dev = Topology.device topo dev in
        let router_id =
          match topo_dev with
          | Some d -> d.Topology.router_id
          | None ->
              Option.value cfg.Types.dc_bgp.Types.bgp_router_id
                ~default:(Ip.V4 0)
        in
        let vsb = vsb_of configs dev in
        let dev_tunnels = Option.value (Smap.find_opt dev tunnels) ~default:[] in
        let statics = Option.value (Smap.find_opt dev local_tables) ~default:[] in
        let igp_cost (addr : Ip.t) : int option =
          (* connected subnet? *)
          let connected =
            List.exists
              (fun (i : Types.iface_config) ->
                match Types.iface_subnet i with
                | Some subnet -> Prefix.mem addr subnet
                | None -> false)
              cfg.Types.dc_ifaces
          in
          if connected then Some 0
          else
            match Hashtbl.find_opt owner_tbl addr with
            | Some owner_dev ->
                if String.equal owner_dev dev then Some 0
                else Isis.cost igp ~src:dev ~dst:owner_dev
            | None ->
                (* resolvable through a static route? *)
                if
                  List.exists
                    (fun (r : Route.t) ->
                      r.Route.proto = Route.Static
                      && Prefix.mem addr r.Route.prefix)
                    statics
                then Some 1
                else None
        in
        {
          Bgp.d_name = dev;
          d_asn = cfg.Types.dc_bgp.Types.bgp_asn;
          d_router_id = router_id;
          d_cfg = cfg;
          d_vsb = vsb;
          d_sessions = sessions_of topo igp owner_tbl dev cfg;
          d_igp_cost = igp_cost;
          d_sr_reach = (fun nh -> Sr.reaches dev_tunnels nh);
          d_regex = regex;
        })
      configs
  in
  { topo; configs; igp; owner_tbl; net; local_tables; tunnels; te_aware }

(** Compile the model a plan application produced against [t]
    ({!Hoyan_config.Change_plan.apply}); [t]'s topology stands in when
    the plan was applied without one. *)
let of_applied (t : t) (ap : Hoyan_config.Change_plan.applied) : t =
  let module Cp = Hoyan_config.Change_plan in
  build
    (Option.value ap.Cp.ap_topo ~default:t.topo)
    ap.Cp.ap_configs

(** Apply a change plan ({!Hoyan_config.Change_plan.apply}), then
    recompile.  Returns the updated model and the per-block application
    reports (parse/delete errors are risk signals surfaced to the
    verification layer). *)
let apply_change_plan ?(te_aware = true) ?regex (t : t)
    (cp : Hoyan_config.Change_plan.t) :
    t * Hoyan_config.Change_plan.apply_report list =
  let module Cp = Hoyan_config.Change_plan in
  let ap = Cp.apply ~topo:(Some t.topo) t.configs cp in
  ( build ~te_aware ?regex
      (Option.value ap.Cp.ap_topo ~default:t.topo)
      ap.Cp.ap_configs,
    ap.Cp.ap_reports )

(** Total configuration line count across the model (Table-1 style
    statistics). *)
let total_config_lines (t : t) =
  Smap.fold (fun _ cfg n -> n + Types.line_count cfg) t.configs 0
