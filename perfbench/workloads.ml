(* The two workloads: their snapshots, their seeded request streams and
   the verdict each request must produce.

   Every request carries an expectation built from facts known by
   construction (a no-op plan keeps PRE = POST; an announce or a
   withdraw breaks it on the touched prefix; an intent about a prefix
   the plan leaves alone reads the same as on the base).  The runner
   additionally compares a seeded subsample of verdicts byte for byte
   with the scratch path (Server.run_direct without incremental state
   and without the cache). *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Cp = Hoyan_config.Change_plan
module Types = Hoyan_config.Types
module Smap = Types.Smap
module Model = Hoyan_sim.Model
module Traffic_sim = Hoyan_sim.Traffic_sim
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Request = Hoyan_server.Request
module Server = Hoyan_server.Server

type name = Wan_change_verify | Small_tenant_mix

let all = [ Wan_change_verify; Small_tenant_mix ]

let to_string = function
  | Wan_change_verify -> "wan-change-verify"
  | Small_tenant_mix -> "small-tenant-mix"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* The snapshot each workload runs against.  Fixed: the seed drives the
   requests, not the network. *)
let params ~reduced = function
  | Wan_change_verify -> if reduced then G.small else G.wan
  | Small_tenant_mix -> G.small

(* Closed-loop clients: one outstanding request each. *)
let clients = function
  | Wan_change_verify -> 1
  | Small_tenant_mix -> 8

(* What a verdict must look like. *)
type expect = {
  x_verdict : bool option;  (** PASS / FAIL when known by construction *)
  x_contains : string list;  (** substrings the body must carry *)
  x_lacks : string list;  (** substrings the body must not carry *)
}

let any = { x_verdict = None; x_contains = []; x_lacks = [] }

type op = {
  o_rq : Request.t;
  o_expect : expect;
  o_key : int;  (** semantic identity: equal keys, equal bodies *)
}

(* ------------------------------------------------------------------ *)
(* The network facts the expectations are built from                  *)
(* ------------------------------------------------------------------ *)

type facts = {
  f_g : G.t;
  f_base : Preprocess.base;
  f_borders : string array;
  f_vendor_a : string array;  (** devices that take "router bgp" blocks *)
  f_devices : string array;
  f_inputs : Prefix.t array;  (** distinct input prefixes (v4) *)
  f_present : (string * Prefix.t, unit) Hashtbl.t;
      (** (device, prefix) with a best/ECMP base row *)
  f_links : ((string * string) * float) array;  (** loaded base links *)
}

let facts (g : G.t) (base : Preprocess.base) : facts =
  let rib = Lazy.force base.Preprocess.b_rib in
  let present = Hashtbl.create 65536 in
  List.iter
    (fun (r : Route.t) ->
      match r.Route.route_type with
      | Route.Best | Route.Ecmp ->
          Hashtbl.replace present (r.Route.device, r.Route.prefix) ()
      | Route.Backup -> ())
    rib;
  let tr = Lazy.force base.Preprocess.b_traffic in
  let links =
    Hashtbl.fold
      (fun l v acc -> if v > 0. then (l, v) :: acc else acc)
      tr.Traffic_sim.link_load []
    |> List.sort compare |> Array.of_list
  in
  let configs = g.G.model.Model.configs in
  {
    f_g = g;
    f_base = base;
    f_borders = Array.of_list g.G.borders;
    f_vendor_a =
      Smap.bindings configs
      |> List.filter (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
      |> List.map fst |> Array.of_list;
    f_devices = Smap.bindings configs |> List.map fst |> Array.of_list;
    f_inputs =
      base.Preprocess.b_input_routes
      |> List.map (fun (r : Route.t) -> r.Route.prefix)
      |> List.filter (fun p -> Prefix.family p = Ip.Ipv4)
      |> List.sort_uniq Prefix.compare |> Array.of_list;
    f_present = present;
    f_links = links;
  }

let asn (f : facts) dev =
  (Smap.find dev f.f_g.G.model.Model.configs).Types.dc_bgp.Types.bgp_asn

let vendor (f : facts) dev =
  (Smap.find dev f.f_g.G.model.Model.configs).Types.dc_vendor

(* Devices that hold a best/ECMP base row for [p]. *)
let holders (f : facts) p =
  Array.to_list f.f_devices
  |> List.filter (fun d -> Hashtbl.mem f.f_present (d, p))

let pick st a = a.(Random.State.int st (Array.length a))

(* An input prefix with a best/ECMP base row somewhere, and one device
   that holds it. *)
let rec pick_held st (f : facts) =
  let p = pick st f.f_inputs in
  match holders f p with
  | [] -> pick_held st f
  | hs -> (p, List.nth hs (Random.State.int st (List.length hs)))

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* A /24 in 203.0.0.0/8 no generated prefix uses; distinct per [k]
   modulo 2^16. *)
let fresh_prefix k =
  Prefix.of_string_exn (Printf.sprintf "203.%d.%d.0/24" ((k lsr 8) land 255) (k land 255))

let fresh_network k =
  Prefix.of_string_exn (Printf.sprintf "198.%d.%d.0/24" ((k lsr 8) land 255) (k land 255))

let announce ~name ~border p =
  Cp.make name
    ~new_routes:
      [
        Route.make ~device:border ~prefix:p
          ~as_path:(As_path.of_asns [ 7018; 3356 ])
          ~source:Route.Ebgp ();
      ]

let withdraw ~name p = Cp.make name ~withdraw:[ p ]

let network (f : facts) ~name ~dev p =
  Cp.make name
    ~commands:
      [ (dev, Printf.sprintf "router bgp %d\n network %s\n" (asn f dev) (Prefix.to_string p)) ]

(* Import-policy edit on a border's attached ISP policy. *)
let policy (f : facts) ~name ~dev ~pref =
  let block =
    if vendor f dev = "vendorA" then
      Printf.sprintf
        "route-map ISP_IN permit 10\n set community 64512:100 additive\n set \
         local-preference %d\n"
        pref
    else
      Printf.sprintf
        "route-policy ISP_IN permit node 10\n apply community 64512:100 \
         additive\n apply local-preference %d\n"
        pref
  in
  Cp.make name ~commands:[ (dev, block) ]

let link_down (f : facts) ~name st =
  let edges = Topology.edges f.f_g.G.model.Model.topo |> Array.of_list in
  let e = pick st edges in
  Cp.make name
    ~topo_ops:[ Cp.Remove_link { ra = e.Topology.src; rb = e.Topology.dst } ]

(* A plan the lint gate must fail: a neighbor's import policy names a
   route-map nobody defined. *)
let broken_policy (f : facts) ~name ~dev =
  let block =
    if vendor f dev = "vendorA" then
      Printf.sprintf "router bgp %d\n neighbor 10.255.255.1 remote-as 65001\n \
                      neighbor 10.255.255.1 route-map NO_SUCH_MAP in\n"
        (asn f dev)
    else
      Printf.sprintf "bgp %d\n peer 10.255.255.1 as-number 65001\n peer \
                      10.255.255.1 route-policy NO_SUCH_MAP import\n"
        (asn f dev)
  in
  Cp.make name ~commands:[ (dev, block) ]

(* ------------------------------------------------------------------ *)
(* Intents and what they must answer                                   *)
(* ------------------------------------------------------------------ *)

let pre_post = Intents.Route_change "PRE = POST"

let count_on dev =
  Intents.Route_change
    (Printf.sprintf "forall device in {%s} : PRE |> count() = POST |> count()" dev)

let reach ~present p devs =
  Intents.Route_reach { rr_prefix = p; rr_devices = devs; rr_expect = present }

let load_below (l, v) =
  Intents.Link_load_below { ll_link = l; ll_bps = (v *. 1.01) +. 1. }

let violated intent = "VIOLATED [" ^ Intents.to_string intent ^ "]"

(* Expectation for a list of (intent, holds?) pairs; [None] = not known
   by construction. *)
let expect_of ?(extra = []) (items : (Intents.t * bool option) list) : expect =
  let known = List.filter_map (fun (i, h) -> Option.map (fun h -> (i, h)) h) items in
  let all_known = List.length known = List.length items in
  let verdict =
    if List.exists (fun (_, h) -> not h) known then Some false
    else if all_known then Some true
    else None
  in
  {
    x_verdict = verdict;
    x_contains =
      extra @ List.filter_map (fun (i, h) -> if h then None else Some (violated i)) known;
    x_lacks = List.filter_map (fun (i, h) -> if h then Some (violated i) else None) known;
  }

let make_rq ~id ?(tenant = "t0") ?k ?scope cls plan items ~extra =
  let intents = List.map fst items in
  (Request.make ~tenant ~plan ~intents ?k ?scope ~id cls, expect_of ~extra items)

(* ------------------------------------------------------------------ *)
(* wan-change-verify: a stream of distinct change plans                *)
(* ------------------------------------------------------------------ *)

(* Plan kinds in stream order, one cycle.  A run always completes whole
   cycles (see [Run.cycle]), so every run executes each kind the same
   number of times, including one link-down plan per cycle: a topology
   change the incremental engine cannot restrict, so it falls back to a
   full fixpoint and is the cycle's slowest op.  Six of the nine are the
   cheap kinds (withdraw, network, no-op), so the median op lies inside
   that group rather than at its slowest member. *)
type kind = Announce | Withdraw | Network | Policy | Noop | Link_down

let change_kinds =
  [| Announce; Withdraw; Network; Noop; Link_down; Withdraw; Policy; Network; Noop |]

let kind_to_string = function
  | Announce -> "announce"
  | Withdraw -> "withdraw"
  | Network -> "network"
  | Policy -> "policy"
  | Noop -> "noop"
  | Link_down -> "linkdown"

let change_op (f : facts) ~seed i : op =
  let st = Random.State.make [| seed; i; 17 |] in
  let k = (seed * 7919) + i in
  let kind = change_kinds.(i mod Array.length change_kinds) in
  let name = Printf.sprintf "cv-%d-%d-%s" seed i (kind_to_string kind) in
  let cls = if i mod 2 = 0 then Request.Simulate else Request.Diff in
  let link () = pick st f.f_links in
  let rq, x =
    match kind with
    | Announce ->
        let border = pick st f.f_borders and p = fresh_prefix k in
        let items =
          [ (pre_post, Some false); (reach ~present:true p [ border ], Some true);
            (load_below (link ()), Some true) ]
        in
        make_rq ~id:name cls (announce ~name ~border p) items
          ~extra:[ Prefix.to_string p ]
    | Withdraw ->
        let p, dev = pick_held st f in
        make_rq ~id:name cls (withdraw ~name p)
          [ (reach ~present:false p [ dev ], Some true); (count_on dev, Some false) ]
          ~extra:[]
    | Network ->
        let dev = pick st f.f_vendor_a and p = fresh_network k in
        make_rq ~id:name cls (network f ~name ~dev p)
          [ (reach ~present:true p [ dev ], Some true); (count_on dev, Some false) ]
          ~extra:[]
    | Policy ->
        let dev = pick st f.f_borders in
        make_rq ~id:name cls
          (policy f ~name ~dev ~pref:(150 + Random.State.int st 200))
          [ (count_on dev, None); (pre_post, None) ]
          ~extra:[]
    | Noop ->
        make_rq ~id:name cls (Cp.make name)
          [ (pre_post, Some true); (load_below (link ()), Some true) ]
          ~extra:[]
    | Link_down ->
        let dev = pick st f.f_devices in
        make_rq ~id:name Request.Simulate (link_down f ~name st)
          [ (count_on dev, None) ]
          ~extra:[]
  in
  { o_rq = rq; o_expect = x; o_key = i }

(* ------------------------------------------------------------------ *)
(* small-tenant-mix: eight tenants over a pool of mostly duplicates    *)
(* ------------------------------------------------------------------ *)

let pool_size = 40

(* One distinct request per pool slot, spanning all five classes. *)
let pool_op (f : facts) ~seed j : op =
  let st = Random.State.make [| seed; j; 31 |] in
  let name = Printf.sprintf "pool-%d" j in
  let border = pick st f.f_borders in
  let reach_item () =
    let p = pick st f.f_inputs and d = pick st f.f_devices in
    (reach ~present:(Hashtbl.mem f.f_present (d, p)) p [ d ], Some true)
  in
  let rq, x =
    match j mod 5 with
    | 0 ->
        (* lint: a clean edit passes the gate, a dangling reference fails it *)
        if j mod 10 = 0 then
          make_rq ~id:name Request.Lint
            (broken_policy f ~name ~dev:border) [] ~extra:[ "NO_SUCH_MAP" ]
          |> fun (rq, x) -> (rq, { x with x_verdict = Some false })
        else
          make_rq ~id:name Request.Lint
            (policy f ~name ~dev:border ~pref:(150 + j)) [] ~extra:[]
    | 1 ->
        make_rq ~id:name Request.Precheck
          (policy f ~name ~dev:border ~pref:(150 + j))
          [ reach_item () ] ~extra:[]
        |> fun (rq, x) -> (rq, { any with x_lacks = x.x_lacks })
    | 2 ->
        let p = fresh_prefix ((seed * 7919) + j) in
        make_rq ~id:name Request.Simulate (announce ~name ~border p)
          [ (pre_post, Some false); reach_item () ]
          ~extra:[ Prefix.to_string p ]
    | 3 ->
        if j mod 2 = 1 then
          make_rq ~id:name Request.Diff (Cp.make name)
            [ (pre_post, Some true); reach_item () ] ~extra:[]
        else
          let dev = pick st f.f_vendor_a in
          let p = fresh_network ((seed * 7919) + j) in
          make_rq ~id:name Request.Diff (network f ~name ~dev p)
            [ (reach ~present:true p [ dev ], Some true); (count_on dev, Some false) ]
            ~extra:[]
    | _ ->
        (* whatif k=1: a prefix held on a device must survive any one
           link failure or the sweep names the failure *)
        let p, d = pick_held st f in
        make_rq ~id:name ~k:1 ~scope:Request.Links_only Request.Whatif
          (Cp.make name) [ (reach ~present:true p [ d ], None) ]
          ~extra:[ "whatif: property" ]
  in
  { o_rq = rq; o_expect = x; o_key = j }

(* Client [c]'s [n]-th request: a seeded draw from the pool, renamed. *)
let tenant_op (pool : op array) ~seed ~client n : op =
  let st = Random.State.make [| seed; client; n; 37 |] in
  let o = pool.(Random.State.int st (Array.length pool)) in
  {
    o with
    o_rq =
      {
        o.o_rq with
        Request.r_id = Printf.sprintf "%s#%d.%d" o.o_rq.Request.r_id client n;
        r_tenant = Printf.sprintf "tenant-%d" client;
      };
  }

(* ------------------------------------------------------------------ *)
(* Checking a verdict                                                   *)
(* ------------------------------------------------------------------ *)

(* [None] when the response meets the expectation, else the reason. *)
let check (x : expect) (status : Server.status) (body : string) : string option =
  let verdict =
    match status with
    | Server.Ok -> Some true
    | Server.Fail -> Some false
    | _ -> None
  in
  match verdict with
  | None -> Some ("status " ^ Server.status_to_string status)
  | Some v -> (
      match x.x_verdict with
      | Some e when e <> v ->
          Some (Printf.sprintf "verdict %s, expected %s" (if v then "PASS" else "FAIL")
                  (if e then "PASS" else "FAIL"))
      | _ -> (
          match List.find_opt (fun s -> not (Util.contains ~sub:s body)) x.x_contains with
          | Some s -> Some ("missing " ^ s)
          | None -> (
              match List.find_opt (fun s -> Util.contains ~sub:s body) x.x_lacks with
              | Some s -> Some ("unexpected " ^ s)
              | None -> None)))

(* A canonical rendering of a request, for the stream digest. *)
let describe (rq : Request.t) =
  let p = rq.Request.r_plan in
  String.concat "\n"
    ([ Request.class_to_string rq.Request.r_class; rq.Request.r_id; rq.Request.r_tenant;
       string_of_int rq.Request.r_k ]
    @ List.map (fun (d, b) -> d ^ ":" ^ b) p.Cp.cp_commands
    @ List.map Route.to_string p.Cp.cp_new_routes
    @ List.map Prefix.to_string p.Cp.cp_withdraw
    @ List.map
        (function
          | Cp.Remove_link { ra; rb } -> "remove-link " ^ ra ^ " " ^ rb
          | _ -> "topology-op")
        p.Cp.cp_topo_ops
    @ List.map Intents.to_string rq.Request.r_intents)
