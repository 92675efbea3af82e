(** Differential change-impact analysis: the static half of the paper's
    incremental verification loop.

    Given the base network (a {!Lint.input}) and a change plan, this pass
    computes — without running any fixpoint —

    - a {b semantic config diff}: the plan is applied to the base
      ({!Hoyan_config.Change_plan.apply}) and each applied command
      block's IR is diffed stanza-by-stanza (neighbors, policies,
      prefix lists, VRFs, statics, networks, redistribution, ...),
      classifying the plan as no-op / local / propagating and emitting
      the HOY030..HOY037 plan-risk diagnostics;
    - a {b blast radius}: the diff's touched objects are seeded into the
      PR4 control-plane graph and symbolic prefix-set dataflow
      ({!Semantic.closure}) to over-approximate the transitive dirty
      region — affected devices, prefix sets (as tries) and EC
      signatures — the invalidation set an incremental simulator needs;
    - a {b relational intent pre-check}: {!carries_over} decides, per
      reachability intent, whether the base run's verdict provably
      survives the change (the intent's prefix is outside the dirty
      region under the over-approximation) so a batch only simulates the
      affected remainder.

    Soundness discipline (mirrors PR4): every rule {e over}-approximates
    the set of (device, prefix) pairs whose simulated state can change.
    A change at device [d] can only alter prefix [p]'s routes if [d]
    carries [p] in the base or the patched closure {e and} the change
    touches a stanza whose prefix regions cover [p]; session-level and
    IGP-level changes are treated as touching every prefix, and topology
    operations dirty everything. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Smap = Types.Smap
module D = Diagnostics
module Telemetry = Hoyan_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Stanza identities and the semantic config diff                      *)
(* ------------------------------------------------------------------ *)

(** The unit of the semantic diff: one named (or keyed) config stanza. *)
type stanza =
  | S_neighbor of Ip.t
  | S_policy of string
  | S_prefix_list of string
  | S_community_list of string
  | S_aspath_filter of string
  | S_vrf of string
  | S_static of Prefix.t * string (* prefix, vrf *)
  | S_network of Prefix.t * string
  | S_aggregate of Prefix.t * string
  | S_redistribute
  | S_iface of string
  | S_isis
  | S_bgp_global
  | S_acl of string
  | S_pbr
  | S_sr_policy of string

let stanza_to_string = function
  | S_neighbor a -> Printf.sprintf "neighbor %s" (Ip.to_string a)
  | S_policy n -> Printf.sprintf "route-policy %s" n
  | S_prefix_list n -> Printf.sprintf "prefix-list %s" n
  | S_community_list n -> Printf.sprintf "community-list %s" n
  | S_aspath_filter n -> Printf.sprintf "as-path filter %s" n
  | S_vrf n -> Printf.sprintf "vrf %s" n
  | S_static (p, v) -> Printf.sprintf "static %s vrf %s" (Prefix.to_string p) v
  | S_network (p, v) ->
      Printf.sprintf "network %s vrf %s" (Prefix.to_string p) v
  | S_aggregate (p, v) ->
      Printf.sprintf "aggregate %s vrf %s" (Prefix.to_string p) v
  | S_redistribute -> "redistribution"
  | S_iface n -> Printf.sprintf "interface %s" n
  | S_isis -> "isis"
  | S_bgp_global -> "bgp"
  | S_acl n -> Printf.sprintf "acl %s" n
  | S_pbr -> "pbr"
  | S_sr_policy n -> Printf.sprintf "sr-policy %s" n

type change_kind = Added | Removed | Modified

let kind_to_string = function
  | Added -> "added"
  | Removed -> "removed"
  | Modified -> "modified"

type stanza_change = { sc_stanza : stanza; sc_kind : change_kind }

(** The per-device semantic diff plus the structured application issues
    (unparsed / wrong-dialect / failed-delete lines). *)
type device_diff = {
  dd_device : string;
  dd_base : Types.t;
  dd_patched : Types.t;
  dd_changes : stanza_change list;
  dd_block_lines : int; (* non-blank lines in the command block *)
  dd_issues : Cp.line_issue list;
}

(* Diff two String-keyed stanza maps; values are compared structurally
   (the IR is pure data). *)
let smap_diff mk (a : 'a Smap.t) (b : 'a Smap.t) acc =
  let acc =
    Smap.fold
      (fun k v acc ->
        match Smap.find_opt k b with
        | None -> { sc_stanza = mk k; sc_kind = Removed } :: acc
        | Some v' ->
            if v = v' then acc
            else { sc_stanza = mk k; sc_kind = Modified } :: acc)
      a acc
  in
  Smap.fold
    (fun k _ acc ->
      if Smap.mem k a then acc
      else { sc_stanza = mk k; sc_kind = Added } :: acc)
    b acc

(* Diff two keyed lists as multisets grouped by key, so list-order churn
   from the merge (sort_uniq on statics/networks) is not a change. *)
let keyed_diff mk key (xs : 'a list) (ys : 'a list) acc =
  let group l =
    List.fold_left
      (fun m x ->
        let k = key x in
        let prev = Option.value (List.assoc_opt k m) ~default:[] in
        (k, x :: prev) :: List.remove_assoc k m)
      [] l
  in
  let gx = group xs and gy = group ys in
  let acc =
    List.fold_left
      (fun acc (k, vs) ->
        match List.assoc_opt k gy with
        | None -> { sc_stanza = mk k; sc_kind = Removed } :: acc
        | Some vs' ->
            if List.sort compare vs = List.sort compare vs' then acc
            else { sc_stanza = mk k; sc_kind = Modified } :: acc)
      acc gx
  in
  List.fold_left
    (fun acc (k, _) ->
      if List.mem_assoc k gx then acc
      else { sc_stanza = mk k; sc_kind = Added } :: acc)
    acc gy

(** Stanza-by-stanza semantic diff of two device configs.  Keyed and
    order-insensitive: re-stating existing configuration (or merge-order
    churn) diffs to nothing. *)
let diff_configs (a : Types.t) (b : Types.t) : stanza_change list =
  let acc = [] in
  let acc =
    keyed_diff
      (fun k -> S_neighbor k)
      (fun (nb : Types.neighbor) -> nb.Types.nb_addr)
      a.Types.dc_bgp.Types.bgp_neighbors b.Types.dc_bgp.Types.bgp_neighbors
      acc
  in
  let acc =
    smap_diff (fun k -> S_policy k) a.Types.dc_policies b.Types.dc_policies acc
  in
  let acc =
    smap_diff
      (fun k -> S_prefix_list k)
      a.Types.dc_prefix_lists b.Types.dc_prefix_lists acc
  in
  let acc =
    smap_diff
      (fun k -> S_community_list k)
      a.Types.dc_community_lists b.Types.dc_community_lists acc
  in
  let acc =
    smap_diff
      (fun k -> S_aspath_filter k)
      a.Types.dc_aspath_filters b.Types.dc_aspath_filters acc
  in
  let acc =
    keyed_diff
      (fun k -> S_vrf k)
      (fun (v : Types.vrf_def) -> v.Types.vd_name)
      a.Types.dc_bgp.Types.bgp_vrfs b.Types.dc_bgp.Types.bgp_vrfs acc
  in
  let acc =
    keyed_diff
      (fun (p, v) -> S_static (p, v))
      (fun (s : Types.static_route) -> (s.Types.st_prefix, s.Types.st_vrf))
      a.Types.dc_statics b.Types.dc_statics acc
  in
  let acc =
    keyed_diff
      (fun (p, v) -> S_network (p, v))
      (fun (pv : Prefix.t * string) -> pv)
      a.Types.dc_bgp.Types.bgp_networks b.Types.dc_bgp.Types.bgp_networks acc
  in
  let acc =
    keyed_diff
      (fun (p, v) -> S_aggregate (p, v))
      (fun (ag : Types.aggregate) -> (ag.Types.ag_prefix, ag.Types.ag_vrf))
      a.Types.dc_bgp.Types.bgp_aggregates b.Types.dc_bgp.Types.bgp_aggregates
      acc
  in
  let acc =
    if
      List.sort compare a.Types.dc_bgp.Types.bgp_redistribute
      = List.sort compare b.Types.dc_bgp.Types.bgp_redistribute
    then acc
    else { sc_stanza = S_redistribute; sc_kind = Modified } :: acc
  in
  let acc =
    keyed_diff
      (fun k -> S_iface k)
      (fun (i : Types.iface_config) -> i.Types.if_name)
      a.Types.dc_ifaces b.Types.dc_ifaces acc
  in
  let acc =
    if a.Types.dc_isis = b.Types.dc_isis then acc
    else { sc_stanza = S_isis; sc_kind = Modified } :: acc
  in
  let acc =
    if
      a.Types.dc_bgp.Types.bgp_asn = b.Types.dc_bgp.Types.bgp_asn
      && a.Types.dc_bgp.Types.bgp_router_id = b.Types.dc_bgp.Types.bgp_router_id
    then acc
    else { sc_stanza = S_bgp_global; sc_kind = Modified } :: acc
  in
  let acc = smap_diff (fun k -> S_acl k) a.Types.dc_acls b.Types.dc_acls acc in
  let acc =
    if List.sort compare a.Types.dc_pbr = List.sort compare b.Types.dc_pbr then
      acc
    else { sc_stanza = S_pbr; sc_kind = Modified } :: acc
  in
  let acc =
    keyed_diff
      (fun k -> S_sr_policy k)
      (fun (s : Types.sr_policy) -> s.Types.sp_name)
      a.Types.dc_sr_policies b.Types.dc_sr_policies acc
  in
  List.rev acc

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type classification = No_op | Local | Propagating

let classification_to_string = function
  | No_op -> "no-op"
  | Local -> "local"
  | Propagating -> "propagating"

(* Policy names attached to constructs that act on routes: session
   import/export, VRF export, redistribution. *)
let attached_policies (cfg : Types.t) : string list =
  let bgp = cfg.Types.dc_bgp in
  List.concat_map
    (fun (nb : Types.neighbor) ->
      List.filter_map Fun.id [ nb.Types.nb_import; nb.Types.nb_export ])
    bgp.Types.bgp_neighbors
  @ List.filter_map
      (fun (v : Types.vrf_def) -> v.Types.vd_export_policy)
      bgp.Types.bgp_vrfs
  @ List.filter_map snd bgp.Types.bgp_redistribute

(* Match-clause references of the attached policies: the prefix /
   community / as-path lists whose change can alter route treatment. *)
let attached_refs (cfg : Types.t) :
    string list * string list * string list =
  let attached = attached_policies cfg in
  let pls = ref [] and cls = ref [] and afs = ref [] in
  List.iter
    (fun name ->
      match Types.find_policy cfg name with
      | None -> ()
      | Some rp ->
          List.iter
            (fun (n : Types.policy_node) ->
              List.iter
                (function
                  | Types.Match_prefix_list pl -> pls := pl :: !pls
                  | Types.Match_community_list cl -> cls := cl :: !cls
                  | Types.Match_aspath_filter af -> afs := af :: !afs
                  | _ -> ())
                n.Types.pn_matches)
            rp.Types.rp_nodes)
    attached;
  (!pls, !cls, !afs)

(* Whether one stanza change on [dev] can influence any other device's
   routes.  Conservative: only provably device-local stanzas (ACLs, PBR,
   unattached policy objects) are Local. *)
let change_propagates ~(base : Types.t) ~(patched : Types.t)
    (c : stanza_change) : bool =
  let attached name =
    List.mem name (attached_policies base)
    || List.mem name (attached_policies patched)
  in
  let referenced pick name =
    let of_cfg cfg = pick (attached_refs cfg) in
    List.mem name (of_cfg base) || List.mem name (of_cfg patched)
  in
  match c.sc_stanza with
  | S_acl _ | S_pbr -> false
  | S_policy n -> attached n
  | S_prefix_list n -> referenced (fun (p, _, _) -> p) n
  | S_community_list n -> referenced (fun (_, c, _) -> c) n
  | S_aspath_filter n -> referenced (fun (_, _, a) -> a) n
  | S_neighbor _ | S_vrf _ | S_static _ | S_network _ | S_aggregate _
  | S_redistribute | S_iface _ | S_isis | S_bgp_global | S_sr_policy _ ->
      true

(* ------------------------------------------------------------------ *)
(* Touched prefix regions: per-device precision for the dirty region    *)
(* ------------------------------------------------------------------ *)

(** Which prefixes a device's changes can affect: everything, or an
    explicit union of prefix regions. *)
type touched = All | Regions of Semantic.region list

let exact_region (p : Prefix.t) : Semantic.region =
  { Semantic.rg_prefix = p; rg_lo = Prefix.len p; rg_hi = Prefix.len p }

let region_contains (r : Semantic.region) (p : Prefix.t) =
  Prefix.family r.Semantic.rg_prefix = Prefix.family p
  && Prefix.subsumes r.Semantic.rg_prefix p
  && Prefix.len p >= r.Semantic.rg_lo
  && Prefix.len p <= r.Semantic.rg_hi

let touched_contains t p =
  match t with
  | All -> true
  | Regions rs -> List.exists (fun r -> region_contains r p) rs

(* Regions a changed prefix list can affect: entries present on exactly
   one side or differing by sequence number, both sides' denotations.
   Prefixes under no changed entry keep hitting the same unchanged
   earlier entry, so their evaluation cannot move. *)
let changed_entry_regions (a : Types.prefix_list option)
    (b : Types.prefix_list option) : Semantic.region list =
  let entries = function
    | None -> []
    | Some (pl : Types.prefix_list) -> pl.Types.pl_entries
  in
  let ea = entries a and eb = entries b in
  let find seq l =
    List.find_opt (fun (e : Types.prefix_entry) -> e.Types.pe_seq = seq) l
  in
  let changed side other =
    List.filter_map
      (fun (e : Types.prefix_entry) ->
        match find e.Types.pe_seq other with
        | Some e' when e = e' -> None
        | _ -> Some (Semantic.entry_region e))
      side
  in
  changed ea eb @ changed eb ea

(* Regions a changed policy node can affect, bounded by its prefix-list
   match clause (either family); nodes without one match any prefix. *)
let node_regions (cfg : Types.t) (n : Types.policy_node) :
    Semantic.region list option =
  let has_pl =
    List.exists
      (function Types.Match_prefix_list _ -> true | _ -> false)
      n.Types.pn_matches
  in
  if not has_pl then None
  else
    match
      ( Semantic.matchable_regions cfg Ip.Ipv4 n,
        Semantic.matchable_regions cfg Ip.Ipv6 n )
    with
    | None, None -> None (* referenced list undefined: conservative *)
    | r4, r6 ->
        Some (Option.value r4 ~default:[] @ Option.value r6 ~default:[])

let changed_node_regions ~(base : Types.t) ~(patched : Types.t) name :
    Semantic.region list option =
  let nodes cfg =
    match Types.find_policy cfg name with
    | None -> []
    | Some rp -> rp.Types.rp_nodes
  in
  let na = nodes base and nb = nodes patched in
  let find seq l =
    List.find_opt (fun (n : Types.policy_node) -> n.Types.pn_seq = seq) l
  in
  let changed cfg side other =
    List.filter_map
      (fun (n : Types.policy_node) ->
        match find n.Types.pn_seq other with
        | Some n' when n = n' -> None
        | _ -> Some (node_regions cfg n))
      side
  in
  let parts = changed base na nb @ changed patched nb na in
  if List.exists Option.is_none parts then None
  else Some (List.concat_map Option.get parts)

(* Regions of attached-policy nodes that reference [name] through a
   community-list or as-path-filter clause. *)
let referencing_node_regions (cfg : Types.t) ~clause name :
    Semantic.region list option =
  let refs (n : Types.policy_node) =
    List.exists
      (fun (c : Types.match_clause) ->
        match (clause, c) with
        | `Community, Types.Match_community_list x -> String.equal x name
        | `Aspath, Types.Match_aspath_filter x -> String.equal x name
        | _ -> false)
      n.Types.pn_matches
  in
  let parts =
    List.concat_map
      (fun pname ->
        match Types.find_policy cfg pname with
        | None -> []
        | Some rp ->
            List.filter_map
              (fun n -> if refs n then Some (node_regions cfg n) else None)
              rp.Types.rp_nodes)
      (attached_policies cfg)
  in
  if List.exists Option.is_none parts then None
  else Some (List.concat_map Option.get parts)

(* The touched-region set of one device diff.  [None]-producing (All)
   changes win; otherwise the union of the per-change regions, closed
   under static next-hop recursion (deleting a route a static resolves
   through can flip that static's installability). *)
let device_touched (dd : device_diff) : touched =
  let base = dd.dd_base and patched = dd.dd_patched in
  let exception Broad in
  try
    let regions =
      List.concat_map
        (fun c ->
          if not (change_propagates ~base ~patched c) then []
          else
            match c.sc_stanza with
            | S_static (p, _) | S_network (p, _) | S_aggregate (p, _) ->
                [ exact_region p ]
            | S_prefix_list n ->
                changed_entry_regions
                  (Types.find_prefix_list base n)
                  (Types.find_prefix_list patched n)
            | S_policy n -> (
                match changed_node_regions ~base ~patched n with
                | None -> raise Broad
                | Some rs -> rs)
            | S_community_list n -> (
                match
                  ( referencing_node_regions base ~clause:`Community n,
                    referencing_node_regions patched ~clause:`Community n )
                with
                | Some a, Some b -> a @ b
                | _ -> raise Broad)
            | S_aspath_filter n -> (
                match
                  ( referencing_node_regions base ~clause:`Aspath n,
                    referencing_node_regions patched ~clause:`Aspath n )
                with
                | Some a, Some b -> a @ b
                | _ -> raise Broad)
            | S_acl _ | S_pbr -> []
            | S_neighbor _ | S_vrf _ | S_redistribute | S_iface _ | S_isis
            | S_bgp_global | S_sr_policy _ ->
                raise Broad)
        dd.dd_changes
    in
    (* static next-hop recursion: a static whose next hop lives inside a
       touched region rides on routes that may appear or vanish *)
    let statics =
      List.sort_uniq compare (base.Types.dc_statics @ patched.Types.dc_statics)
    in
    let rec close regions =
      let extra =
        List.filter_map
          (fun (s : Types.static_route) ->
            match s.Types.st_nexthop with
            | Some nh
              when List.exists
                     (fun r ->
                       region_contains r
                         (Prefix.make nh (Ip.family_bits (Ip.family nh))))
                     regions
                   && not
                        (List.exists
                           (fun r ->
                             r = exact_region s.Types.st_prefix)
                           regions) ->
                Some (exact_region s.Types.st_prefix)
            | _ -> None)
          statics
      in
      if extra = [] then regions else close (extra @ regions)
    in
    Regions (close regions)
  with Broad -> All

(* ------------------------------------------------------------------ *)
(* The diff itself                                                     *)
(* ------------------------------------------------------------------ *)

type diff = {
  df_applied : Cp.applied; (* the plan applied to the base input *)
  df_base_input : Lint.input;
  df_patched_input : Lint.input;
  df_devices : device_diff list;
  df_class : classification;
  df_topo_dirty : bool; (* topology ops: everything is dirty *)
  df_touched : (string * touched) list; (* per changed device *)
  df_base_graph : Semantic.t Lazy.t;
  df_patched_graph : Semantic.t Lazy.t;
  df_dirty_cache : (string, bool) Hashtbl.t; (* per-prefix memo *)
}

let plan_of (d : diff) = d.df_applied.Cp.ap_plan

(** Build the differential of a plan already applied to the base input
    ({!Hoyan_config.Change_plan.apply}): diff base against patched per
    applied command block and classify the plan. *)
let of_applied ~tm (input : Lint.input) (ap : Cp.applied) : diff =
  Telemetry.with_span tm "differential.diff" (fun () ->
      let plan = ap.Cp.ap_plan in
      let devices =
        List.map
          (fun (e : Cp.edit) ->
            {
              dd_device = e.Cp.ed_device;
              dd_base = e.Cp.ed_base;
              dd_patched = e.Cp.ed_patched;
              dd_changes = diff_configs e.Cp.ed_base e.Cp.ed_patched;
              dd_block_lines = Cp.block_line_count e.Cp.ed_block;
              dd_issues = e.Cp.ed_issues;
            })
          ap.Cp.ap_edits
      in
      let topo_dirty = plan.Cp.cp_topo_ops <> [] in
      let routes_dirty =
        plan.Cp.cp_new_routes <> [] || plan.Cp.cp_withdraw <> []
      in
      let cls =
        if topo_dirty || routes_dirty then Propagating
        else
          List.fold_left
            (fun cls dd ->
              List.fold_left
                (fun cls c ->
                  if
                    change_propagates ~base:dd.dd_base ~patched:dd.dd_patched
                      c
                  then Propagating
                  else if cls = Propagating then cls
                  else Local)
                cls dd.dd_changes)
            No_op devices
      in
      let touched =
        List.filter_map
          (fun dd ->
            if dd.dd_changes = [] then None
            else
              match device_touched dd with
              | Regions [] -> None (* purely local changes *)
              | t -> Some (dd.dd_device, t))
          devices
      in
      let patched_input =
        Lint.make ?topo:ap.Cp.ap_topo ~render:false ap.Cp.ap_configs
      in
      {
        df_applied = ap;
        df_base_input = input;
        df_patched_input = patched_input;
        df_devices = devices;
        df_class = cls;
        df_topo_dirty = topo_dirty;
        df_touched = touched;
        df_base_graph = lazy (Semantic.build ~tm input);
        df_patched_graph = lazy (Semantic.build ~tm patched_input);
        df_dirty_cache = Hashtbl.create 64;
      })

(** Apply [plan] to the base input and build its differential. *)
let diff ?tm (input : Lint.input) (plan : Cp.t) : diff =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  of_applied ~tm input
    (Cp.apply ~topo:input.Lint.li_topo input.Lint.li_configs plan)

(* ------------------------------------------------------------------ *)
(* The dirty-region test and the relational carry-over rule             *)
(* ------------------------------------------------------------------ *)

(** Whether the plan can affect prefix [p]'s simulated routes anywhere.
    Over-approximate: [false] guarantees that base and patched
    simulations place byte-identical route state for [p] on every
    device, so any verdict about [p] carries over from the base run. *)
let prefix_affected ?tm (d : diff) ~(input_routes : Route.t list)
    (p : Prefix.t) : bool =
  let key = Prefix.to_string p in
  match Hashtbl.find_opt d.df_dirty_cache key with
  | Some v -> v
  | None ->
      let v =
        if d.df_class = No_op then false
        else if d.df_topo_dirty then true
        else if
          List.exists (Prefix.equal p) (plan_of d).Cp.cp_withdraw
          || List.exists
               (fun (r : Route.t) -> Prefix.equal r.Route.prefix p)
               (plan_of d).Cp.cp_new_routes
        then true
        else begin
          (* contributor changes can activate/deactivate an aggregate:
             if any touched region (or announced/withdrawn prefix) lies
             under an aggregate for [p], [p] is dirty too *)
          let seeds_under_aggregate =
            let sub_region (ag : Prefix.t) =
              {
                Semantic.rg_prefix = ag;
                rg_lo = Prefix.len ag;
                rg_hi = Prefix.bits ag;
              }
            in
            let seed_inside r =
              List.exists
                (fun (q : Prefix.t) -> region_contains r q)
                ((plan_of d).Cp.cp_withdraw
                @ List.map
                    (fun (x : Route.t) -> x.Route.prefix)
                    (plan_of d).Cp.cp_new_routes)
              || List.exists
                   (fun (_, t) ->
                     match t with
                     | All -> true
                     | Regions rs ->
                         List.exists
                           (fun (s : Semantic.region) ->
                             Semantic.regions_overlap r s)
                           rs)
                   d.df_touched
            in
            let has_aggregate (cfg : Types.t) =
              List.exists
                (fun (ag : Types.aggregate) ->
                  Prefix.equal ag.Types.ag_prefix p
                  && seed_inside (sub_region ag.Types.ag_prefix))
                cfg.Types.dc_bgp.Types.bgp_aggregates
            in
            Smap.exists
              (fun _ cfg -> has_aggregate cfg)
              d.df_base_input.Lint.li_configs
            || Smap.exists
                 (fun _ cfg -> has_aggregate cfg)
                 d.df_patched_input.Lint.li_configs
          in
          if seeds_under_aggregate then true
          else begin
            let touching =
              List.filter (fun (_, t) -> touched_contains t p) d.df_touched
            in
            if touching = [] then false
            else begin
              let bg = Lazy.force d.df_base_graph in
              let pg = Lazy.force d.df_patched_graph in
              let proutes = Cp.patched_routes (plan_of d) input_routes in
              let base_exact =
                Semantic.exact_origins bg ~input_routes p
              in
              let patched_exact =
                Semantic.exact_origins pg ~input_routes:proutes p
              in
              if base_exact <> patched_exact then true
              else begin
                let cl_b =
                  Semantic.closure ?tm ~exact:base_exact bg ~input_routes p
                in
                let cl_p =
                  Semantic.closure ?tm ~exact:patched_exact pg
                    ~input_routes:proutes p
                in
                List.exists
                  (fun (dev, _) ->
                    Hashtbl.mem cl_b dev || Hashtbl.mem cl_p dev)
                  touching
              end
            end
          end
        end
      in
      Hashtbl.replace d.df_dirty_cache key v;
      v

(** The relational carry-over rule for a reachability intent about
    prefix [p]: [true] when the base run's verdict provably survives the
    change. *)
let carries_over ?tm (d : diff) ~(input_routes : Route.t list) (p : Prefix.t)
    : bool =
  not (prefix_affected ?tm d ~input_routes p)

(* ------------------------------------------------------------------ *)
(* Blast radius: the dirty region as an invalidation set                *)
(* ------------------------------------------------------------------ *)

(** The transitive dirty region — what an incremental simulator must
    re-compute.  Prefixes are drawn from the known universe (monitored
    input routes plus the plan's own announcements and withdrawals);
    [im_all_prefixes] flags changes (topology ops) that dirty prefixes
    outside any enumerable universe. *)
type impact = {
  im_class : classification;
  im_all_prefixes : bool;
  im_devices : string list; (* sorted *)
  im_prefixes : unit Trie.Dual.t;
  im_ec_signatures : string list;
      (* per dirty prefix: "prefix -> {closure members}" *)
}

let impact ?tm (d : diff) ~(input_routes : Route.t list) : impact =
  let universe =
    List.sort_uniq Prefix.compare
      (List.map (fun (r : Route.t) -> r.Route.prefix) input_routes
      @ List.map
          (fun (r : Route.t) -> r.Route.prefix)
          (plan_of d).Cp.cp_new_routes
      @ (plan_of d).Cp.cp_withdraw)
  in
  let dirty =
    List.filter (fun p -> prefix_affected ?tm d ~input_routes p) universe
  in
  let devices = Hashtbl.create 64 in
  List.iter (fun (dev, _) -> Hashtbl.replace devices dev ()) d.df_touched;
  List.iter
    (fun op ->
      match op with
      | Cp.Add_device dv -> Hashtbl.replace devices dv.Topology.name ()
      | Cp.Remove_device n -> Hashtbl.replace devices n ()
      | Cp.Add_link { la; lb; _ } ->
          Hashtbl.replace devices la ();
          Hashtbl.replace devices lb ()
      | Cp.Remove_link { ra; rb } ->
          Hashtbl.replace devices ra ();
          Hashtbl.replace devices rb ())
    (plan_of d).Cp.cp_topo_ops;
  let signatures =
    List.map
      (fun p ->
        let pg = Lazy.force d.df_patched_graph in
        let proutes = Cp.patched_routes (plan_of d) input_routes in
        let cl = Semantic.closure ?tm pg ~input_routes:proutes p in
        let members =
          List.sort String.compare (Hashtbl.fold (fun k () l -> k :: l) cl [])
        in
        List.iter (fun dev -> Hashtbl.replace devices dev ()) members;
        Printf.sprintf "%s -> {%s}" (Prefix.to_string p)
          (String.concat "," members))
      dirty
  in
  {
    im_class = d.df_class;
    im_all_prefixes = d.df_topo_dirty;
    im_devices =
      List.sort String.compare (Hashtbl.fold (fun k () l -> k :: l) devices []);
    im_prefixes =
      List.fold_left
        (fun t p -> Trie.Dual.add t p ())
        Trie.Dual.empty dirty;
    im_ec_signatures = List.sort String.compare signatures;
  }

(* ------------------------------------------------------------------ *)
(* Plan-risk diagnostics: HOY030..HOY037                                *)
(* ------------------------------------------------------------------ *)

(* HOY030/HOY031: textually non-empty block with no semantic effect. *)
let noop_checks (dd : device_diff) : D.t list =
  if dd.dd_block_lines = 0 || dd.dd_changes <> [] then []
  else
    let parse_failures =
      List.length
        (List.filter (fun i -> i.Cp.ci_kind = Cp.Parse) dd.dd_issues)
    in
    if parse_failures > 0 && 2 * parse_failures >= dd.dd_block_lines then
      [
        D.make ~code:"HOY031" ~device:dd.dd_device ~obj:"command block"
          "%d of %d command line(s) fail to parse and the config is \
           unchanged: the block looks like the other vendor's dialect"
          parse_failures dd.dd_block_lines;
      ]
    else
      [
        D.make ~code:"HOY030" ~device:dd.dd_device ~obj:"command block"
          "%d command line(s) leave the semantic config unchanged: the \
           block re-states existing configuration"
          dd.dd_block_lines;
      ]

(* HOY032: the plan edits a policy node that is dead before and after. *)
let dead_edit_checks (dd : device_diff) : D.t list =
  let dead_objs cfg =
    List.filter_map
      (fun (d : D.t) -> d.D.d_loc.D.loc_object)
      (Semantic.dead_term_check dd.dd_device cfg)
  in
  List.filter_map
    (fun c ->
      match (c.sc_stanza, c.sc_kind) with
      | S_policy name, Modified ->
          let changed_nodes =
            match
              ( Types.find_policy dd.dd_base name,
                Types.find_policy dd.dd_patched name )
            with
            | Some a, Some b ->
                let find seq l =
                  List.find_opt
                    (fun (n : Types.policy_node) -> n.Types.pn_seq = seq)
                    l
                in
                List.filter_map
                  (fun (n : Types.policy_node) ->
                    match find n.Types.pn_seq a.Types.rp_nodes with
                    | Some n' when n = n' -> None
                    | _ -> Some n.Types.pn_seq)
                  b.Types.rp_nodes
            | _ -> []
          in
          let base_dead = dead_objs dd.dd_base in
          let patched_dead = dead_objs dd.dd_patched in
          let still_dead seq =
            let obj = Printf.sprintf "route-policy %s node %d" name seq in
            List.mem obj base_dead && List.mem obj patched_dead
          in
          (match List.find_opt still_dead changed_nodes with
          | Some seq ->
              Some
                (D.make ~code:"HOY032" ~device:dd.dd_device
                   ~obj:(Printf.sprintf "route-policy %s node %d" name seq)
                   "the edited term is dead (HOY024) before and after the \
                    change: earlier terms cover everything it can match")
          | None -> None)
      | _ -> None)
    dd.dd_changes

(* HOY033: the change grows the set of policy-less external ASNs to a
   transit surface (>= 2 distinct ASes) on a permissive-VSB vendor. *)
let transit_checks (dd : device_diff) : D.t list =
  let open_asns (cfg : Types.t) =
    let vsb = Semantic.vsb_of cfg in
    if not vsb.Hoyan_config.Vsb.missing_policy_accepts then []
    else
      List.sort_uniq Int.compare
        (List.filter_map
           (fun (nb : Types.neighbor) ->
             if
               nb.Types.nb_remote_asn <> cfg.Types.dc_bgp.Types.bgp_asn
               && nb.Types.nb_import = None
               && nb.Types.nb_export = None
             then Some nb.Types.nb_remote_asn
             else None)
           cfg.Types.dc_bgp.Types.bgp_neighbors)
  in
  let before = open_asns dd.dd_base and after = open_asns dd.dd_patched in
  if List.length after >= 2 && List.length after > List.length before then
    [
      D.make ~code:"HOY033" ~device:dd.dd_device ~obj:"bgp"
        "the change widens the policy-less eBGP transit surface from %d \
         to %d external ASes (%s)"
        (List.length before) (List.length after)
        (String.concat ", " (List.map string_of_int after));
    ]
  else []

(* HOY034: a deleted neighbor stanza whose peer still points back. *)
let broken_session_checks (d : diff) (dd : device_diff) : D.t list =
  let bg = Lazy.force d.df_base_graph in
  List.filter_map
    (fun c ->
      match (c.sc_stanza, c.sc_kind) with
      | S_neighbor addr, Removed -> (
          let edge =
            List.find_opt
              (fun (e : Semantic.session_edge) ->
                String.equal e.Semantic.se_src dd.dd_device
                && Ip.equal e.Semantic.se_out.Types.nb_addr addr)
              bg.Semantic.g_edges
          in
          match edge with
          | None -> None
          | Some e ->
              let peer = e.Semantic.se_dst in
              let peer_cfg =
                match
                  Smap.find_opt peer d.df_patched_input.Lint.li_configs
                with
                | Some cfg -> Some cfg
                | None -> None
              in
              let peer_still_points_back =
                match peer_cfg with
                | None -> false (* peer removed too *)
                | Some cfg ->
                    Semantic.stanzas_towards bg.Semantic.g_owner cfg
                      dd.dd_device
                    <> []
              in
              if peer_still_points_back then
                Some
                  (D.make ~code:"HOY034" ~device:dd.dd_device
                     ~obj:(Printf.sprintf "neighbor %s" (Ip.to_string addr))
                     "deleting this neighbor stanza leaves the BGP session \
                      with %s half-configured: the peer still points back"
                     peer)
              else None)
      | _ -> None)
    dd.dd_changes

(* HOY035: the plan deletes the only origination of a propagated prefix. *)
let origination_checks ?tm (d : diff) ~input_routes (dd : device_diff) :
    D.t list =
  let bg = Lazy.force d.df_base_graph in
  let pg = Lazy.force d.df_patched_graph in
  let proutes = Cp.patched_routes (plan_of d) input_routes in
  List.filter_map
    (fun c ->
      match (c.sc_stanza, c.sc_kind) with
      | (S_network (p, _) | S_static (p, _)), Removed ->
          let base_exact = Semantic.exact_origins bg ~input_routes p in
          let patched_exact =
            Semantic.exact_origins pg ~input_routes:proutes p
          in
          if
            List.mem_assoc dd.dd_device base_exact
            && patched_exact = []
            && Hashtbl.length
                 (Semantic.closure ?tm ~exact:base_exact bg ~input_routes p)
               >= 2
          then
            Some
              (D.make ~code:"HOY035" ~device:dd.dd_device
                 ~obj:(stanza_to_string c.sc_stanza)
                 "the deleted stanza is the only origination of %s, which \
                  the base control plane propagates beyond this device"
                 (Prefix.to_string p))
          else None
      | _ -> None)
    dd.dd_changes

(* HOY036: withdrawals of prefixes no monitored input route announces. *)
let withdraw_checks (d : diff) ~(input_routes : Route.t list) : D.t list =
  if input_routes = [] then []
  else
    List.filter_map
      (fun (p : Prefix.t) ->
        if
          List.exists
            (fun (r : Route.t) -> Prefix.equal r.Route.prefix p)
            input_routes
        then None
        else
          Some
            (D.make ~code:"HOY036" ~obj:(Prefix.to_string p)
               "the plan withdraws %s but no monitored input route \
                announces it: the withdrawal is a no-op"
               (Prefix.to_string p)))
      (plan_of d).Cp.cp_withdraw

(** Run the HOY030..HOY037 plan-risk checks over a diff.  [input_routes]
    (the monitored base announcements) feed the origination, withdrawal
    and impact-summary checks; without them those checks stay quiet
    rather than guessing. *)
let check ?tm ?(input_routes = []) (d : diff) : D.t list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "differential.check" (fun () ->
      let per_device =
        List.concat_map
          (fun dd ->
            noop_checks dd @ dead_edit_checks dd @ transit_checks dd
            @ broken_session_checks d dd
            @ origination_checks ~tm d ~input_routes dd)
          d.df_devices
      in
      (* blocks that never produced a device diff (unknown device):
         surface their structured issues under the existing plan-parse
         code rather than dropping them *)
      let orphaned =
        List.concat_map
          (fun (r : Cp.apply_report) ->
            if
              List.exists
                (fun dd -> String.equal dd.dd_device r.Cp.ar_device)
                d.df_devices
            then []
            else
              List.map
                (fun (i : Cp.line_issue) ->
                  D.make ~code:"HOY014" ~device:r.Cp.ar_device
                    ~obj:(if i.Cp.ci_text = "" then "command block"
                          else i.Cp.ci_text)
                    ~line:i.Cp.ci_lnum "command does not apply: %s"
                    i.Cp.ci_msg)
                r.Cp.ar_issues)
          d.df_applied.Cp.ap_reports
      in
      let summary =
        if d.df_class <> Propagating then []
        else
          let im = impact ~tm d ~input_routes in
          [
            D.make ~code:"HOY037" ~obj:"blast radius"
              "propagating change: dirty region spans %d device(s) and %s"
              (List.length im.im_devices)
              (if im.im_all_prefixes then
                 "every prefix (topology operation)"
               else
                 Printf.sprintf "%d of %d monitored prefix(es)"
                   (Trie.Dual.cardinal im.im_prefixes)
                   (List.length
                      (List.sort_uniq Prefix.compare
                         (List.map
                            (fun (r : Route.t) -> r.Route.prefix)
                            input_routes))));
          ]
      in
      List.sort D.compare_diag
        (per_device @ orphaned @ withdraw_checks d ~input_routes @ summary))

(** One-line rendering of a diff for CLI output. *)
let summary (d : diff) : string =
  let changes =
    List.fold_left (fun n dd -> n + List.length dd.dd_changes) 0 d.df_devices
  in
  Printf.sprintf "%s: %d device block(s), %d stanza change(s), %s"
    (plan_of d).Cp.cp_name
    (List.length d.df_devices)
    changes
    (classification_to_string d.df_class)
