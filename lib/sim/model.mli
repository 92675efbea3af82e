(** The compiled network model.

    The pre-processing "network model building service" (paper §2.2)
    parses all routers' configurations into this model once a day; change
    verification updates it incrementally.  It bundles everything the
    simulators need: address ownership, resolved BGP sessions, the IGP
    view, SR tunnels and the per-device local tables (connected + static
    routes). *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Printer = Hoyan_config.Printer
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Bgp = Hoyan_proto.Bgp
module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type t = {
  topo : Topology.t;
  configs : Types.t Smap.t;
  igp : Isis.t;
  owner_tbl : (Ip.t, string) Hashtbl.t;  (** address -> owning device *)
  net : Bgp.network;
  local_tables : Route.t list Smap.t;
      (** per device: connected + static (+ IS-IS loopback routes when the
          device redistributes IS-IS) *)
  tunnels : Sr.tunnel list Smap.t;
  te_aware : bool;
}

(** The device owning an address (interface address or loopback). *)
val owner : t -> Ip.t -> string option

val config : t -> string -> Types.t option

(** The vendor semantic profile of a device (defaults to vendor A for
    unknown vendors). *)
val vsb_of : Types.t Smap.t -> string -> Vsb.t

(** Compile a model.

    [regex] injects the AS-path regex engine (the diagnosis experiments
    pass the flawed {!Hoyan_regex.Regex.Legacy.matches_str});
    [te_aware = false] reproduces the pre-2023 IS-IS-TE modelling gap.

    Session viability: a link-address peering needs its physical link; a
    loopback peering needs an IGP path. *)
val build :
  ?te_aware:bool ->
  ?regex:(string -> string -> bool) ->
  Topology.t ->
  Types.t Smap.t ->
  t

(** Compile the model a plan application against [t] produced
    ({!Hoyan_config.Change_plan.apply}); [t]'s topology stands in when
    the plan was applied without one.  Compiles with {!build}'s
    defaults, as {!apply_change_plan} does. *)
val of_applied : t -> Hoyan_config.Change_plan.applied -> t

(** Apply a change plan ({!Hoyan_config.Change_plan.apply}: topology
    ops, then per-device command blocks in each device's own dialect)
    and recompile.  The per-device reports
    carry parse and deletion errors — risk signals surfaced by the
    verification layer (Table 6 "incorrect commands"). *)
val apply_change_plan :
  ?te_aware:bool ->
  ?regex:(string -> string -> bool) ->
  t ->
  Hoyan_config.Change_plan.t ->
  t * Hoyan_config.Change_plan.apply_report list

(** Total configuration line count across the model (Table-1 style
    statistics). *)
val total_config_lines : t -> int
