(** The change-verification pipeline (the blue boxes of Figure 2).

    Given a change plan, Hoyan (1) parses the commands and constructs the
    updated network model incrementally on top of the pre-computed base
    model, (2) runs route simulation on the pre-computed input routes
    (plus any new routes the plan announces), (3) runs traffic simulation
    on the pre-stored input flows, and (4) checks the formally specified
    intents against the simulated RIBs, flow paths, and traffic loads,
    emitting concrete counterexamples on violation. *)

open Hoyan_net
module Cp = Hoyan_config.Change_plan
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Framework = Hoyan_dist.Framework
module Lint = Hoyan_analysis.Lint
module Diagnostics = Hoyan_analysis.Diagnostics
module Semantic = Hoyan_analysis.Semantic
module Differential = Hoyan_analysis.Differential
module Incremental = Hoyan_sim.Incremental
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type request = {
  rq_name : string;
  rq_plan : Cp.t;
  rq_intents : Intents.t list;
}

(** Distributed-mode subtask coverage: how much of the split actually
    reached the merge (the phase outcome contract, surfaced). *)
type coverage = {
  cov_total : int;
  cov_merged : int;
  cov_failed : (string * string) list;
      (* permanently-failed subtask ids with their terminal reasons *)
}

type result = {
  vr_request : string;
  vr_ok : bool;
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
      (** parse/delete errors from applying the plan: risk signals on
          their own (Table 6 "incorrect commands") *)
  vr_lint : Diagnostics.t list;
      (** static-analysis findings from the pre-simulation gate *)
  vr_gated : bool;
      (** the fail-fast gate stopped the request before any simulation *)
  vr_precheck : (Intents.t * Semantic.verdict) list;
      (** the static pre-checker's verdict for every intent *)
  vr_sim_skipped : bool;
      (** every intent was resolved statically; no fixpoint ran *)
  vr_diff_class : Differential.classification option;
      (** differential mode only: the plan's semantic classification *)
  vr_carried : Intents.t list;
      (** differential mode only: intents whose base-run verdicts
          provably survive the change (outside the dirty region) *)
  vr_coverage : coverage option;
      (** distributed mode only: subtask coverage of the route phase *)
  vr_partial : bool;
      (** the simulated state is missing permanently-failed subtasks'
          results; [vr_ok] is never [true] when this is set *)
  vr_inc : Incremental.stats option;
      (** incremental-simulation accounting when the request ran through
          an [?inc] context or a cached [?inc_sim] artifact *)
  vr_updated_model : Model.t;
  vr_base_rib : Route.t list;
  vr_updated_rib : Route.t list;
  vr_updated_traffic : Traffic_sim.result Lazy.t;
  vr_sim_seconds : float;
  vr_traffic_seconds : float ref;
      (** wall-clock spent forcing [vr_updated_traffic] — measured at
          the forcing site, since the lazy is typically forced {e after}
          [vr_sim_seconds] stops counting (by the server or a traffic
          intent); [0.] until forced *)
}

(** Pipeline seconds plus (if forced) traffic-simulation seconds: the
    honest total cost of the request so far. *)
let total_seconds (r : result) : float =
  r.vr_sim_seconds +. !(r.vr_traffic_seconds)

(** How the static-analysis gate in front of the pipeline behaves. *)
type lint_gate =
  | Lint_off (* skip the analysis entirely *)
  | Lint_warn (* record diagnostics; never block (the default) *)
  | Lint_fail (* any error-severity diagnostic fails the request
                 before the first fixpoint runs *)

type sim_mode =
  | Direct (* in-process simulation *)
  | Distributed of { servers : int; subtasks : int }
      (* through the distributed framework (master/MQ/workers) *)

let plan_warnings (reports : Cp.apply_report list) : string list =
  List.concat_map
    (fun (r : Cp.apply_report) ->
      List.map
        (fun (i : Cp.line_issue) ->
          Printf.sprintf "%s: %s" r.Cp.ar_device (Cp.issue_to_string i))
        r.Cp.ar_issues)
    reports

(** RCL specification sources carried by the request's intents, for the
    static-analysis gate. *)
let lint_specs (intents : Intents.t list) : (string * string) list =
  List.mapi (fun i intent -> (i, intent)) intents
  |> List.filter_map (function
       | i, Intents.Route_change spec ->
           Some (Printf.sprintf "intent-%d" i, spec)
       | _ -> None)

(* ------------------------------------------------------------------ *)
(* The staged pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* What every stage of one request reads.  [applied] is the plan applied
   to the base — the one application per request, forced by whichever
   stage needs it first; [plan_diff] is the differential built from it. *)
type ctx = {
  tm : Telemetry.t;
  base : Preprocess.base;
  rq : request;
  rq_span : Hoyan_telemetry.Trace.span;
  t0 : float;
  traffic_seconds : float ref;
  applied : Cp.applied Lazy.t;
  plan_diff : Differential.diff Lazy.t;
}

(* What the stages have established so far; [finish] turns it into the
   request's [result]. *)
type state = {
  st_lint : Diagnostics.t list;
  st_gated : bool;
  st_model : Model.t;
  st_warnings : string list;
  st_diff : Differential.diff option;
  st_carried : Intents.t list;
  st_carried_violations : Intents.violation list;
  st_active : Intents.t list; (* intents not carried over *)
  st_precheck : (Intents.t * Semantic.verdict) list;
  st_static_violations : Intents.violation list;
  st_sim_intents : Intents.t list; (* left open by the pre-checker *)
  st_sim_skipped : bool;
  st_coverage : coverage option;
  st_inc : Incremental.sim option;
  st_base_rib : Route.t list;
  st_updated_rib : Route.t list;
  st_traffic : Traffic_sim.result Lazy.t;
  st_sim_violations : Intents.violation list;
}

let start ?tm (base : Preprocess.base) (rq : request) : ctx =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let rq_span =
    Telemetry.span tm ~args:[ ("request", rq.rq_name) ] "verify.request"
  in
  let t0 = Unix.gettimeofday () in
  let bm = base.Preprocess.b_model in
  let applied =
    lazy (Cp.apply ~topo:(Some bm.Model.topo) bm.Model.configs rq.rq_plan)
  in
  let plan_diff =
    lazy
      (Differential.of_applied ~tm
         (Lint.make ~topo:bm.Model.topo ~render:false bm.Model.configs)
         (Lazy.force applied))
  in
  { tm; base; rq; rq_span; t0; traffic_seconds = ref 0.; applied; plan_diff }

(* Traffic simulation is lazy and usually forced after [vr_sim_seconds]
   stops counting — time the forcing site so the cost is attributed
   somewhere ([vr_traffic_seconds] + a metric) instead of vanishing. *)
let timed_traffic cx (f : unit -> Traffic_sim.result) :
    Traffic_sim.result Lazy.t =
  lazy
    (let tt0 = Unix.gettimeofday () in
     let r = f () in
     let dt = Unix.gettimeofday () -. tt0 in
     cx.traffic_seconds := !(cx.traffic_seconds) +. dt;
     Telemetry.observe cx.tm "hoyan_verify_traffic_seconds" dt;
     r)

let violations st =
  st.st_static_violations @ st.st_sim_violations @ st.st_carried_violations

let partial st =
  match st.st_coverage with
  | Some c -> c.cov_merged < c.cov_total
  | None -> false

let verdict_ok st = violations st = [] && st.st_warnings = [] && not (partial st)

(* The one constructor of a [result]: every exit of [run] ends here. *)
let finish cx st ~ok : result =
  let violations = violations st in
  Telemetry.finish cx.tm cx.rq_span;
  if Telemetry.enabled cx.tm then
    Telemetry.event cx.tm "verify.done"
      [
        ("request", Journal.S cx.rq.rq_name);
        ("ok", Journal.B ok);
        ("violations", Journal.I (List.length violations));
        ("sim_skipped", Journal.B st.st_sim_skipped);
        ("partial", Journal.B (partial st));
      ];
  {
    vr_request = cx.rq.rq_name;
    vr_ok = ok;
    vr_violations = violations;
    vr_plan_warnings = st.st_warnings;
    vr_lint = st.st_lint;
    vr_gated = st.st_gated;
    vr_precheck = st.st_precheck;
    vr_sim_skipped = st.st_sim_skipped;
    vr_diff_class = Option.map (fun d -> d.Differential.df_class) st.st_diff;
    vr_carried = st.st_carried;
    vr_coverage = st.st_coverage;
    vr_partial = partial st;
    vr_inc =
      Option.map (fun (s : Incremental.sim) -> s.Incremental.s_stats) st.st_inc;
    vr_updated_model = st.st_model;
    vr_base_rib = st.st_base_rib;
    vr_updated_rib = st.st_updated_rib;
    vr_updated_traffic = st.st_traffic;
    (* elapsed minus whatever the intent checks spent forcing traffic:
       the traffic cost lives in [vr_traffic_seconds] only, whether the
       lazy was forced here or later by the caller *)
    vr_sim_seconds = Unix.gettimeofday () -. cx.t0 -. !(cx.traffic_seconds);
    vr_traffic_seconds = cx.traffic_seconds;
  }

(* Stage 0, the static-analysis gate: lint the applied plan, the configs
   it produces and the request's RCL specs before any fixpoint runs. *)
let gate cx lint : state =
  let lint_diags =
    match lint with
    | Lint_off -> []
    | Lint_warn | Lint_fail ->
        Telemetry.with_span cx.tm "verify.lint_gate" (fun () ->
            let bm = cx.base.Preprocess.b_model in
            (* the applied configs are re-rendered; the base's text is
               never read *)
            Lint.run_applied
              (Lint.make ~topo:bm.Model.topo ~render:false
                 ~specs:(lint_specs cx.rq.rq_intents) bm.Model.configs)
              (Some (Lazy.force cx.applied)))
  in
  let gated = lint = Lint_fail && Lint.has_errors lint_diags in
  if Telemetry.enabled cx.tm && lint <> Lint_off then
    Telemetry.event cx.tm "lint.gate"
      [
        ("request", Journal.S cx.rq.rq_name);
        ("diagnostics", Journal.I (List.length lint_diags));
        ("gated", Journal.B gated);
      ];
  if gated then Telemetry.count cx.tm "hoyan_verify_gated_total" 1;
  {
    st_lint = lint_diags;
    st_gated = gated;
    st_model = cx.base.Preprocess.b_model;
    st_warnings = [];
    st_diff = None;
    st_carried = [];
    st_carried_violations = [];
    st_active = cx.rq.rq_intents;
    st_precheck = [];
    st_static_violations = [];
    st_sim_intents = [];
    st_sim_skipped = false;
    st_coverage = None;
    st_inc = None;
    st_base_rib = [];
    st_updated_rib = [];
    (* nothing simulated yet *)
    st_traffic =
      timed_traffic cx (fun () ->
          Traffic_sim.run cx.base.Preprocess.b_model ~rib:[] ~flows:[] ());
    st_sim_violations = [];
  }

(* Stage 1: the updated model (a cached incremental artifact already
   carries the patched model and its apply reports). *)
let apply_plan cx ~inc_sim st : state =
  let model, reports =
    match inc_sim with
    | Some (s : Incremental.sim) ->
        (s.Incremental.s_model, s.Incremental.s_reports)
    | None ->
        Telemetry.with_span cx.tm "verify.model_update" (fun () ->
            let ap = Lazy.force cx.applied in
            (Model.of_applied cx.base.Preprocess.b_model ap, ap.Cp.ap_reports))
  in
  { st with st_model = model; st_warnings = plan_warnings reports }

(* Stage 2, differential carry-over: diff base against patched and carry
   over every intent the change provably cannot affect — reachability
   intents whose prefix is outside the statically computed dirty region,
   and (on a semantic no-op) everything else too.  Carried intents keep
   their base-run verdicts; only the affected remainder flows into the
   pre-checker and the simulator. *)
let carry_over cx ~diff st : state =
  if not diff then st
  else
    let tm = cx.tm and base = cx.base and rq = cx.rq in
    let d =
      Telemetry.with_span tm "verify.diff" (fun () -> Lazy.force cx.plan_diff)
    in
    let carried, active =
      if base.Preprocess.b_partial then begin
        (* carrying verdicts derived from a partial (failed-subtask) base
           run would promote unsound verdicts to proven facts: a route
           missing from a failed subtask looks like a base reachability
           violation — or masks one.  Refuse; every intent goes through
           the pre-checker and the simulator instead. *)
        Telemetry.count tm "hoyan_verify_carryover_refused_total" 1;
        if Telemetry.enabled tm then
          Telemetry.event tm "verify.carryover_refused"
            [
              ("request", Journal.S rq.rq_name);
              ("reason", Journal.S "base run partial");
            ];
        ([], rq.rq_intents)
      end
      else
        List.partition
          (function
            | Intents.Route_reach { rr_prefix; _ } ->
                Differential.carries_over ~tm d
                  ~input_routes:base.Preprocess.b_input_routes rr_prefix
            | _ -> d.Differential.df_class = Differential.No_op)
          rq.rq_intents
    in
    if Telemetry.enabled tm then
      Telemetry.event tm "verify.diff"
        [
          ("request", Journal.S rq.rq_name);
          ( "class",
            Journal.S
              (Differential.classification_to_string d.Differential.df_class)
          );
          ("carried", Journal.I (List.length carried));
          ("active", Journal.I (List.length active));
        ];
    (* carried intents are re-evaluated against the (cached) base state:
       their verdicts are by construction the base run's verdicts *)
    let carried_violations =
      if carried = [] then []
      else
        Telemetry.with_span tm "verify.carryover" (fun () ->
            let brib = Lazy.force base.Preprocess.b_rib in
            List.concat_map
              (fun intent ->
                Intents.verify intent ~model:base.Preprocess.b_model
                  ~base_rib:brib ~updated_rib:brib
                  ~base_traffic:base.Preprocess.b_traffic
                  ~updated_traffic:base.Preprocess.b_traffic)
              carried)
    in
    {
      st with
      st_diff = Some d;
      st_carried = carried;
      st_carried_violations = carried_violations;
      st_active = active;
    }

(* The pre-checker's verdict for every intent, in order: reachability
   intents are batched (per-prefix closures are shared); anything the
   pre-checker has no theory for goes straight to the simulator. *)
let precheck_verdicts cx (model : Model.t) (intents : Intents.t list) :
    (Intents.t * Semantic.verdict) list =
  let g =
    Semantic.build ~tm:cx.tm
      (Lint.make ~topo:model.Model.topo ~render:false model.Model.configs)
  in
  let sim_inputs =
    Cp.patched_routes cx.rq.rq_plan cx.base.Preprocess.b_input_routes
  in
  let tagged =
    List.mapi
      (fun i intent ->
        match intent with
        | Intents.Route_reach { rr_prefix; rr_devices; rr_expect } ->
            ( intent,
              Some
                {
                  Semantic.ri_name = Printf.sprintf "intent-%d" i;
                  ri_prefix = rr_prefix;
                  ri_devices = rr_devices;
                  ri_expect = rr_expect;
                } )
        | _ -> (intent, None))
      intents
  in
  let verdicts =
    Semantic.precheck_batch ~tm:cx.tm g ~input_routes:sim_inputs
      (List.filter_map snd tagged)
  in
  let rec zip tagged verdicts =
    match (tagged, verdicts) with
    | [], _ -> []
    | (intent, None) :: rest, vs ->
        (intent, Semantic.Needs_simulation) :: zip rest vs
    | (intent, Some _) :: rest, (_, v) :: vs -> (intent, v) :: zip rest vs
    | (intent, Some _) :: rest, [] ->
        (intent, Semantic.Needs_simulation) :: zip rest []
  in
  zip tagged verdicts

(* Stage 3, the static intent pre-check on the updated model: refuted
   intents become violations with a static witness, and when nothing is
   left for the simulator the fixpoints are skipped entirely. *)
let precheck_stage cx ~precheck st : state =
  let active = st.st_active in
  let results =
    if (not precheck) || active = [] then []
    else
      Telemetry.with_span cx.tm "verify.precheck" (fun () ->
          precheck_verdicts cx st.st_model active)
  in
  let static_violations =
    List.filter_map
      (function
        | intent, Semantic.Refuted why ->
            Some (Intents.violation intent ("statically refuted: " ^ why))
        | _ -> None)
      results
  in
  let sim_intents =
    if results = [] then active
    else
      List.filter_map
        (function intent, Semantic.Needs_simulation -> Some intent | _ -> None)
        results
  in
  if Telemetry.enabled cx.tm && results <> [] then begin
    let resolved = List.length active - List.length sim_intents in
    Telemetry.count cx.tm "hoyan_precheck_resolved_total" resolved;
    Telemetry.event cx.tm "verify.precheck"
      [
        ("request", Journal.S cx.rq.rq_name);
        ("intents", Journal.I (List.length active));
        ("resolved", Journal.I resolved);
        ("refuted", Journal.I (List.length static_violations));
      ]
  end;
  {
    st with
    st_precheck = results;
    st_static_violations = static_violations;
    st_sim_intents = sim_intents;
    st_sim_skipped =
      (precheck && active <> [] && sim_intents = [])
      || (cx.rq.rq_intents <> [] && active = []);
  }

(* The distributed route phase, with its outcome contract surfaced as
   coverage. *)
let distributed_route_phase cx ~chaos ~subtasks (model : Model.t) inputs =
  let fw = Framework.create ~tm:cx.tm ?chaos model in
  let phase = Framework.run_route_phase ~subtasks fw ~input_routes:inputs in
  let failed = phase.Framework.rp_failed in
  let cov =
    {
      cov_total = List.length phase.Framework.rp_subtasks;
      cov_merged =
        List.length phase.Framework.rp_subtasks - List.length failed;
      cov_failed =
        List.map
          (fun (f : Framework.subtask_failure) ->
            (f.Framework.sf_id, f.Framework.sf_reason))
          failed;
    }
  in
  (phase.Framework.rp_rib, Some cov)

(* Stage 4, route simulation on the updated model over the plan's
   patched inputs (reclaimed prefixes removed, announced ones added).
   With an incremental context ([?inc]) or a cached spliced artifact
   ([?inc_sim]), the Direct path re-converges only the plan's dirty
   region and splices into the converged base RIB instead of running the
   fixpoint from scratch (broad plans honestly fall back inside
   [Incremental.simulate] — see [vr_inc]).  Traffic stays lazy; the
   incremental path reuses the spliced-FIB traffic artifact. *)
let simulate cx ~mode ~chaos ~inc ~inc_sim st : state =
  let tm = cx.tm and rq = cx.rq and model = st.st_model in
  let inputs = Cp.patched_routes rq.rq_plan cx.base.Preprocess.b_input_routes in
  let rib, coverage, inc_used =
    if st.st_sim_skipped then ([], None, None)
    else
      Telemetry.with_span tm "verify.route_sim" (fun () ->
          match (mode, inc_sim, inc) with
          | Direct, Some (s : Incremental.sim), _ ->
              (s.Incremental.s_rib, None, Some s)
          | Direct, None, Some ictx ->
              let s =
                Incremental.simulate ~tm ~d:(Lazy.force cx.plan_diff) ictx
                  rq.rq_plan
              in
              (s.Incremental.s_rib, None, Some s)
          | Direct, None, None ->
              ( (Route_sim.run ~tm model ~input_routes:inputs ()).Route_sim.rib,
                None,
                None )
          | Distributed { servers = _; subtasks }, _, _ ->
              let rib, cov =
                distributed_route_phase cx ~chaos ~subtasks model inputs
              in
              (rib, cov, None))
  in
  let traffic =
    match inc_used with
    | Some s -> timed_traffic cx (fun () -> Lazy.force s.Incremental.s_traffic)
    | None ->
        timed_traffic cx (fun () ->
            Telemetry.with_span tm "verify.traffic_sim" (fun () ->
                Traffic_sim.run ~tm model ~rib
                  ~flows:cx.base.Preprocess.b_flows ()))
  in
  {
    st with
    st_updated_rib = rib;
    st_coverage = coverage;
    st_inc = inc_used;
    st_traffic = traffic;
  }

(* Stage 5, intent verification for whatever the pre-checker left open.
   Partial distributed results: intent verdicts over an incomplete RIB
   would be unsound (a route missing from a failed subtask looks like a
   reachability violation — or masks one).  The default refuses to
   verify; the graceful-degradation mode verifies anyway but the result
   is flagged [vr_partial] and can never be [vr_ok]. *)
let check cx ~on_partial st : state =
  let base = cx.base in
  let base_rib =
    if st.st_sim_skipped then [] else Lazy.force base.Preprocess.b_rib
  in
  let refuse_partial = partial st && on_partial = `Refuse in
  let sim_violations =
    if st.st_sim_intents = [] || refuse_partial then []
    else
      Telemetry.with_span cx.tm "verify.intents" (fun () ->
          List.concat_map
            (fun intent ->
              Intents.verify intent ~model:st.st_model ~base_rib
                ~updated_rib:st.st_updated_rib
                ~base_traffic:base.Preprocess.b_traffic
                ~updated_traffic:st.st_traffic)
            st.st_sim_intents)
  in
  { st with st_base_rib = base_rib; st_sim_violations = sim_violations }

(** Run one change-verification request against the pre-processed base
    through the stages above.  Each stage runs under its own telemetry
    span ([verify.lint_gate] / [verify.model_update] / [verify.diff] /
    [verify.carryover] / [verify.precheck] / [verify.route_sim] /
    [verify.traffic_sim] / [verify.intents]); the static-analysis gate
    additionally journals its outcome as a [lint.gate] event. *)
let run ?tm ?(mode = Direct) ?(lint = Lint_warn) ?(precheck = true)
    ?(diff = false) ?chaos ?(on_partial = `Refuse) ?(stop_after = `Full)
    ?inc ?inc_sim (base : Preprocess.base) (rq : request) : result =
  let cx = start ?tm base rq in
  let st = gate cx lint in
  (* a [`Gate]-bounded request (the server's lint class) is ok iff the
     gate found no error-severity diagnostic; a gated request never is *)
  if st.st_gated || stop_after = `Gate then
    finish cx st ~ok:(not (Lint.has_errors st.st_lint))
  else
    let st =
      apply_plan cx ~inc_sim st |> carry_over cx ~diff
      |> precheck_stage cx ~precheck
    in
    (* a [`Static]-bounded request (the server's precheck class) never
       simulates: whatever the pre-checker left open stays open, and the
       verdict covers only the statically decided part *)
    if stop_after = `Static then finish cx st ~ok:(verdict_ok st)
    else
      let st = simulate cx ~mode ~chaos ~inc ~inc_sim st |> check cx ~on_partial in
      finish cx st ~ok:(verdict_ok st)

let report (r : result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "=== change verification: %s ===\n" r.vr_request);
  Buffer.add_string b
    (Printf.sprintf "result: %s (%.2fs)%s%s\n"
       (if r.vr_ok then "PASS" else "FAIL")
       (total_seconds r)
       (if r.vr_gated then " [stopped by the static-analysis gate]" else "")
       (if r.vr_sim_skipped then
          " [all intents resolved statically; simulation skipped]"
        else ""));
  (match r.vr_inc with
  | Some st ->
      Buffer.add_string b
        (if st.Incremental.st_full_fallback then
           Printf.sprintf "incremental: full fallback (%s)\n"
             (Option.value ~default:"?" st.Incremental.st_fallback_reason)
         else
           Printf.sprintf
             "incremental: %d dirty prefix(es), %d delta row(s) spliced \
              over %d reused, %d device FIB(s) rebuilt\n"
             st.Incremental.st_dirty_prefixes st.Incremental.st_delta_rows
             st.Incremental.st_reused_rows st.Incremental.st_dirty_devices)
  | None -> ());
  (match r.vr_diff_class with
  | Some cls ->
      Buffer.add_string b
        (Printf.sprintf
           "differential: plan is %s; %d intent verdict(s) carried over \
            from the base run\n"
           (Hoyan_analysis.Differential.classification_to_string cls)
           (List.length r.vr_carried))
  | None -> ());
  (match r.vr_coverage with
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf "coverage: %d/%d subtasks merged%s\n" c.cov_merged
           c.cov_total
           (if r.vr_partial then
              " [PARTIAL: intent verdicts unsound over missing results]"
            else ""));
      List.iter
        (fun (id, reason) ->
          Buffer.add_string b
            (Printf.sprintf "failed subtask: %s: %s\n" id reason))
        c.cov_failed
  | None -> ());
  List.iter
    (fun (intent, verdict) ->
      match verdict with
      | Hoyan_analysis.Semantic.Needs_simulation -> ()
      | v ->
          Buffer.add_string b
            (Printf.sprintf "precheck: %s -> %s\n"
               (Intents.to_string intent)
               (Hoyan_analysis.Semantic.verdict_to_string v)))
    r.vr_precheck;
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "lint: %s\n" (Diagnostics.to_string d)))
    r.vr_lint;
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "plan warning: %s\n" w))
    r.vr_plan_warnings;
  List.iter
    (fun v ->
      Buffer.add_string b (Intents.violation_to_string v);
      Buffer.add_char b '\n')
    r.vr_violations;
  Buffer.contents b
