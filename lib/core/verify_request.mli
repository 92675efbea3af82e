(** The change-verification pipeline (the blue boxes of the paper's
    Figure 2): apply the change plan incrementally to the pre-computed
    base model, simulate routes (and, lazily, traffic), verify the
    formally specified intents, and report violations with concrete
    counterexamples.

    {!run} is a sequence of named stages, each under its own telemetry
    span:
    + {b gate} ([verify.lint_gate]) — the static-analysis gate;
    + {b apply} ([verify.model_update]) — the updated model;
    + {b carry-over} ([verify.diff], [verify.carryover]) — the
      differential pass and the intents it carries over from the base;
    + {b precheck} ([verify.precheck]) — the static intent pre-checker;
    + {b simulate} ([verify.route_sim], lazily [verify.traffic_sim]) —
      the fixpoints, direct, incremental or distributed;
    + {b check} ([verify.intents]) — intent verification.

    The stages share one application of the plan to the base
    ({!Hoyan_config.Change_plan.apply}): a request applies its plan at
    most once.  Every exit — the gate, [stop_after], the full pipeline —
    builds its {!result} through one constructor. *)

open Hoyan_net

type request = {
  rq_name : string;
  rq_plan : Hoyan_config.Change_plan.t;
  rq_intents : Intents.t list;
}

(** Distributed-mode subtask coverage: how much of the split actually
    reached the merge (the framework's phase outcome contract,
    surfaced). *)
type coverage = {
  cov_total : int;
  cov_merged : int;
  cov_failed : (string * string) list;
      (** permanently-failed subtask ids with their terminal reasons *)
}

type result = {
  vr_request : string;
  vr_ok : bool;  (** no violations and no plan-application warnings *)
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
      (** parse/delete errors from applying the plan — risk signals on
          their own (Table 6 "incorrect commands") *)
  vr_lint : Hoyan_analysis.Diagnostics.t list;
      (** static-analysis findings from the pre-simulation gate *)
  vr_gated : bool;
      (** the fail-fast gate stopped the request before any simulation *)
  vr_precheck : (Intents.t * Hoyan_analysis.Semantic.verdict) list;
      (** the static pre-checker's verdict for every intent *)
  vr_sim_skipped : bool;
      (** the pre-checker resolved every intent statically, so no
          simulation ran (the RIB fields are then empty) *)
  vr_diff_class : Hoyan_analysis.Differential.classification option;
      (** differential mode only ([?diff:true]): the plan's semantic
          classification (no-op / local / propagating) *)
  vr_carried : Intents.t list;
      (** differential mode only: intents whose base-run verdicts were
          carried over without re-simulation — the static differential
          pass proved their prefixes lie outside the change's dirty
          region *)
  vr_coverage : coverage option;
      (** distributed mode only: subtask coverage of the route phase *)
  vr_partial : bool;
      (** the simulated state is missing permanently-failed subtasks'
          results; [vr_ok] is never [true] when this is set *)
  vr_inc : Hoyan_sim.Incremental.stats option;
      (** set when the request was simulated through the incremental
          splice engine ([?inc] / [?inc_sim]): per-plan dirty-region and
          fallback accounting *)
  vr_updated_model : Hoyan_sim.Model.t;
  vr_base_rib : Route.t list;
  vr_updated_rib : Route.t list;
  vr_updated_traffic : Hoyan_sim.Traffic_sim.result Lazy.t;
  vr_sim_seconds : float;
      (** wall-clock of the eager pipeline (gate, differential, route
          fixpoint, intent checks).  Excludes the lazy traffic
          simulation — see [vr_traffic_seconds]. *)
  vr_traffic_seconds : float ref;
      (** wall-clock spent forcing [vr_updated_traffic], measured at the
          forcing site; [0.] until (unless) something forces it *)
}

(** [vr_sim_seconds] plus the traffic-forcing time accumulated so far. *)
val total_seconds : result -> float

type sim_mode =
  | Direct  (** in-process simulation *)
  | Distributed of { servers : int; subtasks : int }
      (** through the distributed framework (master/MQ/workers) *)

(** How the static-analysis gate in front of the pipeline behaves:
    skip it, record diagnostics without blocking (the default), or fail
    the request on any error-severity diagnostic before the first
    fixpoint runs. *)
type lint_gate = Lint_off | Lint_warn | Lint_fail

(** Run one change-verification request against the pre-processed base.
    The static-analysis gate ([?lint], default {!Lint_warn}) lints the
    base configs, the change plan and the request's RCL specs first;
    under {!Lint_fail} an error-severity diagnostic stops the request
    before any simulation.  Traffic simulation is forced only when a
    traffic-level intent is present.  Prefixes in the plan's
    [cp_withdraw] are removed from the inputs; [cp_new_routes] are added
    (new prefix announcement).  [tm] (default: the process-global
    telemetry handle) receives per-phase spans and gate events.

    [precheck] (default [true]) runs the static intent pre-checker
    ({!Hoyan_analysis.Semantic}) on the updated model before simulating:
    statically refuted intents become violations with a static witness,
    and when every intent of a non-empty request is proved or refuted the
    route/traffic fixpoints are skipped entirely
    ([vr_sim_skipped = true]).

    [diff] (default [false]) additionally runs the differential
    change-impact pass ({!Hoyan_analysis.Differential}) against the base
    model before anything is simulated: every reachability intent whose
    prefix provably lies outside the change's dirty region — and, when
    the plan is a semantic no-op, every other intent too — keeps its
    base-run verdict ([vr_carried]) and is evaluated against the cached
    base state; only the affected remainder goes through the pre-checker
    and the simulator.  When everything carries over, no fixpoint runs at
    all.

    [stop_after] bounds how far the pipeline runs (the request classes of
    the verification server, {!Hoyan_server.Server}, map onto it):
    [`Gate] stops after the static-analysis gate — [vr_ok] is then "the
    gate found no error-severity diagnostic" and nothing is simulated;
    [`Static] runs the model update, the differential pass and the static
    pre-checker but never the fixpoints — intents the pre-checker left
    [Needs_simulation] stay open and the verdict covers only the
    statically decided part; [`Full] (the default) is the whole pipeline.

    In [Distributed] mode, [chaos] injects faults into the framework and
    the route phase's outcome contract is surfaced as [vr_coverage].
    When subtasks failed permanently the result is partial; [on_partial]
    picks the policy: [`Refuse] (the default) withholds intent verdicts
    over the incomplete RIB (no simulated violations are reported, and
    [vr_ok = false]); [`Degrade] verifies anyway but flags the result
    [vr_partial] — a partial result is never [vr_ok].

    A partial base ([Preprocess.prepare ~partial:true], i.e. the
    converged base state itself came from a run with failed subtasks)
    refuses differential verdict carry-over entirely: carrying a verdict
    proven against an incomplete base RIB would launder missing routes
    into proven facts.  The refusal is counted
    ([hoyan_verify_carryover_refused_total]) and every intent is
    re-verified.

    [inc] supplies a captured converged-base context
    ({!Hoyan_sim.Incremental.ctx}): in [Direct] mode the route fixpoint
    then re-converges only the plan's dirty region and splices into the
    cached base RIB/FIBs ([vr_inc] reports the accounting; broad plans
    fall back to a full run inside the engine).  [inc_sim] goes one step
    further and reuses an already-spliced artifact for this exact plan
    (the verification server's cache) — model application and route
    simulation are both skipped in favor of the artifact. *)
val run :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?mode:sim_mode ->
  ?lint:lint_gate ->
  ?precheck:bool ->
  ?diff:bool ->
  ?chaos:Hoyan_dist.Chaos.t ->
  ?on_partial:[ `Refuse | `Degrade ] ->
  ?stop_after:[ `Gate | `Static | `Full ] ->
  ?inc:Hoyan_sim.Incremental.ctx ->
  ?inc_sim:Hoyan_sim.Incremental.sim ->
  Preprocess.base ->
  request ->
  result

(** Human-readable report (PASS/FAIL, warnings, violations with their
    counterexamples). *)
val report : result -> string
