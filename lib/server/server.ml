(* The verification server (see the .mli and DESIGN.md §2.8).

   Everything here is deliberately deterministic: admission decisions
   depend only on configured bounds and the submission sequence, the
   drain order only on the cost model's class estimates (seeded from
   Costmodel, refined by measured times) and the configured policy with
   the submission sequence as tie-break, and the verdict bodies only on
   the request content — so identical request streams produce identical
   response streams, which is what lets the bench assert byte-identity
   against direct execution. *)

module Cp = Hoyan_config.Change_plan
module Types = Hoyan_config.Types
module Preprocess = Hoyan_core.Preprocess
module Verify_request = Hoyan_core.Verify_request
module Intents = Hoyan_core.Intents
module Kfailure = Hoyan_core.Kfailure
module Model = Hoyan_sim.Model
module Incremental = Hoyan_sim.Incremental
module Db = Hoyan_dist.Db
module Schedule = Hoyan_dist.Schedule
module Costmodel = Hoyan_dist.Costmodel
module Diagnostics = Hoyan_analysis.Diagnostics
module Semantic = Hoyan_analysis.Semantic
module Differential = Hoyan_analysis.Differential
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type config = {
  c_queue_depth : int;
  c_tenant_quota : int;
  c_cache_capacity : int;
  c_policy : Schedule.policy;
  c_default_budget_s : float;
}

let default_config =
  {
    c_queue_depth = 256;
    c_tenant_quota = 64;
    c_cache_capacity = 1024;
    c_policy = Schedule.Fifo;
    c_default_budget_s = 300.;
  }

type status =
  | Ok
  | Fail
  | Rejected of string
  | Timeout
  | Error of string

let status_to_string = function
  | Ok -> "ok"
  | Fail -> "fail"
  | Rejected reason -> "rejected:" ^ reason
  | Timeout -> "timeout"
  | Error _ -> "error"

type response = {
  rs_seq : int;
  rs_id : string;
  rs_tenant : string;
  rs_class : Request.rq_class;
  rs_status : status;
  rs_body : string;
  rs_cached : bool;
  rs_queue_s : float;
  rs_exec_s : float;
}

type stats = {
  st_submitted : int;
  st_admitted : int;
  st_rejected_queue : int;
  st_rejected_quota : int;
  st_rejected_snapshot : int;
  st_completed : int;
  st_failed : int;
  st_timeouts : int;
  st_errors : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
}

type pending = {
  p_seq : int;
  p_rq : Request.t;
  p_snap : Snapshot.t;
  p_submit_t : float;
  p_entry : Db.entry;
}

type t = {
  cfg : config;
  tm : Telemetry.t;
  cache : (status * string) Cache.t;
  db : Db.t;
  snaps : (string, Snapshot.t) Hashtbl.t;
  (* incremental-simulation state, both lazily populated on the first
     simulating request: one converged-base context per snapshot, and
     spliced artifacts keyed "<snapshot digest>/<plan digest>" so
     requests from different tenants that carry the same plan against
     the same snapshot share one dirty-region fixpoint *)
  inc_ctxs : (string, Incremental.ctx) Hashtbl.t;
  inc_sims : (string, Incremental.sim) Hashtbl.t;
  mutable snap_order : string list;  (* registration order, reversed *)
  mutable default_snap : string option;
  mutable queue : pending list;  (* reversed submission order *)
  tenant_queued : (string, int) Hashtbl.t;
  (* measured-time EWMA per class, seeded from the cost model *)
  est : (Request.rq_class, float) Hashtbl.t;
  mutable seq : int;
  mutable executed : string list;  (* reversed execution order *)
  mutable durations : float list;  (* reversed completion order *)
  mutable lats : (Request.rq_class * float) list;  (* reversed *)
  mutable n_submitted : int;
  mutable n_admitted : int;
  mutable n_rej_queue : int;
  mutable n_rej_quota : int;
  mutable n_rej_snapshot : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_timeouts : int;
  mutable n_errors : int;
}

let create ?tm ?(config = default_config) () =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  {
    cfg = config;
    tm;
    cache = Cache.create ~capacity:config.c_cache_capacity;
    db = Db.create ();
    snaps = Hashtbl.create 4;
    inc_ctxs = Hashtbl.create 4;
    inc_sims = Hashtbl.create 64;
    snap_order = [];
    default_snap = None;
    queue = [];
    tenant_queued = Hashtbl.create 16;
    est = Hashtbl.create 4;
    seq = 0;
    executed = [];
    durations = [];
    lats = [];
    n_submitted = 0;
    n_admitted = 0;
    n_rej_queue = 0;
    n_rej_quota = 0;
    n_rej_snapshot = 0;
    n_completed = 0;
    n_failed = 0;
    n_timeouts = 0;
    n_errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let register_snapshot t (base : Preprocess.base) : Snapshot.t =
  let digest = Snapshot.digest_of_base base in
  match Hashtbl.find_opt t.snaps digest with
  | Some s -> s
  | None ->
      let s = Snapshot.register ~tm:t.tm base in
      Hashtbl.replace t.snaps s.Snapshot.sn_digest s;
      t.snap_order <- s.Snapshot.sn_digest :: t.snap_order;
      if t.default_snap = None then t.default_snap <- Some s.Snapshot.sn_digest;
      s

let find_snapshot t digest = Hashtbl.find_opt t.snaps digest

let snapshots t =
  List.rev_map (fun d -> Hashtbl.find t.snaps d) t.snap_order

(* ------------------------------------------------------------------ *)
(* The execution path                                                  *)
(* ------------------------------------------------------------------ *)

(* Deterministic verdict rendering: no timings, no request name — the
   same semantic request always renders the same bytes, whichever
   tenant sent it and whether it came from the cache. *)
let verdict_body (r : Verify_request.result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n" (if r.Verify_request.vr_ok then "PASS" else "FAIL"));
  if r.Verify_request.vr_gated then
    Buffer.add_string b "gated: stopped by the static-analysis gate\n";
  if r.Verify_request.vr_sim_skipped then
    Buffer.add_string b "simulation: skipped (resolved without the fixpoints)\n";
  (match r.Verify_request.vr_diff_class with
  | Some cls ->
      Buffer.add_string b
        (Printf.sprintf "differential: plan is %s; %d intent verdict(s) carried over\n"
           (Differential.classification_to_string cls)
           (List.length r.Verify_request.vr_carried))
  | None -> ());
  List.iter
    (fun (intent, verdict) ->
      Buffer.add_string b
        (Printf.sprintf "precheck: %s -> %s\n"
           (Intents.to_string intent)
           (Semantic.verdict_to_string verdict)))
    r.Verify_request.vr_precheck;
  List.iter
    (fun d ->
      Buffer.add_string b (Printf.sprintf "lint: %s\n" (Diagnostics.to_string d)))
    r.Verify_request.vr_lint;
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "plan warning: %s\n" w))
    r.Verify_request.vr_plan_warnings;
  List.iter
    (fun v ->
      Buffer.add_string b (Intents.violation_to_string v);
      Buffer.add_char b '\n')
    r.Verify_request.vr_violations;
  Buffer.contents b

(* The whatif execution path: the exhaustive k-failure sweep over the
   snapshot's base network.  The property comes from the request's
   first `intent reach present' stanza; the verdict body is
   deterministic (counts and violations only, no timings). *)
let run_whatif ?(tm = Telemetry.noop) ?inc (snap : Snapshot.t)
    (rq : Request.t) : status * string =
  let base = snap.Snapshot.sn_base in
  let prop =
    List.find_map
      (function
        | Intents.Route_reach { rr_prefix; rr_devices; rr_expect = true } ->
            Some (Kfailure.prefix_survives ~prefix:rr_prefix ~devices:rr_devices)
        | _ -> None)
      rq.Request.r_intents
  in
  match prop with
  | None ->
      ( Error "whatif requires an `intent reach present' stanza",
        "" )
  | Some prop ->
      let devices, links =
        match rq.Request.r_scope with
        | Request.Links_only -> (false, true)
        | Request.Devices_only -> (true, false)
        | Request.Links_and_devices -> (true, true)
      in
      let res =
        Kfailure.check ~tm ~devices ~links ?inc base.Preprocess.b_model
          ~input_routes:base.Preprocess.b_input_routes
          ~flows:base.Preprocess.b_flows ~k:rq.Request.r_k prop
      in
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "verdict: %s\n"
           (if res.Kfailure.kr_violations = [] then "PASS" else "FAIL"));
      Buffer.add_string b
        (Printf.sprintf "whatif: property %s\n" res.Kfailure.kr_property);
      Buffer.add_string b
        (Printf.sprintf
           "whatif: %d scenario(s) (k<=%d); %d carried, %d static, %d \
            replicated, %d simulated\n"
           res.Kfailure.kr_total res.Kfailure.kr_k res.Kfailure.kr_carried
           res.Kfailure.kr_static res.Kfailure.kr_replicated
           res.Kfailure.kr_simulated);
      List.iter
        (fun (s : Kfailure.scenario_result) ->
          Buffer.add_string b
            (Printf.sprintf "violation: [%s] %s\n"
               (String.concat ", "
                  (List.map Kfailure.failure_to_string s.Kfailure.sr_failures))
               (Option.value s.Kfailure.sr_violation ~default:"")))
        res.Kfailure.kr_violations;
      ( (if res.Kfailure.kr_violations = [] then Ok else Fail),
        Buffer.contents b )

(* Internal variant returning the per-phase timing split (route/static
   pipeline seconds, traffic-forcing seconds) so [execute_one] can
   attribute the server.request span honestly instead of lumping the
   lazy traffic cost into the route-simulation time. *)
let run_direct_timed ?(tm = Telemetry.noop) ?inc ?inc_sim (snap : Snapshot.t)
    (rq : Request.t) : status * string * float * float =
  let base = snap.Snapshot.sn_base in
  let vrq =
    {
      Verify_request.rq_name = rq.Request.r_id;
      rq_plan = rq.Request.r_plan;
      rq_intents = rq.Request.r_intents;
    }
  in
  try
    match rq.Request.r_class with
    | Request.Whatif ->
        let st, body = run_whatif ~tm ?inc snap rq in
        (st, body, 0., 0.)
    | _ ->
        let res =
          match rq.Request.r_class with
          | Request.Lint ->
              Verify_request.run ~tm ~lint:Verify_request.Lint_fail
                ~stop_after:`Gate base vrq
          | Request.Precheck ->
              Verify_request.run ~tm ~lint:Verify_request.Lint_off
                ~stop_after:`Static base vrq
          | Request.Diff ->
              Verify_request.run ~tm ~diff:true ?inc ?inc_sim base vrq
          | Request.Simulate ->
              Verify_request.run ~tm ?inc ?inc_sim base vrq
          | Request.Whatif -> assert false
        in
        ( (if res.Verify_request.vr_ok then Ok else Fail),
          verdict_body res,
          res.Verify_request.vr_sim_seconds,
          !(res.Verify_request.vr_traffic_seconds) )
  with e -> (Error (Printexc.to_string e), "", 0., 0.)

let run_direct ?tm ?inc ?inc_sim (snap : Snapshot.t) (rq : Request.t) :
    status * string =
  let st, body, _, _ = run_direct_timed ?tm ?inc ?inc_sim snap rq in
  (st, body)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Class priors: the simulate estimate comes from the distributed cost
   model on the snapshot's input size; the static classes are priced at
   the measured cost fractions of their gates (lint ~0.03%, precheck
   ~0.5%, diff ~0.3–1% of a full simulation — PR2/PR4/PR7 benches),
   then every class estimate tracks its own measured times by EWMA. *)
let prior (snap : Snapshot.t) (cls : Request.rq_class) : float =
  let sim =
    Costmodel.est_route_subtask Costmodel.default
      ~routes:snap.Snapshot.sn_input_routes
  in
  match cls with
  | Request.Whatif ->
      (* one fixpoint per simulated class representative; even heavily
         pruned sweeps run several — the most expensive class *)
      5. *. sim
  | Request.Simulate -> sim
  | Request.Diff -> 0.01 *. sim
  | Request.Precheck -> 0.005 *. sim
  | Request.Lint -> 0.001 *. sim

let estimate t (snap : Snapshot.t) (cls : Request.rq_class) : float =
  match Hashtbl.find_opt t.est cls with
  | Some e -> e
  | None -> prior snap cls

let observe_cost t (cls : Request.rq_class) (snap : Snapshot.t) measured =
  let old = estimate t snap cls in
  Hashtbl.replace t.est cls ((0.7 *. old) +. (0.3 *. measured))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let queue_depth t = List.length t.queue

let tenant_count t tenant =
  Option.value (Hashtbl.find_opt t.tenant_queued tenant) ~default:0

let reject t seq (rq : Request.t) reason : response =
  let entry = Db.register t.db (Printf.sprintf "rq-%06d" seq) in
  Db.mark_terminal entry ("rejected: " ^ reason);
  (match reason with
  | "queue-full" -> t.n_rej_queue <- t.n_rej_queue + 1
  | "tenant-quota" -> t.n_rej_quota <- t.n_rej_quota + 1
  | _ -> t.n_rej_snapshot <- t.n_rej_snapshot + 1);
  if Telemetry.enabled t.tm then begin
    Telemetry.count t.tm ~labels:[ ("reason", reason) ]
      "hoyan_server_rejected_total" 1;
    Telemetry.event t.tm "server.reject"
      [
        ("id", Journal.S rq.Request.r_id);
        ("tenant", Journal.S rq.Request.r_tenant);
        ("reason", Journal.S reason);
      ]
  end;
  {
    rs_seq = seq;
    rs_id = rq.Request.r_id;
    rs_tenant = rq.Request.r_tenant;
    rs_class = rq.Request.r_class;
    rs_status = Rejected reason;
    rs_body = "";
    rs_cached = false;
    rs_queue_s = 0.;
    rs_exec_s = 0.;
  }

let submit t (rq : Request.t) : (unit, response) result =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.n_submitted <- t.n_submitted + 1;
  let snap =
    match rq.Request.r_snapshot with
    | Some d -> Hashtbl.find_opt t.snaps d
    | None -> (
        match t.default_snap with
        | Some d -> Hashtbl.find_opt t.snaps d
        | None -> None)
  in
  let decision =
    match snap with
    | None -> Stdlib.Error (reject t seq rq "unknown-snapshot")
    | Some snap ->
        if queue_depth t >= t.cfg.c_queue_depth then
          Stdlib.Error (reject t seq rq "queue-full")
        else if tenant_count t rq.Request.r_tenant >= t.cfg.c_tenant_quota
        then Stdlib.Error (reject t seq rq "tenant-quota")
        else begin
          let entry = Db.register t.db (Printf.sprintf "rq-%06d" seq) in
          t.queue <-
            {
              p_seq = seq;
              p_rq = rq;
              p_snap = snap;
              p_submit_t = Unix.gettimeofday ();
              p_entry = entry;
            }
            :: t.queue;
          Hashtbl.replace t.tenant_queued rq.Request.r_tenant
            (tenant_count t rq.Request.r_tenant + 1);
          t.n_admitted <- t.n_admitted + 1;
          Stdlib.Ok ()
        end
  in
  if Telemetry.enabled t.tm then
    Telemetry.gauge t.tm "hoyan_server_queue_depth"
      (float_of_int (queue_depth t));
  decision

(* ------------------------------------------------------------------ *)
(* The drain loop                                                      *)
(* ------------------------------------------------------------------ *)

(* For the simulating classes, provision the incremental machinery:
   capture the snapshot's converged-base context once, then look the
   plan's spliced artifact up by (snapshot digest, plan digest) —
   computing and caching it on a miss, so a repeated plan (any tenant,
   any intent set) never re-runs even the dirty-region fixpoint. *)
let inc_for t (snap : Snapshot.t) (rq : Request.t) :
    Incremental.ctx option * Incremental.sim option =
  match rq.Request.r_class with
  | Request.Lint | Request.Precheck -> (None, None)
  | Request.Simulate | Request.Diff | Request.Whatif -> (
      let ctx =
        match Hashtbl.find_opt t.inc_ctxs snap.Snapshot.sn_digest with
        | Some c -> c
        | None ->
            let base = snap.Snapshot.sn_base in
            let c =
              Incremental.capture ~tm:t.tm ~model:base.Preprocess.b_model
                ~input_routes:base.Preprocess.b_input_routes
                ~flows:base.Preprocess.b_flows
                ~rib:(Lazy.force base.Preprocess.b_rib) ()
            in
            Hashtbl.replace t.inc_ctxs snap.Snapshot.sn_digest c;
            c
      in
      match rq.Request.r_class with
      | Request.Whatif ->
          (* the sweep reuses the base context per scenario; there is no
             change plan to splice, hence no artifact *)
          (Some ctx, None)
      | _ ->
          let key =
            snap.Snapshot.sn_digest ^ "/"
            ^ Request.plan_digest
                ~configs:
                  snap.Snapshot.sn_base.Preprocess.b_model.Model.configs
                rq.Request.r_plan
          in
          let sim =
            match Hashtbl.find_opt t.inc_sims key with
            | Some s ->
                Telemetry.count t.tm "hoyan_server_inc_artifact_hit_total" 1;
                s
            | None ->
                Telemetry.count t.tm "hoyan_server_inc_artifact_miss_total" 1;
                let s = Incremental.simulate ~tm:t.tm ctx rq.Request.r_plan in
                Hashtbl.replace t.inc_sims key s;
                s
          in
          (Some ctx, Some sim))

let execute_one t (p : pending) : response =
  let rq = p.p_rq in
  let sp =
    Telemetry.span t.tm
      ~args:
        [
          ("id", rq.Request.r_id);
          ("class", Request.class_to_string rq.Request.r_class);
          ("tenant", rq.Request.r_tenant);
        ]
      "server.request"
  in
  let budget =
    Option.value rq.Request.r_budget_s ~default:t.cfg.c_default_budget_s
  in
  ignore (Db.start_attempt ~lease_s:budget p.p_entry);
  let t0 = Unix.gettimeofday () in
  let queue_s = t0 -. p.p_submit_t in
  let run () =
    let inc, inc_sim = inc_for t p.p_snap rq in
    run_direct_timed ~tm:t.tm ?inc ?inc_sim p.p_snap rq
  in
  let status, body, cached, sim_s, traffic_s =
    if rq.Request.r_no_cache then
      let st, body, ss, ts = run () in
      (st, body, false, ss, ts)
    else
      let key =
        Request.cache_key ~snapshot_digest:p.p_snap.Snapshot.sn_digest
          ~configs:p.p_snap.Snapshot.sn_base.Preprocess.b_model.Model.configs
          rq
      in
      match Cache.find t.cache key with
      | Some (st, body) -> (st, body, true, 0., 0.)
      | None ->
          let st, body, ss, ts = run () in
          (match st with
          | Ok | Fail -> Cache.add t.cache key (st, body)
          | Rejected _ | Timeout | Error _ -> ());
          (st, body, false, ss, ts)
  in
  let now = Unix.gettimeofday () in
  let exec_s = now -. t0 in
  (* the PR5 lease contract, per request: a finished attempt whose
     lease already expired is a timeout, and a timed-out request gets
     no verdict — not a partial one *)
  let timed_out = Db.lease_expired ~now p.p_entry in
  let status, body =
    if timed_out then (Timeout, "") else (status, body)
  in
  (match status with
  | Timeout ->
      Db.mark_terminal p.p_entry
        (Printf.sprintf "deadline exceeded (%.3fs > %.3fs budget)" exec_s
           budget);
      t.n_timeouts <- t.n_timeouts + 1
  | Error msg ->
      Db.mark_terminal p.p_entry ("execution error: " ^ msg);
      t.n_errors <- t.n_errors + 1
  | Ok | Fail | Rejected _ ->
      Db.complete p.p_entry ~duration_s:exec_s ~io_bytes:0 ~io_files:0 ();
      t.n_completed <- t.n_completed + 1;
      if status = Fail then t.n_failed <- t.n_failed + 1);
  if not cached then begin
    t.durations <- exec_s :: t.durations;
    t.lats <- (rq.Request.r_class, exec_s) :: t.lats;
    observe_cost t rq.Request.r_class p.p_snap exec_s
  end;
  t.executed <- rq.Request.r_id :: t.executed;
  if Telemetry.enabled t.tm then begin
    let cls = Request.class_to_string rq.Request.r_class in
    Telemetry.count t.tm ~labels:[ ("class", cls) ]
      "hoyan_server_requests_total" 1;
    Telemetry.observe t.tm ~labels:[ ("class", cls) ]
      "hoyan_server_request_seconds" exec_s;
    if not cached then begin
      Telemetry.observe t.tm ~labels:[ ("class", cls) ]
        "hoyan_server_request_sim_seconds" sim_s;
      Telemetry.observe t.tm ~labels:[ ("class", cls) ]
        "hoyan_server_request_traffic_seconds" traffic_s
    end;
    Telemetry.observe t.tm "hoyan_server_queue_seconds" queue_s;
    Telemetry.count t.tm
      (if cached then "hoyan_server_cache_hit_total"
       else "hoyan_server_cache_miss_total")
      1;
    Telemetry.event t.tm "server.request"
      [
        ("id", Journal.S rq.Request.r_id);
        ("class", Journal.S cls);
        ("tenant", Journal.S rq.Request.r_tenant);
        ("status", Journal.S (status_to_string status));
        ("cached", Journal.B cached);
      ]
  end;
  Telemetry.finish t.tm
    ~args:
      [
        ("status", status_to_string status);
        ("cached", string_of_bool cached);
        ("sim_s", Printf.sprintf "%.6f" sim_s);
        ("traffic_s", Printf.sprintf "%.6f" traffic_s);
      ]
    sp;
  {
    rs_seq = p.p_seq;
    rs_id = rq.Request.r_id;
    rs_tenant = rq.Request.r_tenant;
    rs_class = rq.Request.r_class;
    rs_status = status;
    rs_body = body;
    rs_cached = cached;
    rs_queue_s = queue_s;
    rs_exec_s = exec_s;
  }

let drain t : response list =
  let pending = List.rev t.queue in
  t.queue <- [];
  Hashtbl.reset t.tenant_queued;
  (* cost-model-driven order: under Lpt the most expensive class first
     (the framework's subtask policy), Fifo keeps submission order;
     ties (and Fifo) break by submission sequence *)
  let ordered =
    match t.cfg.c_policy with
    | Schedule.Fifo -> pending
    | Schedule.Lpt ->
        List.stable_sort
          (fun a b ->
            let ca = estimate t a.p_snap a.p_rq.Request.r_class in
            let cb = estimate t b.p_snap b.p_rq.Request.r_class in
            match Float.compare cb ca with
            | 0 -> Int.compare a.p_seq b.p_seq
            | c -> c)
          pending
  in
  let responses = List.map (execute_one t) ordered in
  if Telemetry.enabled t.tm then
    Telemetry.gauge t.tm "hoyan_server_queue_depth" 0.;
  List.sort (fun a b -> Int.compare a.rs_seq b.rs_seq) responses

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let executed_order t = List.rev t.executed
let durations t = List.rev t.durations
let latencies t = List.rev t.lats

let modelled_makespan t ~servers =
  fst (Schedule.makespan ~policy:t.cfg.c_policy ~servers (durations t))

let stats t =
  {
    st_submitted = t.n_submitted;
    st_admitted = t.n_admitted;
    st_rejected_queue = t.n_rej_queue;
    st_rejected_quota = t.n_rej_quota;
    st_rejected_snapshot = t.n_rej_snapshot;
    st_completed = t.n_completed;
    st_failed = t.n_failed;
    st_timeouts = t.n_timeouts;
    st_errors = t.n_errors;
    st_cache_hits = Cache.hits t.cache;
    st_cache_misses = Cache.misses t.cache;
    st_cache_evictions = Cache.evictions t.cache;
  }

let report t =
  let s = stats t in
  let b = Buffer.create 256 in
  Buffer.add_string b "=== hoyan server ===\n";
  List.iter
    (fun snap -> Buffer.add_string b (Snapshot.to_string snap ^ "\n"))
    (snapshots t);
  Buffer.add_string b
    (Printf.sprintf
       "requests: %d submitted, %d admitted, %d completed (%d FAIL), %d \
        timeout, %d error\n"
       s.st_submitted s.st_admitted s.st_completed s.st_failed s.st_timeouts
       s.st_errors);
  Buffer.add_string b
    (Printf.sprintf
       "admission: %d rejected (queue-full %d, tenant-quota %d, \
        unknown-snapshot %d)\n"
       (s.st_rejected_queue + s.st_rejected_quota + s.st_rejected_snapshot)
       s.st_rejected_queue s.st_rejected_quota s.st_rejected_snapshot);
  Buffer.add_string b
    (Printf.sprintf "cache: %d hit(s), %d miss(es), %d eviction(s), %d/%d \
                     entries%s\n"
       s.st_cache_hits s.st_cache_misses s.st_cache_evictions
       (Cache.size t.cache) (Cache.capacity t.cache)
       (let r = Cache.hit_rate t.cache in
        if Float.is_nan r then ""
        else Printf.sprintf " (hit rate %.1f%%)" (100. *. r)));
  Buffer.add_string b (Printf.sprintf "queued: %d\n" (queue_depth t));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let response_to_string ?(timing = true) (r : response) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "response %s %s tenant=%s status=%s cached=%b" r.rs_id
       (Request.class_to_string r.rs_class)
       r.rs_tenant
       (status_to_string r.rs_status)
       r.rs_cached);
  if timing then
    Buffer.add_string b
      (Printf.sprintf " queue_ms=%.3f exec_ms=%.3f" (1000. *. r.rs_queue_s)
         (1000. *. r.rs_exec_s));
  Buffer.add_char b '\n';
  (match r.rs_status with
  | Error msg -> Buffer.add_string b ("error: " ^ msg ^ "\n")
  | _ -> ());
  Buffer.add_string b r.rs_body;
  Buffer.add_string b "end-response\n";
  Buffer.contents b
