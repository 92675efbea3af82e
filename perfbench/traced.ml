(* The traced run: per-layer metrics.

   Telemetry is switched on for one server; an untraced twin server on
   the same registered snapshot receives every round too, alternating
   which goes first, so the tracing overhead is a paired comparison and
   the twin's verdicts must equal the traced ones byte for byte.

   Layer times come from the spans the library already records
   (route.fixpoint, inc.*, verify.*, differential.diff, server.request)
   and from the benchmark's own calls into public layer functions,
   timed with allocation counts around them: the traffic stages
   (Traffic_sim.build_fibs / ec_ctx / run), plan application
   (Model.apply_change_plan), intent evaluation (Intents.verify, on each
   Simulate/Diff op's own spliced RIB) and request digests
   (Request.cache_key).  Every time is normalised by the
   run's calibration kernel. *)

open Run
module W = Workloads
module Model = Hoyan_sim.Model
module Incremental = Hoyan_sim.Incremental
module Cp = Hoyan_config.Change_plan
module Traffic_sim = Hoyan_sim.Traffic_sim
module Intents = Hoyan_core.Intents
module Preprocess = Hoyan_core.Preprocess
module Server = Hoyan_server.Server
module Request = Hoyan_server.Request
module Snapshot = Hoyan_server.Snapshot
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal
module Metrics = Hoyan_telemetry.Metrics
module Trace = Hoyan_telemetry.Trace
module Clock = Hoyan_telemetry.Clock

(* The per-layer metrics, in BENCHMARK.json order. *)
let names =
  [
    ("route.fixpoint_ms", "ms"); ("route.alloc_mwords", "Mword");
    ("route.rib_rows", "count"); ("route.major_gcs", "count");
    ("traffic.fib_ms", "ms"); ("traffic.ec_ms", "ms"); ("traffic.forward_ms", "ms");
    ("traffic.ecs", "count"); ("inc.capture_ms", "ms"); ("inc.simulate_ms", "ms");
    ("inc.delta_fixpoint_ms", "ms"); ("inc.splice_ms", "ms"); ("inc.unspanned_ms", "ms");
    ("inc.dirty_prefixes", "count/op"); ("inc.delta_rows", "count/op");
    ("inc.fallbacks", "count"); ("model.apply_ms", "ms"); ("analysis.impact_ms", "ms");
    ("intents.check_ms", "ms"); ("intents.alloc_mwords", "Mword");
    ("analysis.lint_ms", "ms");
    ("analysis.precheck_ms", "ms"); ("analysis.static_resolved_ratio", "ratio");
    ("server.digest_ms", "ms"); ("server.cache_hit_ratio", "ratio");
    ("server.artifact_hit_ratio", "ratio"); ("server.queue_wait_ms", "ms");
    ("server.self_ms", "ms"); ("server.rejected", "count");
    ("server.retained_mb_per_op", "MB"); ("whatif.check_ms", "ms");
    ("whatif.scenarios", "count"); ("whatif.simulated_ratio", "ratio");
    ("verify.self_ms", "ms"); ("trace.unattributed_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

let ratio a b = if b > 0. then a /. b else 0.
let fi = float_of_int

(* Time, allocated words and result of [f]. *)
let probe f =
  let w0 = Util.alloc_words () in
  let t0 = Util.now () in
  let r = f () in
  let dt = Util.now () -. t0 in
  (r, dt, Util.alloc_words () -. w0)

(* "precheck: INTENT -> VERDICT" lines: (decided statically, total). *)
let precheck_counts body =
  String.split_on_char '\n' body
  |> List.fold_left
       (fun (r, n) l ->
         if String.length l > 10 && String.sub l 0 10 = "precheck: " then
           ( (if Util.contains ~sub:"-> proved" l || Util.contains ~sub:"-> refuted" l
              then r + 1 else r),
             n + 1 )
         else (r, n))
       (0, 0)

(* "whatif: N scenario(s) (k<=K); C carried, S static, R replicated,
   M simulated": (N, M). *)
let whatif_counts body =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         try
           Some
             (Scanf.sscanf l "whatif: %d scenario(s) (k<=%d); %d carried, %d static, %d replicated, %d simulated"
                (fun n _ _ _ _ m -> (n, m)))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

let run w ~seed ~seconds =
  let tm = Telemetry.create () in
  Telemetry.set tm;
  let calib = Calib.create () in
  ignore (Calib.window calib);
  fresh_heap ();
  let ns_setup0 = Clock.now_ns () in
  let env, stages, bad = setup ~tm ~calib ~reduced:false w ~seed in
  let ns_setup1 = Clock.now_ns () in
  Telemetry.set Telemetry.noop;
  let base = env.e_facts.W.f_base in
  let model = base.Preprocess.b_model in
  let rib = Lazy.force base.Preprocess.b_rib in
  (* the traffic stages, one by one, on the base *)
  let fibs, fib_s, _ = probe (fun () -> Traffic_sim.build_fibs rib) in
  let ecx, ec_s, _ = probe (fun () -> Traffic_sim.ec_ctx model fibs) in
  let tr, fwd_s, _ =
    probe (fun () ->
        Traffic_sim.run ~tm:Telemetry.noop ~fibs ~ecx model ~rib ~flows:base.Preprocess.b_flows ())
  in
  ignore (Calib.window calib);
  (* the untraced twin: same snapshot, its own incremental context *)
  let twin = Server.create ~tm:Telemetry.noop ~config:(server_config w) () in
  ignore (Server.register_snapshot twin base);
  List.iter (fun o -> ignore (serve1 twin o)) warm_ops;
  let live0 = Util.live_words () in
  let jmark = Journal.count tm.Telemetry.journal in
  let traced = ref [] and untraced = ref [] and ops_t = ref [] and ops_u = ref [] in
  let t_start = Util.now () in
  let n = ref 0 in
  (* one cycle at least: the per-layer figures are per-op means, and a
     second wan-change-verify cycle on both servers would not fit the
     run's time limit *)
  while more_rounds ~min_rounds:(cycle w) w ~t_start ~seconds !n do
    let ops = next_ops env ~n_round:!n in
    let on_traced () =
      Telemetry.set tm;
      let r = run_round ~calib env.e_srv ops ~n_round:!n in
      Telemetry.set Telemetry.noop;
      traced := fst r :: !traced;
      ops_t := List.rev_append (snd r) !ops_t
    and on_twin () =
      let r = run_round ~calib twin ops ~n_round:!n in
      untraced := fst r :: !untraced;
      ops_u := List.rev_append (snd r) !ops_u
    in
    if !n mod 2 = 0 then (on_traced (); on_twin ()) else (on_twin (); on_traced ());
    incr n
  done;
  ignore (Calib.window calib);
  let live1 = Util.live_words () in
  let traced = List.rev !traced and untraced = List.rev !untraced in
  let ops_t = List.rev !ops_t and ops_u = List.rev !ops_u in
  (* correctness: expectations, duplicates, and traced = untraced *)
  let failures =
    failures_of
      (check_ops ops_t
      @ List.concat
          (List.map2
             (fun a b ->
               if (a.d_status, a.d_body) <> (b.d_status, b.d_body) then
                 [ (a, "traced and untraced verdicts differ") ]
               else [])
             ops_t ops_u))
  in
  (* figures *)
  let g = let unit_s, _, _, _ = Calib.summary calib in Calib.ref_unit_s /. unit_s in
  let ms x = 1000. *. x *. g in
  let all = Layers.of_events (Trace.events tm.Telemetry.trace) in
  let setup_spans = Layers.inside all (ns_setup0, ns_setup1) in
  let spans = List.concat_map (fun r -> Layers.inside all (r.rd_ns0, r.rd_ns1)) traced in
  let n_ops = fi (List.length ops_t) in
  let per_op x = x /. Float.max 1. n_ops in
  let tot name = Layers.total Layers.dur_s name spans in
  let self name = Layers.total Layers.self_s name spans in
  let stage name = List.find (fun s -> s.sg_name = name) stages in
  let journal =
    Journal.events tm.Telemetry.journal |> List.filteri (fun i _ -> i >= jmark)
    |> List.filter (fun (e : Journal.event) -> e.Journal.ev_name = "inc.simulate")
  in
  let jsum field =
    Util.sum
      (List.map
         (fun (e : Journal.event) ->
           match List.assoc_opt field e.Journal.ev_fields with
           | Some (Journal.I i) -> fi i
           | _ -> 0.)
         journal)
  in
  (* probes over the first occurrence of each distinct request *)
  let distinct =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun d ->
        let k = d.d_op.W.o_key in
        if Hashtbl.mem seen k then false else (Hashtbl.replace seen k (); true))
      ops_t
    |> List.filteri (fun i _ -> i < 64)
  in
  let configs = model.Model.configs in
  (* each Simulate/Diff op's intents are probed on its own plan's spliced
     artifact, as the server evaluates them; the splice (and the
     post-change traffic a traffic intent reads) is made outside the
     probe *)
  let inc =
    lazy
      (Incremental.capture ~model ~input_routes:base.Preprocess.b_input_routes
         ~flows:base.Preprocess.b_flows ~rib ())
  in
  let sims = Hashtbl.create 16 in
  let sim_of (plan : Cp.t) =
    match Hashtbl.find_opt sims plan.Cp.cp_name with
    | Some s -> s
    | None ->
        let s = Incremental.simulate (Lazy.force inc) plan in
        Hashtbl.replace sims plan.Cp.cp_name s;
        s
  in
  let reads_traffic = function
    | Intents.Route_reach _ | Intents.Route_change _ -> false
    | _ -> true
  in
  let probes =
    List.map
      (fun d ->
        let rq = d.d_op.W.o_rq in
        let _, apply_s, _ = probe (fun () -> Model.apply_change_plan model rq.Request.r_plan) in
        let _, digest_s, _ =
          probe (fun () ->
              Request.cache_key ~snapshot_digest:env.e_snap.Snapshot.sn_digest ~configs rq)
        in
        let check_w =
          match rq.Request.r_class with
          | (Request.Simulate | Request.Diff) when rq.Request.r_intents <> [] ->
              let sim = sim_of rq.Request.r_plan in
              if List.exists reads_traffic rq.Request.r_intents then
                ignore (Lazy.force sim.Incremental.s_traffic);
              let _, _, w =
                probe (fun () ->
                    List.iter
                      (fun intent ->
                        ignore
                          (Intents.verify intent ~model:sim.Incremental.s_model ~base_rib:rib
                             ~updated_rib:sim.Incremental.s_rib
                             ~base_traffic:base.Preprocess.b_traffic
                             ~updated_traffic:sim.Incremental.s_traffic))
                      rq.Request.r_intents)
              in
              Some w
          | _ -> None
        in
        (apply_s, digest_s, check_w))
      distinct
  in
  Hashtbl.reset sims;
  let intent_words = List.filter_map (fun (_, _, w) -> w) probes in
  let pmean f = ratio (Util.sum (List.map f probes)) (fi (List.length probes)) in
  let resolved, prechecked =
    List.fold_left
      (fun (r, n) d -> let r', n' = precheck_counts d.d_body in (r + r', n + n'))
      (0, 0) ops_t
  in
  let whatif_spans =
    List.filter
      (fun s -> Layers.arg "class" s = Some "whatif" && Layers.arg "cached" s = Some "false")
      (Layers.named "server.request" spans)
  in
  let whatifs = List.filter_map (fun d -> if d.d_cached then None else whatif_counts d.d_body) ops_t in
  let st = Server.stats env.e_srv in
  let counter name = fi (Metrics.counter_value tm.Telemetry.metrics name) in
  let art_hit = counter "hoyan_server_inc_artifact_hit_total"
  and art_miss = counter "hoyan_server_inc_artifact_miss_total" in
  let new_plans =
    List.filter
      (fun d ->
        (not d.d_cached)
        && (match d.d_op.W.o_rq.Request.r_class with
           | Request.Simulate | Request.Diff -> true
           | _ -> false))
      distinct
    |> List.length
  in
  let busy rs = Util.sum (List.map (fun r -> r.rd_t1 -. r.rd_t0) rs) in
  let busy_t = busy traced and busy_u = busy untraced in
  let metrics =
    [
      ("route.fixpoint_ms", ms (Layers.total Layers.dur_s "route.fixpoint" setup_spans));
      ("route.alloc_mwords", (stage "route").sg_words /. 1e6);
      ("route.rib_rows", fi (List.length rib));
      ("route.major_gcs", fi (stage "route").sg_majors);
      ("traffic.fib_ms", ms fib_s);
      ("traffic.ec_ms", ms ec_s);
      ("traffic.forward_ms", ms fwd_s);
      ("traffic.ecs", fi tr.Traffic_sim.ec_count);
      ("inc.capture_ms", ms (Layers.total Layers.dur_s "inc.capture" setup_spans));
      ("inc.simulate_ms", ms (per_op (tot "inc.simulate")));
      ("inc.delta_fixpoint_ms", ms (per_op (tot "inc.delta_fixpoint")));
      ("inc.splice_ms", ms (per_op (tot "inc.splice")));
      ("inc.unspanned_ms", ms (per_op (self "inc.simulate")));
      ("inc.dirty_prefixes", per_op (jsum "dirty_prefixes"));
      ("inc.delta_rows", per_op (jsum "delta_rows"));
      ("inc.fallbacks", fi (Layers.count "inc.full_fallback" spans));
      ("model.apply_ms", ms (pmean (fun (a, _, _) -> a)));
      ("analysis.impact_ms", ms (per_op (tot "differential.diff")));
      ("intents.check_ms", ms (per_op (tot "verify.intents")));
      ( "intents.alloc_mwords",
        ratio (Util.sum intent_words) (fi (List.length intent_words)) /. 1e6 );
      ("analysis.lint_ms", ms (per_op (tot "verify.lint_gate")));
      ("analysis.precheck_ms", ms (per_op (tot "verify.precheck")));
      ("analysis.static_resolved_ratio", ratio (fi resolved) (fi prechecked));
      ("server.digest_ms", ms (pmean (fun (_, d, _) -> d)));
      ( "server.cache_hit_ratio",
        ratio (fi st.Server.st_cache_hits) (fi (st.Server.st_cache_hits + st.Server.st_cache_misses)) );
      ("server.artifact_hit_ratio", ratio art_hit (art_hit +. art_miss));
      ("server.queue_wait_ms", ms (per_op (Util.sum (List.map (fun d -> d.d_queue_s) ops_t))));
      ("server.self_ms", ms (per_op (self "server.request")));
      ( "server.rejected",
        fi (st.Server.st_rejected_queue + st.Server.st_rejected_quota + st.Server.st_rejected_snapshot) );
      ( "server.retained_mb_per_op",
        fi (live1 - live0) *. fi (Sys.word_size / 8) /. 1e6 /. 2. /. fi (max 1 new_plans) );
      ( "whatif.check_ms",
        ms (ratio (Util.sum (List.map Layers.dur_s whatif_spans)) (fi (List.length whatif_spans))) );
      ("whatif.scenarios", ratio (fi (List.fold_left (fun a (s, _) -> a + s) 0 whatifs)) (fi (List.length whatifs)));
      ( "whatif.simulated_ratio",
        ratio (fi (List.fold_left (fun a (_, m) -> a + m) 0 whatifs))
          (fi (List.fold_left (fun a (s, _) -> a + s) 0 whatifs)) );
      ("verify.self_ms", ms (per_op (self "verify.request")));
      ("trace.unattributed_share", ratio (busy_t -. Layers.attributed spans) busy_t);
      ("trace.overhead_share", ratio busy_t busy_u -. 1.);
    ]
  in
  let failed = List.length failures + List.length bad in
  row "traced run: workload %s, seed %d, %d paired round(s), %d traced op(s), %d spans"
    (W.to_string w) seed (List.length traced) (List.length ops_t) (List.length spans);
  row "op phase busy: traced %.4f s, untraced twin %.4f s (raw wall)" busy_t busy_u;
  List.iter (fun (k, v) -> row "%-32s %14.4f" k v) metrics;
  (* where the traced op time went, by span self time *)
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c, t = Option.value (Hashtbl.find_opt by_name s.Layers.s_name) ~default:(0, 0.) in
      Hashtbl.replace by_name s.Layers.s_name (c + 1, t +. Layers.self_s s))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
  |> List.iter (fun (k, (c, t)) ->
         row "span %-28s %6d x  self %10.3f ms/op" k c (ms (per_op t)));
  print_kernel calib;
  List.iter (fun p -> row "SETUP FAILURE: %s" p) bad;
  List.iteri (fun i (id, why) -> if i < 20 then row "FAILED OP %s: %s" id why) failures;
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  print_endline
    (result_line
       ~correct:(failed = 0 && finite)
       ~attempted:(List.length ops_t) ~failed
       (List.map (fun (k, u) -> (k, List.assoc k metrics, u)) names))
