(* One measured run: set-ups, the closed-loop op phase, the verdict
   oracle and the end-to-end figures (see main.ml for the command line
   and NOTES.md for what each workload exercises). *)

module W = Workloads
module G = Hoyan_workload.Generator
module Cp = Hoyan_config.Change_plan
module Preprocess = Hoyan_core.Preprocess
module Server = Hoyan_server.Server
module Request = Hoyan_server.Request
module Snapshot = Hoyan_server.Snapshot
module Schedule = Hoyan_dist.Schedule
module Telemetry = Hoyan_telemetry.Telemetry
module Clock = Hoyan_telemetry.Clock
module Json = Hoyan_telemetry.Json

let row fmt = Printf.ksprintf (fun s -> print_string (s ^ "\n")) fmt

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type stage = {
  sg_name : string;
  sg_t0 : float;
  sg_raw_s : float;
  sg_win : int;  (** calibration window the stage follows *)
  sg_words : float;
  sg_majors : int;
}

type env = {
  e_w : W.name;
  e_seed : int;
  e_facts : W.facts;
  e_srv : Server.t;
  e_snap : Snapshot.t;
  e_pool : W.op array;
}

let server_config = function
  | W.Small_tenant_mix -> { Server.default_config with Server.c_policy = Schedule.Lpt }
  | _ -> Server.default_config

(* Run one request alone through the server. *)
let serve1 srv (o : W.op) =
  match Server.submit srv o.W.o_rq with
  | Error r -> r
  | Ok () -> List.hd (Server.drain srv)

(* The request a set-up sends before the op phase. *)
let warm_ops =
  [ { W.o_rq =
        Request.make ~plan:(Cp.make "warm") ~intents:[ W.pre_post ] ~id:"warm"
          Request.Simulate;
      o_expect = { W.any with W.x_verdict = Some true };
      o_key = -1 } ]

(* One complete set-up: parse, prepare, base fixpoint, traffic, snapshot
   registration, then a warm-up request (it captures the incremental
   context).  Each stage is timed alone, with the
   calibration kernel run between stages. *)
let setup ?(tm = Telemetry.noop) ~calib ~reduced w ~seed : env * stage list * string list =
  let stages = ref [] and bad = ref [] in
  let stage name f =
    let win = Calib.current calib in
    let maj0 = (Gc.quick_stat ()).Gc.major_collections in
    let w0 = Util.alloc_words () in
    let t0 = Util.now () in
    let r = Telemetry.with_span tm ("bench.setup." ^ name) f in
    let dt = Util.now () -. t0 in
    let words = Util.alloc_words () -. w0 in
    let majors = (Gc.quick_stat ()).Gc.major_collections - maj0 in
    stages :=
      { sg_name = name; sg_t0 = t0; sg_raw_s = dt; sg_win = win; sg_words = words; sg_majors = majors }
      :: !stages;
    ignore (Calib.after calib ~words);
    ignore (Calib.window calib);
    r
  in
  let g = stage "parse" (fun () -> G.generate (W.params ~reduced w)) in
  let base =
    stage "prepare" (fun () ->
        Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
          ~monitored_flows:g.G.flows)
  in
  ignore (stage "route" (fun () -> Lazy.force base.Preprocess.b_rib));
  ignore (stage "traffic" (fun () -> Lazy.force base.Preprocess.b_traffic));
  (* the benchmark's own reference facts: not part of set-up time *)
  let facts = W.facts g base in
  let srv, snap =
    stage "register" (fun () ->
        let srv = Server.create ~tm ~config:(server_config w) () in
        (srv, Server.register_snapshot srv base))
  in
  stage "warmup" (fun () ->
      List.iter
        (fun (o : W.op) ->
          let r = serve1 srv o in
          match W.check o.W.o_expect r.Server.rs_status r.Server.rs_body with
          | None -> ()
          | Some why -> bad := (o.W.o_rq.Request.r_id ^ ": " ^ why) :: !bad)
        warm_ops);
  let pool =
    match w with
    | W.Small_tenant_mix -> Array.init W.pool_size (W.pool_op facts ~seed)
    | _ -> [||]
  in
  ( { e_w = w; e_seed = seed; e_facts = facts; e_srv = srv; e_snap = snap;
      e_pool = pool },
    List.rev !stages,
    !bad )

(* ------------------------------------------------------------------ *)
(* The op phase                                                        *)
(* ------------------------------------------------------------------ *)

type done_op = {
  d_op : W.op;
  d_status : Server.status;
  d_body : string;
  d_cached : bool;
  d_queue_s : float;
  d_lat_s : float;  (** submit to response, raw wall *)
  d_round : int;
}

type round = {
  rd_t0 : float;
  rd_t1 : float;
  rd_ns0 : int64;
  rd_ns1 : int64;
  rd_win : int;
  rd_words : float;
  rd_ops : int;
}

(* The next round's requests: one per ready client. *)
let next_ops (e : env) ~n_round =
  match e.e_w with
  | W.Wan_change_verify -> [ W.change_op e.e_facts ~seed:e.e_seed n_round ]
  | W.Small_tenant_mix ->
      List.init (W.clients e.e_w) (fun c ->
          W.tenant_op e.e_pool ~seed:e.e_seed ~client:c n_round)

(* Rounds in one cycle of a workload's request mix: the op phase ends
   on a cycle boundary, so every run serves the same mix. *)
let cycle = function
  | W.Wan_change_verify -> Array.length W.change_kinds
  | W.Small_tenant_mix -> 1

(* Rounds whose allocation is summed into alloc_mwords_per_op: always
   completed, whatever the machine speed, so the count repeats exactly.
   On wan-change-verify these are three cycles, so that p99_ms (see
   [p99]) is a median over three link-down fallbacks. *)
let alloc_rounds = function
  | W.Wan_change_verify -> 3 * Array.length W.change_kinds
  | W.Small_tenant_mix -> 60

(* The op phase goes on until [seconds] have passed, [min_rounds] (by
   default the allocation window) are complete and the last cycle is
   whole. *)
let more_rounds ?min_rounds w ~t_start ~seconds n =
  let min_rounds = Option.value min_rounds ~default:(alloc_rounds w) in
  Util.now () -. t_start < seconds || n < min_rounds || n mod cycle w <> 0

(* Run one round on [srv]: submit every op, drain once. *)
let run_round ~calib srv ops ~n_round =
  let win = Calib.current calib in
  let w0 = Util.alloc_words () in
  let ns0 = Clock.now_ns () in
  let t0 = Util.now () in
  let rejected =
    List.filter_map
      (fun (o : W.op) ->
        match Server.submit srv o.W.o_rq with Ok () -> None | Error r -> Some (o, r))
      ops
  in
  let responses = Server.drain srv in
  let t1 = Util.now () in
  let ns1 = Clock.now_ns () in
  let words = Util.alloc_words () -. w0 in
  let by_id = Hashtbl.create 8 in
  List.iter (fun (r : Server.response) -> Hashtbl.replace by_id r.Server.rs_id r) responses;
  List.iter (fun (o, r) -> Hashtbl.replace by_id o.W.o_rq.Request.r_id r) rejected;
  let done_ops =
    List.map
      (fun (o : W.op) ->
        let r = Hashtbl.find by_id o.W.o_rq.Request.r_id in
        {
          d_op = o;
          d_status = r.Server.rs_status;
          d_body = r.Server.rs_body;
          d_cached = r.Server.rs_cached;
          d_queue_s = r.Server.rs_queue_s;
          d_lat_s = r.Server.rs_queue_s +. r.Server.rs_exec_s;
          d_round = n_round;
        })
      ops
  in
  ignore (Calib.after calib ~words);
  ( { rd_t0 = t0; rd_t1 = t1; rd_ns0 = ns0; rd_ns1 = ns1; rd_win = win;
      rd_words = words; rd_ops = List.length ops },
    done_ops )

(* The closed loop (see [more_rounds]).  Also returns the peak RSS when that
   window ends (later rounds grow the server's per-request records, so
   the peak after them would depend on machine speed). *)
let op_phase ~calib (e : env) ~seconds =
  let t_start = Util.now () in
  let rounds = ref [] and ops = ref [] and rss = ref nan in
  let n = ref 0 in
  while more_rounds e.e_w ~t_start ~seconds !n do
    let rd, d = run_round ~calib e.e_srv (next_ops e ~n_round:!n) ~n_round:!n in
    rounds := rd :: !rounds;
    ops := List.rev_append d !ops;
    incr n;
    if !n = alloc_rounds e.e_w then rss := Util.peak_rss_mb ()
  done;
  ignore (Calib.window calib);
  (Array.of_list (List.rev !rounds), List.rev !ops, !rss)

(* ------------------------------------------------------------------ *)
(* Verdict oracle                                                      *)
(* ------------------------------------------------------------------ *)

(* Ops whose verdicts are re-derived through the scratch path. *)
let scratch_sample (e : env) (ops : done_op list) : done_op list =
  let st = Random.State.make [| e.e_seed; 41 |] in
  let pick_where p =
    let c = List.filter p ops |> Array.of_list in
    if Array.length c = 0 then [] else [ c.(Random.State.int st (Array.length c)) ]
  in
  match e.e_w with
  | W.Wan_change_verify -> pick_where (fun _ -> true)
  | W.Small_tenant_mix ->
      (* every distinct pool entry that was served, except that the
         exhaustive scratch sweeps of whatif entries (a full fixpoint per
         failure class) are sampled two at a time *)
      let seen = Hashtbl.create 64 in
      let distinct =
        List.filter
          (fun d ->
            if Hashtbl.mem seen d.d_op.W.o_key then false
            else (Hashtbl.replace seen d.d_op.W.o_key (); true))
          ops
      in
      let whatif, others =
        List.partition (fun d -> d.d_op.W.o_rq.Request.r_class = Request.Whatif) distinct
      in
      let whatif = Array.of_list whatif in
      let n = Array.length whatif in
      let first = Random.State.int st (max 1 n) in
      others
      @ List.filteri (fun i _ -> n > 0 && (i = first || i = (first + 1) mod n)) (Array.to_list whatif)

(* Failures, one per failed op with its first reason: (op id, reason). *)
let failures_of (l : (done_op * string) list) =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun ((d : done_op), why) ->
      let id = d.d_op.W.o_rq.Request.r_id in
      if Hashtbl.mem seen id then None else (Hashtbl.replace seen id (); Some (id, why)))
    l

(* Ops that errored, were rejected or timed out, broke their
   by-construction expectation, or differ from an earlier op with the
   same semantic key. *)
let check_ops (ops : done_op list) : (done_op * string) list =
  let first_body = Hashtbl.create 64 in
  List.concat_map
    (fun d ->
      let expect =
        match W.check d.d_op.W.o_expect d.d_status d.d_body with
        | Some why -> [ (d, why) ]
        | None -> []
      in
      match Hashtbl.find_opt first_body d.d_op.W.o_key with
      | None ->
          Hashtbl.replace first_body d.d_op.W.o_key (d.d_status, d.d_body);
          expect
      | Some sb when sb <> (d.d_status, d.d_body) -> expect @ [ (d, "differs from its duplicate") ]
      | Some _ -> expect)
    ops

(* The verdict oracle: [check_ops], plus byte identity with the scratch
   path on the seeded sample.  Returns the failures and the sample size. *)
let oracle (e : env) (ops : done_op list) : (string * string) list * int =
  let sample = scratch_sample e ops in
  let scratch =
    List.filter_map
      (fun d ->
        let st, body = Server.run_direct ~tm:Telemetry.noop e.e_snap d.d_op.W.o_rq in
        if (st, body) <> (d.d_status, d.d_body) then Some (d, "differs from the scratch path")
        else None)
      sample
  in
  (failures_of (check_ops ops @ scratch), List.length sample)

(* ------------------------------------------------------------------ *)
(* Normalised figures                                                  *)
(* ------------------------------------------------------------------ *)

let stage_factor ~factor s = factor s.sg_win ~t0:s.sg_t0 ~t1:(s.sg_t0 +. s.sg_raw_s)
let round_factor ~factor r = factor r.rd_win ~t0:r.rd_t0 ~t1:r.rd_t1

let setup_totals ~factor (stages : stage list) =
  let raw = Util.sum (List.map (fun s -> s.sg_raw_s) stages) in
  let norm = Util.sum (List.map (fun s -> s.sg_raw_s *. stage_factor ~factor s) stages) in
  let words = Util.sum (List.map (fun s -> s.sg_words) stages) in
  (raw, norm, words)

type phase = {
  ph_lat_raw : float list;  (** seconds *)
  ph_lat_norm : float list;
  ph_p99_raw : float;
  ph_p99_norm : float;
  ph_busy_raw : float;
  ph_busy_norm : float;
  ph_alloc_per_op : float;  (** words, over the fixed allocation window *)
}

(* Nearest-rank p99 of the latencies [lat] of [ops].  With fewer than a
   hundred ops a run's p99 is its slowest op; on wan-change-verify
   (nine ops a cycle, the slowest a link-down fallback of seconds) that
   single op would make the figure a one-sample reading, so there it is
   each cycle's p99, median over the run's cycles. *)
let p99 w (ops : done_op list) (lat : float list) =
  match w with
  | W.Wan_change_verify ->
      let by_cycle = Hashtbl.create 8 in
      List.iter2
        (fun d l ->
          let c = d.d_round / cycle w in
          Hashtbl.replace by_cycle c (l :: Option.value (Hashtbl.find_opt by_cycle c) ~default:[]))
        ops lat;
      Util.median (Hashtbl.fold (fun _ ls acc -> Util.quantile 0.99 ls :: acc) by_cycle [])
  | _ -> Util.quantile 0.99 lat

let phase_figures ~factor w (rounds : round array) (ops : done_op list) =
  let lat_raw = List.map (fun d -> d.d_lat_s) ops in
  let lat_norm = List.map (fun d -> d.d_lat_s *. round_factor ~factor rounds.(d.d_round)) ops in
  let busy_raw = Array.fold_left (fun a r -> a +. (r.rd_t1 -. r.rd_t0)) 0. rounds in
  let busy_norm =
    Array.fold_left (fun a r -> a +. ((r.rd_t1 -. r.rd_t0) *. round_factor ~factor r)) 0. rounds
  in
  let na = alloc_rounds w in
  let words = ref 0. and n = ref 0 in
  Array.iteri (fun i r -> if i < na then (words := !words +. r.rd_words; n := !n + r.rd_ops)) rounds;
  { ph_lat_raw = lat_raw; ph_lat_norm = lat_norm;
    ph_p99_raw = p99 w ops lat_raw; ph_p99_norm = p99 w ops lat_norm; ph_busy_raw = busy_raw;
    ph_busy_norm = busy_norm; ph_alloc_per_op = !words /. float_of_int (max 1 !n) }

(* ------------------------------------------------------------------ *)
(* A measured run                                                      *)
(* ------------------------------------------------------------------ *)

(* Set-ups per run.  A WAN set-up costs 10-16 s (most of it the base
   fixpoint); one per run keeps a full measurement schedule (ten runs of
   each workload, twice) inside an hour even when the machine is slow.
   The small set-up is cheap, so its median is taken over five. *)
let setups_per_run = function
  | W.Wan_change_verify -> 1
  | W.Small_tenant_mix -> 5

let fresh_heap () =
  Snapshot.reset_registry ();
  Gc.compact ()

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                metrics) );
       ])

(* Digest of the requests of the first [n] rounds. *)
let stream_digest (e : env) n =
  let b = Buffer.create 4096 in
  for i = 0 to n - 1 do
    List.iter
      (fun (o : W.op) -> Buffer.add_string b (W.describe o.W.o_rq))
      (next_ops e ~n_round:i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let print_kernel calib =
  let unit_s, med, spread, n = Calib.summary calib in
  row "calibration: unit %.3f us (reference %.3f us), median %.3f us, IQR %.2f%% of median, %d units, %.2f s kernel time, %.0f words promoted"
    (unit_s *. 1e6) (Calib.ref_unit_s *. 1e6) (med *. 1e6) (100. *. spread) n
    (Calib.kernel_seconds calib) (Calib.promoted_words calib)

type outcome = {
  oc_env : env;
  oc_calib : Calib.t;
  oc_setups : stage list list;
  oc_rounds : round array;
  oc_ops : done_op list;
  oc_rss_mb : float;  (** peak RSS at the end of the allocation window *)
  oc_failures : (string * string) list;
  oc_sampled : int;
  oc_problems : string list;  (** set-up warm-up failures *)
}

(* Set up [setups] times (each from an empty snapshot registry and a
   compacted heap; the last one is kept), then run the op phase and the
   verdict oracle. *)
let measure ?(reduced = false) ?setups w ~seed ~seconds : outcome =
  let calib = Calib.create () in
  ignore (Calib.window calib);
  let n_setups = Option.value setups ~default:(setups_per_run w) in
  let last = ref None and all_stages = ref [] and problems = ref [] in
  for _ = 1 to n_setups do
    last := None;
    fresh_heap ();
    let env, stages, bad = setup ~calib ~reduced w ~seed in
    problems := bad @ !problems;
    all_stages := stages :: !all_stages;
    last := Some env
  done;
  let env = Option.get !last in
  let rounds, ops, rss = op_phase ~calib env ~seconds in
  let failures, sampled = oracle env ops in
  { oc_env = env; oc_calib = calib; oc_setups = List.rev !all_stages; oc_rounds = rounds;
    oc_ops = ops; oc_rss_mb = rss; oc_failures = failures; oc_sampled = sampled; oc_problems = !problems }

(* Kernel windows must never fall inside a timed interval. *)
let calibration_outside (oc : outcome) =
  Array.for_all (fun r -> not (Calib.overlaps oc.oc_calib (r.rd_t0, r.rd_t1))) oc.oc_rounds

let e2e_metrics (oc : outcome) =
  let w = oc.oc_env.e_w in
  let factor = Calib.factors oc.oc_calib in
  let setups = List.map (setup_totals ~factor) oc.oc_setups in
  let ph = phase_figures ~factor w oc.oc_rounds oc.oc_ops in
  let failed = List.length oc.oc_failures in
  let correct_ops = List.length oc.oc_ops - failed in
  let med f = Util.median (List.map f setups) in
  let ms x = 1000. *. x in
  let norm =
    [
      ("setup_s", med (fun (_, n, _) -> n), med (fun (r, _, _) -> r), "s");
      ("p50_ms", ms (Util.median ph.ph_lat_norm), ms (Util.median ph.ph_lat_raw), "ms");
      ("p99_ms", ms ph.ph_p99_norm, ms ph.ph_p99_raw, "ms");
      ( "verdicts_per_s",
        float_of_int correct_ops /. ph.ph_busy_norm,
        float_of_int correct_ops /. ph.ph_busy_raw,
        "1/s" );
    ]
  in
  let counts =
    [
      ("alloc_mwords_per_op", ph.ph_alloc_per_op /. 1e6, "Mword");
      ("setup_alloc_mwords", med (fun (_, _, w) -> w) /. 1e6, "Mword");
      ("peak_rss_mb", oc.oc_rss_mb, "MB");
    ]
  in
  (norm, counts, setups)

let report_failures (oc : outcome) =
  List.iter (fun p -> row "SETUP FAILURE: %s" p) oc.oc_problems;
  List.iteri
    (fun i (id, why) -> if i < 20 then row "FAILED OP %s: %s" id why)
    oc.oc_failures

(* Self-checks every run makes: kernel time never falls inside a timed
   round, and the kernel promoted nothing.  (That the stream is a
   function of the seed is a self-test: it needs two set-ups.) *)
let run_checks (oc : outcome) =
  let checks =
    [
      ("calibration outside every timed round", calibration_outside oc);
      ("kernel promoted nothing", Calib.promoted_words oc.oc_calib = 0.);
    ]
  in
  row "request stream digest (16 rounds): %s" (stream_digest oc.oc_env 16);
  List.iter (fun (n, ok) -> if not ok then row "SELF-CHECK FAILED: %s" n) checks;
  List.for_all snd checks

let run_e2e w ~seed ~seconds =
  let oc = measure w ~seed ~seconds in
  let norm, counts, setups = e2e_metrics oc in
  row "workload %s, seed %d, %d client(s), %d round(s), %d op(s), %d scratch-checked"
    (W.to_string w) seed (W.clients w) (Array.length oc.oc_rounds)
    (List.length oc.oc_ops) oc.oc_sampled;
  let factor = Calib.factors oc.oc_calib in
  List.iteri
    (fun i ((raw, n, words), stages) ->
      row "setup %d: normalised %.4f s, raw wall %.4f s, %.3f Mword" (i + 1) n raw (words /. 1e6);
      List.iter
        (fun sg ->
          let f = stage_factor ~factor sg in
          row "  stage %-9s raw %8.4f s  normalised %8.4f s  (factor %.3f)  %.3f Mword"
            sg.sg_name sg.sg_raw_s (sg.sg_raw_s *. f) f
            (sg.sg_words /. 1e6))
        stages)
    (List.combine setups oc.oc_setups);
  List.iter
    (fun (k, n, raw, u) -> row "%-22s %14.4f %-6s (raw wall %.4f)" k n u raw)
    norm;
  List.iter (fun (k, v, u) -> row "%-22s %14.4f %s" k v u) counts;
  print_kernel oc.oc_calib;
  (* per-op detail where ops are few enough to list *)
  if List.length oc.oc_ops <= 64 then begin
    let factor = Calib.factors oc.oc_calib in
    List.iter
      (fun d ->
        let f = round_factor ~factor oc.oc_rounds.(d.d_round) in
        row "op %-28s %-9s raw %9.2f ms  normalised %9.2f ms  (factor %.3f)"
          d.d_op.W.o_rq.Request.r_id (Request.class_to_string d.d_op.W.o_rq.Request.r_class)
          (1000. *. d.d_lat_s) (1000. *. d.d_lat_s *. f) f)
      oc.oc_ops
  end;
  report_failures oc;
  let checks_ok = run_checks oc in
  let metrics =
    List.map (fun (k, n, _, u) -> (k, n, u)) norm @ counts
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v && v > 0.) metrics in
  if not finite then row "SELF-CHECK FAILED: a metric is not a positive number";
  let failed = List.length oc.oc_failures + List.length oc.oc_problems in
  print_endline
    (result_line
       ~correct:(failed = 0 && checks_ok && finite)
       ~attempted:(List.length oc.oc_ops) ~failed metrics)

