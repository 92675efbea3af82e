(* --inc-bench: incremental delta simulation vs full from-scratch
   re-simulation (writes BENCH_PR10.json).

   The production loop the paper describes is many change plans a day
   against one converged base.  The incremental engine captures the
   converged base once and re-converges only each plan's dirty region,
   splicing the delta into the cached RIB; this bench drives a 300-plan
   mixed batch (announcements, withdrawals, network statements, policy
   edits, no-ops, and a deliberate share of topology changes that the
   engine must refuse and full-simulate) and reports:

   - identity: for a deterministic subsample the full from-scratch run
     executes too and the spliced RIB must match row for row;
   - measured per-plan ratio on that subsample (both sides really ran);
   - batch wall-clock: the whole 300-plan batch runs incrementally; the
     full-batch cost is extrapolated from the measured subsample mean
     and reported as such ("full_extrapolated": true — running 300 full
     wan fixpoints is exactly the cost this engine exists to avoid);
   - honest fallback counters: topology plans full-simulate inside the
     engine and are counted, not hidden ("speedup with zero fallbacks"
     would be fiction on a mixed batch). *)

open B_common
open Hoyan_net
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Incremental = Hoyan_sim.Incremental
module Differential = Hoyan_analysis.Differential
module Smap = Types.Smap

let output_file = ref "BENCH_PR10.json"

let batch_size = 300

(* ------------------------------------------------------------------ *)
(* The mixed plan batch (deterministic in i)                           *)
(* ------------------------------------------------------------------ *)

let plan_of (g : G.t) i : Cp.t =
  let borders = Array.of_list g.G.borders in
  let border k = borders.(k mod Array.length borders) in
  let input_prefixes =
    List.sort_uniq Prefix.compare
      (List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes)
    |> Array.of_list
  in
  let vendor_a =
    Smap.bindings g.G.model.Model.configs
    |> List.filter (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
    |> List.map fst |> Array.of_list
  in
  match i mod 20 with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
      (* 30%: new prefix announcement at a border *)
      let r =
        Route.make ~device:(border i)
          ~prefix:
            (Prefix.of_string_exn
               (Printf.sprintf "203.%d.%d.0/24" (i mod 120) (i / 120)))
          ~as_path:(As_path.of_asns [ 7018; 3356 ])
          ~source:Route.Ebgp ()
      in
      Cp.make (Printf.sprintf "announce-%d" i) ~new_routes:[ r ]
  | 6 | 7 | 8 | 9 ->
      (* 20%: prefix reclamation *)
      Cp.make
        (Printf.sprintf "withdraw-%d" i)
        ~withdraw:[ input_prefixes.(i mod Array.length input_prefixes) ]
  | 10 | 11 | 12 | 13 ->
      (* 20%: new network statement on a device *)
      let dev = vendor_a.(i mod Array.length vendor_a) in
      let asn =
        (Smap.find dev g.G.model.Model.configs).Types.dc_bgp.Types.bgp_asn
      in
      Cp.make
        (Printf.sprintf "network-%d" i)
        ~commands:
          [
            ( dev,
              Printf.sprintf "router bgp %d\n network 198.%d.%d.0/24\n" asn
                (i mod 120) (i / 120) );
          ]
  | 14 | 15 | 16 ->
      (* 15%: import-policy local-pref edit on a border *)
      let dev = border i in
      let cfg = Smap.find dev g.G.model.Model.configs in
      let block =
        if cfg.Types.dc_vendor = "vendorA" then
          Printf.sprintf
            "route-map INC_BUMP permit 10\n set local-preference %d\n"
            (200 + (i mod 50))
        else
          Printf.sprintf
            "route-policy INC_BUMP permit node 10\n apply local-preference \
             %d\n"
            (200 + (i mod 50))
      in
      Cp.make (Printf.sprintf "policy-%d" i) ~commands:[ (dev, block) ]
  | 17 | 18 ->
      (* 10%: semantic no-op *)
      Cp.make (Printf.sprintf "noop-%d" i)
  | _ ->
      (* 5%: topology change — must fall back to a full run, honestly *)
      let edges = Topology.edges g.G.model.Model.topo |> Array.of_list in
      let e = edges.(i mod Array.length edges) in
      Cp.make
        (Printf.sprintf "linkdown-%d" i)
        ~topo_ops:[ Cp.Remove_link { ra = e.Topology.src; rb = e.Topology.dst } ]

(* A full from-scratch run of the patched model, canonicalized the way
   the splice emits rows. *)
let full_run (g : G.t) (plan : Cp.t) : Route.t list =
  let patched, _ = Model.apply_change_plan g.G.model plan in
  (Route_sim.run patched
     ~input_routes:(Cp.patched_routes plan g.G.input_routes)
     ())
    .Route_sim.rib
  |> List.sort_uniq Route.compare

(* ------------------------------------------------------------------ *)

let run () =
  header "incremental delta simulation: dirty-region splice vs full re-run";
  let g = Lazy.force wan in
  row "workload: wan (%d devices, %d input routes)" (G.device_count g)
    (List.length g.G.input_routes);
  let ctx, t_capture =
    time (fun () ->
        let rib =
          (Route_sim.run g.G.model ~input_routes:g.G.input_routes ())
            .Route_sim.rib
        in
        Incremental.capture ~model:g.G.model ~input_routes:g.G.input_routes
          ~flows:g.G.flows ~rib ())
  in
  row "base capture (one converged fixpoint + indexing): %.2fs" t_capture;
  let n = if !quick then 60 else batch_size in
  let plans = List.init n (fun i -> (i, plan_of g i)) in
  (* ---- identity + measured ratio on a deterministic subsample ----- *)
  let sample = List.filter (fun (i, _) -> i mod 15 = 0) plans in
  let sample_results =
    List.map
      (fun (i, plan) ->
        let s, t_inc = time (fun () -> Incremental.simulate ctx plan) in
        let full, t_full = time (fun () -> full_run g plan) in
        let identical = List.equal Route.equal s.Incremental.s_rib full in
        if not identical then
          row "WARNING: SOUNDNESS VIOLATION: plan %s spliced <> full"
            plan.Cp.cp_name;
        (i, plan.Cp.cp_name, t_inc, t_full, identical,
         s.Incremental.s_stats.Incremental.st_full_fallback))
      sample
  in
  let sample_inc = List.fold_left (fun a (_, _, t, _, _, _) -> a +. t) 0. sample_results in
  let sample_full = List.fold_left (fun a (_, _, _, t, _, _) -> a +. t) 0. sample_results in
  let all_identical =
    List.for_all (fun (_, _, _, _, id, _) -> id) sample_results
  in
  row "subsample (%d plans, both sides measured): inc %.2fs vs full %.2fs \
       (%.1fx); identical: %b"
    (List.length sample_results) sample_inc sample_full
    (if sample_inc > 0. then sample_full /. sample_inc else nan)
    all_identical;
  (* ---- the whole batch, incrementally ----------------------------- *)
  let sims, t_batch =
    time (fun () -> List.map (fun (_, p) -> Incremental.simulate ctx p) plans)
  in
  let fallbacks =
    List.length
      (List.filter
         (fun (s : Incremental.sim) ->
           s.Incremental.s_stats.Incremental.st_full_fallback)
         sims)
  in
  let mean_full = sample_full /. float_of_int (List.length sample_results) in
  let full_est = mean_full *. float_of_int n in
  let speedup = if t_batch > 0. then full_est /. t_batch else nan in
  let _, simulates_fallbacks = Incremental.counters ctx in
  row "batch: %d plan(s) incrementally in %.2fs (%d full fallback(s), \
       topology plans)"
    n t_batch fallbacks;
  row "full-batch extrapolation: %d x %.2fs mean = %.0fs -> %.1fx speedup"
    n mean_full full_est speedup;
  if speedup < 5. then
    row "WARNING: speedup %.1fx below the 5x target" speedup;
  let dirty =
    List.map
      (fun (s : Incremental.sim) ->
        float_of_int s.Incremental.s_stats.Incremental.st_dirty_prefixes)
      sims
  in
  print_cdf "dirty prefixes per plan" dirty ~unit:"prefixes";
  let sample_json (i, name, t_inc, t_full, identical, fb) =
    B_perf.J_obj
      [
        ("plan", B_perf.J_int i);
        ("name", B_perf.J_str name);
        ("inc_s", B_perf.J_float t_inc);
        ("full_s", B_perf.J_float t_full);
        ("identical", B_perf.J_bool identical);
        ("full_fallback", B_perf.J_bool fb);
      ]
  in
  let json =
    B_perf.J_obj
      [
        ("bench", B_perf.J_str "incremental delta simulation");
        ("generated_unix", B_perf.J_float (Unix.gettimeofday ()));
        ("quick", B_perf.J_bool !quick);
        ("workload", B_perf.J_str "wan");
        ("devices", B_perf.J_int (G.device_count g));
        ("input_routes", B_perf.J_int (List.length g.G.input_routes));
        ("capture_s", B_perf.J_float t_capture);
        ("batch_plans", B_perf.J_int n);
        ("batch_inc_s", B_perf.J_float t_batch);
        ("full_fallbacks", B_perf.J_int fallbacks);
        ("engine_fallback_counter", B_perf.J_int simulates_fallbacks);
        ("subsample", B_perf.J_arr (List.map sample_json sample_results));
        ("subsample_inc_s", B_perf.J_float sample_inc);
        ("subsample_full_s", B_perf.J_float sample_full);
        ("mean_full_s", B_perf.J_float mean_full);
        ("full_batch_estimate_s", B_perf.J_float full_est);
        ("full_extrapolated", B_perf.J_bool true);
        ("speedup", B_perf.J_float speedup);
        ("soundness_identical", B_perf.J_bool all_identical);
        ("meets_5x_target", B_perf.J_bool (speedup >= 5.));
        ("peak_rss_kb", B_perf.J_int (B_perf.peak_rss_kb ()));
      ]
  in
  B_perf.write_json !output_file json;
  row "wrote %s" !output_file
