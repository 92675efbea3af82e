(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers).

   Usage:
     dune exec bench/main.exe                  # every table and figure
     dune exec bench/main.exe -- table4 fig5a  # selected sections
     dune exec bench/main.exe -- --quick ...   # smaller workloads
     dune exec bench/main.exe -- --micro       # bechamel micro-benchmarks
     dune exec bench/main.exe -- --ablate      # design-choice ablations
     dune exec bench/main.exe -- --lint        # static-analysis gate cost
     dune exec bench/main.exe -- --telemetry   # telemetry noop/live cost
                                               # (writes BENCH_PR3.json)
     dune exec bench/main.exe -- --semantic    # semantic pass + intent
                                               # pre-checker vs simulation
                                               # (writes BENCH_PR4.json)
     dune exec bench/main.exe -- --chaos       # monitor-loop overhead +
                                               # fault-matrix recovery
                                               # (writes BENCH_PR5.json)
     dune exec bench/main.exe -- --diff-bench  # differential change-impact
                                               # pass vs full patched
                                               # simulation
                                               # (writes BENCH_PR7.json)
     dune exec bench/main.exe -- --serve-bench # multi-tenant request server
                                               # open-loop load + contract
                                               # check
                                               # (writes BENCH_PR8.json)
     dune exec bench/main.exe -- --whatif-bench# exhaustive k-failure sweep:
                                               # blast-radius pruning vs
                                               # brute force
                                               # (writes BENCH_PR9.json)
     dune exec bench/main.exe -- --inc-bench   # incremental delta splice
                                               # vs full re-simulation on
                                               # a 300-plan mixed batch
                                               # (writes BENCH_PR10.json) *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("table1", "scale requirements", B_scale.table1);
    ("figure1", "centralized simulation limits", B_scale.figure1);
    ("table2", "the 12 change types", B_changes.table2);
    ("table3", "capability matrix", B_changes.table3);
    ("figure5a", "distributed route simulation", B_scale.figure5a);
    ("figure5b", "distributed traffic simulation", B_scale.figure5b);
    ("figure5c", "subtask run-time CDF", B_scale.figure5c);
    ("figure5d", "loaded RIB files CDF", B_scale.figure5d);
    ("figure6", "RCL running example", B_rcl.figure6_7);
    ("figure8", "RCL spec sizes and verification time", B_rcl.figure8);
    ("figure9", "root-cause analysis case", B_accuracy.figure9);
    ("table4", "issue taxonomy fault injection", B_accuracy.table4);
    ("table5", "VSB differential testing", B_accuracy.table5);
    ("table6", "change-risk corpus", B_changes.table6);
  ]

(* "--out FILE" takes a value; pull the pair out of argv before the
   prefix-based flag/section partition would misroute FILE. *)
let rec extract_out acc = function
  | "--out" :: file :: rest -> (Some file, List.rev_append acc rest)
  | a :: rest -> extract_out (a :: acc) rest
  | [] -> (None, List.rev acc)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let out, args = extract_out [] args in
  Option.iter
    (fun f ->
      B_telemetry.output_file := f;
      B_semantic.output_file := f;
      B_chaos.output_file := f;
      B_diff.output_file := f;
      B_serve.output_file := f;
      B_whatif.output_file := f;
      B_inc.output_file := f)
    out;
  let flags, wanted = List.partition (fun a -> String.length a > 2 && String.sub a 0 2 = "--") args in
  if List.mem "--quick" flags then B_common.quick := true;
  let t0 = Unix.gettimeofday () in
  if List.mem "--micro" flags then B_micro.run ()
  else if List.mem "--ablate" flags then B_ablate.all ()
  else if List.mem "--lint" flags then B_lint.run ()
  else if List.mem "--telemetry" flags then B_telemetry.run ()
  else if List.mem "--semantic" flags then B_semantic.run ()
  else if List.mem "--chaos" flags then B_chaos.run ()
  else if List.mem "--diff-bench" flags then B_diff.run ()
  else if List.mem "--serve-bench" flags then B_serve.run ()
  else if List.mem "--whatif-bench" flags then B_whatif.run ()
  else if List.mem "--inc-bench" flags then B_inc.run ()
  else begin
    (* "fig5a" etc. are accepted as shorthand for "figure5a"; the alias
       only applies to names actually prefixed with "figure" (a bare
       "fig" argument used to silently select table1 via String.sub) *)
    let fig_alias name =
      let pfx = "figure" in
      let lp = String.length pfx in
      if String.length name > lp && String.equal (String.sub name 0 lp) pfx
      then Some ("fig" ^ String.sub name lp (String.length name - lp))
      else None
    in
    let selected =
      if wanted = [] then sections
      else
        List.filter
          (fun (name, _, _) ->
            List.exists
              (fun w ->
                String.equal w name
                ||
                match fig_alias name with
                | Some alias -> String.equal alias w
                | None -> false)
              wanted)
          sections
    in
    let selected =
      if selected = [] && wanted <> [] then begin
        Printf.printf "unknown section(s): %s\navailable: %s\n"
          (String.concat " " wanted)
          (String.concat " " (List.map (fun (n, _, _) -> n) sections));
        []
      end
      else selected
    in
    List.iter
      (fun (name, desc, run) ->
        Printf.printf "\n################ %s — %s\n%!" name desc;
        run ())
      selected
  end;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
