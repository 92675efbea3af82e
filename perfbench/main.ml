(* The change-verification benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   One process, one closed loop per workload, everything through the
   public server API (Server.submit / Server.drain).  With --trace 0 the
   last stdout line carries the end-to-end metrics; with --trace 1 the
   run switches telemetry on (beside an untraced twin server, for the
   overhead) and the last line carries the per-layer metrics.  Lines
   before it show every normalised time next to its raw wall value and
   the calibration kernel's own figures.
   See NOTES.md for the workloads and what each metric should move. *)

module W = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --selftest";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10. in
  let trace = ref 0 and selftest = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := W.of_string v; if !workload = None then usage (); parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with Some s -> seconds := s; parse rest | None -> usage ())
    | "--trace" :: v :: rest -> (
        match v with "0" -> trace := 0; parse rest | "1" -> trace := 1; parse rest | _ -> usage ())
    | "--selftest" :: rest -> selftest := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !selftest then Selftest.run ()
  else
    match (!workload, !seed) with
    | Some w, Some seed ->
        if !trace = 1 then Traced.run w ~seed ~seconds:!seconds
        else Run.run_e2e w ~seed ~seconds:!seconds
    | _ -> usage ()
