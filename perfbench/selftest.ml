(* The benchmark's self-tests, at reduced size (every workload on the
   small snapshot, the op phase cut to its fixed allocation window):

   - the same seed gives the same request-stream digest, from two
     independent set-ups, and another seed gives another digest;
   - alloc_mwords_per_op and setup_alloc_mwords repeat exactly across
     two in-process runs;
   - no calibration window overlaps a timed round, and the kernel
     promoted nothing.

   Run with: dune exec --root . --profile release perfbench/main.exe -- --selftest *)

open Run
module W = Workloads

let run () =
  let results = ref [] in
  let check name ok =
    Printf.printf "%s  %s\n%!" (if ok then "ok  " else "FAIL") name;
    results := ok :: !results
  in
  List.iter
    (fun w ->
      let name = W.to_string w in
      let a = measure ~reduced:true ~setups:1 w ~seed:7 ~seconds:0. in
      let b = measure ~reduced:true ~setups:1 w ~seed:7 ~seconds:0. in
      let c = measure ~reduced:true ~setups:1 w ~seed:8 ~seconds:0. in
      let da = stream_digest a.oc_env 32 and db = stream_digest b.oc_env 32 in
      check (name ^ ": same seed, same stream digest") (da = db);
      check (name ^ ": other seed, other stream digest") (da <> stream_digest c.oc_env 32);
      let _, counts_a, _ = e2e_metrics a and _, counts_b, _ = e2e_metrics b in
      let exact k =
        let v l = List.find_map (fun (k', v, _) -> if k = k' then Some v else None) l in
        v counts_a = v counts_b
      in
      check (name ^ ": alloc_mwords_per_op repeats exactly") (exact "alloc_mwords_per_op");
      check (name ^ ": setup_alloc_mwords repeats exactly") (exact "setup_alloc_mwords");
      check (name ^ ": calibration outside every timed round")
        (calibration_outside a && calibration_outside b);
      check (name ^ ": kernel promoted nothing")
        (Calib.promoted_words a.oc_calib = 0. && Calib.promoted_words b.oc_calib = 0.);
      check (name ^ ": every verdict correct")
        (a.oc_failures = [] && b.oc_failures = [] && a.oc_problems = []))
    W.all;
  (* a timed interval followed by [after]: the window starts later *)
  let calib = Calib.create ~min_units:1 () in
  let t0 = Util.now () in
  ignore (Sys.opaque_identity (List.init 100_000 Fun.id));
  let t1 = Util.now () in
  ignore (Calib.after calib ~words:1e6);
  check "kernel runs only after the interval it pays for"
    (Calib.n_windows calib = 1 && not (Calib.overlaps calib (t0, t1)));
  if List.for_all Fun.id !results then exit 0 else exit 1
