(* The static-analysis (lint) subsystem: the clean generated corpus must
   lint clean (zero false positives), every injected defect class must
   fire its cataloged code on the right device, and the containment
   reasoning behind the shadowing checks must match the prefix-list
   match semantics. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module D = Hoyan_analysis.Diagnostics
module Lint = Hoyan_analysis.Lint
module G = Hoyan_workload.Generator
module Defects = Hoyan_workload.Defects
module Model = Hoyan_sim.Model
module VR = Hoyan_core.Verify_request

let small = lazy (G.generate G.small)

let lint_clean (g : G.t) =
  Lint.run
    (Lint.make ~topo:g.G.model.Model.topo g.G.model.Model.configs)

(* --- zero false positives on the clean corpus ---------------------- *)

let test_clean_corpus () =
  let g = Lazy.force small in
  let diags = lint_clean g in
  Alcotest.(check (list string))
    "clean small corpus lints clean"
    []
    (List.map D.to_string diags)

(* --- every injected defect class fires its code -------------------- *)

let test_injections () =
  let g = Lazy.force small in
  List.iter
    (fun (inj : Defects.injected) ->
      let diags = Defects.detect inj in
      let fired =
        List.filter
          (fun (d : D.t) -> String.equal d.D.d_code inj.Defects.inj_code)
          diags
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s fires %s" inj.Defects.inj_class
           inj.Defects.inj_code)
        true (fired <> []);
      (* location: the diagnostic lands on the device the defect was
         planted on *)
      match inj.Defects.inj_device with
      | None -> ()
      | Some dev ->
          Alcotest.(check bool)
            (Printf.sprintf "%s locates device %s" inj.Defects.inj_class dev)
            true
            (List.exists
               (fun (d : D.t) -> d.D.d_loc.D.loc_device = Some dev)
               fired))
    (Defects.inject_all g)

(* config-level defects must also carry a line number into the rendered
   config (the plan/RCL classes have no device text to anchor to) *)
let test_injection_lines () =
  let g = Lazy.force small in
  let line_classes =
    [
      "undefined-prefix-list"; "undefined-community-list";
      "undefined-aspath-filter"; "undefined-route-policy"; "undefined-acl";
      "ebgp-missing-policy"; "shadowed-policy-term"; "shadowed-prefix-entry";
      "invalid-aspath-regex"; "vrf-import-no-exporter";
      "vrf-export-no-importer"; "undefined-interface";
    ]
  in
  List.iter
    (fun cls ->
      let inj = Defects.inject g cls in
      let fired =
        List.filter
          (fun (d : D.t) -> String.equal d.D.d_code inj.Defects.inj_code)
          (Lint.run inj.Defects.inj_input)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s carries a line number" cls)
        true
        (List.exists (fun (d : D.t) -> d.D.d_loc.D.loc_line <> None) fired))
    line_classes

(* --- entry containment mirrors prefix_entry_matches ---------------- *)

let entry seq s ge le =
  {
    Types.pe_seq = seq;
    pe_action = Types.Permit;
    pe_prefix = Prefix.of_string_exn s;
    pe_ge = ge;
    pe_le = le;
  }

let test_entry_covers () =
  let chk name expected a b =
    Alcotest.(check bool) name expected (Lint.entry_covers a b)
  in
  chk "10/8 le 32 covers 10.1/16 le 24" true
    (entry 1 "10.0.0.0/8" None (Some 32))
    (entry 2 "10.1.0.0/16" None (Some 24));
  chk "10/8 (exact) does not cover 10.1/16" false
    (entry 1 "10.0.0.0/8" None None)
    (entry 2 "10.1.0.0/16" None None);
  chk "10/8 ge 16 le 24 covers 10.1/16 exact" true
    (entry 1 "10.0.0.0/8" (Some 16) (Some 24))
    (entry 2 "10.1.0.0/16" None None);
  chk "10/8 ge 17 does not cover 10.1/16 exact" false
    (entry 1 "10.0.0.0/8" (Some 17) None)
    (entry 2 "10.1.0.0/16" None None);
  chk "disjoint prefixes never cover" false
    (entry 1 "10.0.0.0/8" None (Some 32))
    (entry 2 "192.168.0.0/16" None None);
  chk "families never mix" false
    (entry 1 "::/0" None (Some 128))
    (entry 2 "10.1.0.0/16" None None)

let test_shadowed_entries () =
  let pl =
    {
      Types.pl_name = "P";
      pl_family = Ip.Ipv4;
      pl_entries =
        [
          entry 5 "10.0.0.0/8" None (Some 32);
          entry 10 "10.1.0.0/16" None (Some 24);
          entry 15 "192.168.0.0/16" None None;
        ];
    }
  in
  match Lint.shadowed_entries pl with
  | [ (shadowed, by) ] ->
      Alcotest.(check int) "seq 10 is shadowed" 10 shadowed.Types.pe_seq;
      Alcotest.(check int) "by seq 5" 5 by.Types.pe_seq
  | l -> Alcotest.failf "expected one shadowed entry, got %d" (List.length l)

(* --- RCL checks ---------------------------------------------------- *)

let lint_spec spec =
  Lint.run (Lint.make ~specs:[ ("t", spec) ] Types.Smap.empty)

let codes ds = List.map (fun (d : D.t) -> d.D.d_code) ds

let test_rcl_checks () =
  Alcotest.(check (list string))
    "well-typed spec is clean" []
    (codes (lint_spec "POST || localPref = 200 |> count() = 0"));
  Alcotest.(check bool) "type confusion -> HOY016" true
    (List.mem "HOY016"
       (codes (lint_spec "POST || device = 100 |> count() = 0")));
  Alcotest.(check bool) "ordering a set -> HOY016" true
    (List.mem "HOY016"
       (codes (lint_spec "POST || communities > 10 |> count() = 0")));
  Alcotest.(check bool) "bad regex -> HOY017" true
    (List.mem "HOY017"
       (codes (lint_spec "POST || aspath matches \"(\" |> count() = 0")));
  Alcotest.(check bool) "contradictory bounds -> HOY018" true
    (List.mem "HOY018"
       (codes
          (lint_spec
             "POST || (localPref > 200 and localPref < 100) |> count() = 0")));
  Alcotest.(check bool) "satisfiable bounds are clean" true
    (not
       (List.mem "HOY018"
          (codes
             (lint_spec
                "POST || (localPref > 100 and localPref < 200) |> count() = 0"))));
  Alcotest.(check bool) "parse failure -> HOY015" true
    (List.mem "HOY015" (codes (lint_spec "PRE = ")))

(* --- the pre-simulation gate in Verify_request --------------------- *)

let test_gate () =
  let g = Lazy.force small in
  let base =
    Hoyan_core.Preprocess.prepare g.G.model
      ~monitored_routes:g.G.input_routes ~monitored_flows:g.G.flows
  in
  let bad_plan =
    Cp.make "bad" ~commands:[ ("no-such-device", "interface Eth0\n") ]
  in
  let rq =
    { VR.rq_name = "gated"; rq_plan = bad_plan; rq_intents = [] }
  in
  (* fail-fast: stops before simulation *)
  let r = VR.run ~lint:VR.Lint_fail base rq in
  Alcotest.(check bool) "gated request fails" false r.VR.vr_ok;
  Alcotest.(check bool) "gate reports being hit" true r.VR.vr_gated;
  Alcotest.(check bool) "gate produced diagnostics" true (r.VR.vr_lint <> []);
  Alcotest.(check (list string)) "no simulation ran" []
    (List.map (fun _ -> "route") r.VR.vr_updated_rib);
  (* warn mode: diagnostics recorded, run proceeds *)
  let r = VR.run ~lint:VR.Lint_warn base rq in
  Alcotest.(check bool) "warn mode does not gate" false r.VR.vr_gated;
  Alcotest.(check bool) "warn mode still reports" true (r.VR.vr_lint <> []);
  (* off: nothing recorded *)
  let r = VR.run ~lint:VR.Lint_off base rq in
  Alcotest.(check (list string)) "off mode reports nothing" []
    (List.map D.to_string r.VR.vr_lint);
  (* a clean plan under fail-fast passes the gate *)
  let ok_rq =
    { VR.rq_name = "clean"; rq_plan = Cp.make "noop"; rq_intents = [] }
  in
  let r = VR.run ~lint:VR.Lint_fail base ok_rq in
  Alcotest.(check bool) "clean plan is not gated" false r.VR.vr_gated;
  (* the gate, the model and the differential pass see one application
     of the plan: topology ops first, then the command blocks *)
  let model = g.G.model in
  let lint_plan plan =
    Lint.run
      (Lint.make ~topo:model.Model.topo ~plan model.Model.configs)
  in
  let codes_on dev code ds =
    List.filter
      (fun (d : D.t) ->
        d.D.d_code = code && d.D.d_loc.D.loc_device = Some dev)
      ds
  in
  let same_patched_configs label plan =
    let m', _ = Model.apply_change_plan model plan in
    let d =
      Hoyan_analysis.Differential.diff
        (Lint.make ~topo:model.Model.topo ~render:false model.Model.configs)
        plan
    in
    Alcotest.(check bool)
      (label ^ ": differential patched configs = model's")
      true
      (Types.Smap.equal ( = ) m'.Model.configs
         d.Hoyan_analysis.Differential.df_patched_input.Lint.li_configs)
  in
  (* an added device whose block does not parse *)
  let newrtr =
    {
      Topology.name = "newrtr";
      vendor = "vendorA";
      asn = 65000;
      router_id = Ip.of_string_exn "10.255.255.1";
      region = "r00";
      role = Topology.Wan_core;
    }
  in
  let added =
    Cp.make "add-newrtr" ~topo_ops:[ Cp.Add_device newrtr ]
      ~commands:[ ("newrtr", "router bgp 65000\n this is not a command") ]
  in
  let _, reports = Model.apply_change_plan model added in
  let issues reports =
    List.concat_map
      (fun (r : Cp.apply_report) ->
        List.map
          (fun i -> r.Cp.ar_device ^ ": " ^ Cp.issue_to_string i)
          r.Cp.ar_issues)
      reports
  in
  Alcotest.(check int) "added device: the model reports one plan issue" 1
    (List.length (issues reports));
  Alcotest.(check int) "added device: one HOY014 on newrtr" 1
    (List.length (codes_on "newrtr" "HOY014" (lint_plan added)));
  let r =
    VR.run ~lint:VR.Lint_fail base
      { VR.rq_name = "add-newrtr"; rq_plan = added; rq_intents = [] }
  in
  Alcotest.(check bool) "added device: Lint_fail gates the request" true
    r.VR.vr_gated;
  let snap =
    Hoyan_server.Server.register_snapshot (Hoyan_server.Server.create ()) base
  in
  let st, _ =
    Hoyan_server.Server.run_direct snap
      (Hoyan_server.Request.make ~plan:added ~id:"add-newrtr"
         Hoyan_server.Request.Lint)
  in
  Alcotest.(check bool) "added device: the server's lint class FAILs" true
    (st = Hoyan_server.Server.Fail);
  same_patched_configs "added device" added;
  (* a removed device that still gets a command block *)
  let removed =
    Cp.make "remove-bdr00" ~topo_ops:[ Cp.Remove_device "r00-bdr00" ]
      ~commands:[ ("r00-bdr00", "ip route 192.0.2.0/24 10.0.0.1\n") ]
  in
  let _, reports = Model.apply_change_plan model removed in
  Alcotest.(check (list string)) "removed device: the model's report"
    [ "r00-bdr00: line 0: unknown device \"r00-bdr00\"" ]
    (issues reports);
  Alcotest.(check int) "removed device: exactly one HOY012 on r00-bdr00" 1
    (List.length (codes_on "r00-bdr00" "HOY012" (lint_plan removed)));
  same_patched_configs "removed device" removed

(* --- catalog sanity ------------------------------------------------ *)

let test_catalog () =
  let codes = List.map (fun (c, _, _, _) -> c) D.catalog in
  Alcotest.(check int) "codes are unique"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  Alcotest.(check bool) "at least the issue's 10 checks" true
    (List.length codes >= 10);
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "class %s is cataloged" cls)
        true
        (D.code_of_check cls <> None))
    Defects.classes

let test_json () =
  let d =
    D.make ~code:"HOY001" ~device:"r1" ~obj:"route-policy P node 10" ~line:4
      "match references undefined prefix list %s" "\"X\""
  in
  let json = D.list_to_json [ d ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON contains %s" needle)
        true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re json 0);
           true
         with Not_found -> false))
    [
      "\"code\": \"HOY001\""; "\"severity\": \"error\"";
      "\"device\": \"r1\""; "\"line\": 4"; "\\\"X\\\"";
      "\"counts\"";
    ]

let suite =
  [
    Alcotest.test_case "clean corpus has zero findings" `Quick
      test_clean_corpus;
    Alcotest.test_case "every injected class fires its code" `Quick
      test_injections;
    Alcotest.test_case "config-level findings carry line numbers" `Quick
      test_injection_lines;
    Alcotest.test_case "prefix-entry containment" `Quick test_entry_covers;
    Alcotest.test_case "shadowed prefix entries" `Quick test_shadowed_entries;
    Alcotest.test_case "RCL type/regex/reachability checks" `Quick
      test_rcl_checks;
    Alcotest.test_case "pre-simulation gate modes" `Quick test_gate;
    Alcotest.test_case "catalog integrity" `Quick test_catalog;
    Alcotest.test_case "JSON rendering" `Quick test_json;
  ]
