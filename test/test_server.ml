(* The verification server (lib/server): snapshot store, result cache,
   admission control, budgets, and the byte-identity contract — every
   served verdict (cached or not) is byte-identical to a direct
   Verify_request.run of the same request over the same snapshot. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Printer = Hoyan_config.Printer
module Model = Hoyan_sim.Model
module Smap = Types.Smap
module Preprocess = Hoyan_core.Preprocess
module VR = Hoyan_core.Verify_request
module Intents = Hoyan_core.Intents
module Cache = Hoyan_server.Cache
module Snapshot = Hoyan_server.Snapshot
module Request = Hoyan_server.Request
module Server = Hoyan_server.Server

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let pfx = Prefix.of_string_exn

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4244 |]) t

let small = lazy (G.generate G.small)

let base_of (g : G.t) =
  Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
    ~monitored_flows:g.G.flows

let base = lazy (base_of (Lazy.force small))
let configs () = (Lazy.force small).G.model.Model.configs

(* r00-bdr01 is vendorA at the small scale's fixed seed *)
let border = "r00-bdr01"

let pref_block pref =
  Printf.sprintf
    "route-map ISP_IN permit 10\n set community 64512:100 additive\n set \
     local-preference %d\n"
    pref

let mk_rq ?tenant ?snapshot ?budget_s ?no_cache ?(pref = 250)
    ?(intents = [ Intents.Route_change "PRE = POST" ]) ~id cls =
  let plan = Cp.make id ~commands:[ (border, pref_block pref) ] in
  Request.make ?tenant ?snapshot ?budget_s ?no_cache ~plan ~intents ~id cls

(* ------------------------------------------------------------------ *)
(* the LRU cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 in
  check tbool "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  check tbool "hit after add" true (Cache.find c "a" = Some 1);
  Cache.add c "a" 2;
  check tbool "overwrite keeps one entry" true (Cache.size c = 1);
  check tbool "overwrite visible" true (Cache.find c "a" = Some 2);
  check tint "2 hits" 2 (Cache.hits c);
  check tint "1 miss" 1 (Cache.misses c)

let test_cache_lru_bound () =
  let c = Cache.create ~capacity:3 in
  List.iter (fun k -> Cache.add c k k) [ "a"; "b"; "c" ];
  (* touch "a" so "b" is now least recent *)
  ignore (Cache.find c "a");
  Cache.add c "d" "d";
  check tint "size stays at capacity" 3 (Cache.size c);
  check tint "one eviction" 1 (Cache.evictions c);
  check tbool "LRU entry (b) evicted" true (Cache.find c "b" = None);
  check tbool "recently-used (a) kept" true (Cache.find c "a" = Some "a");
  check tbool "newest (d) kept" true (Cache.find c "d" = Some "d")

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check tint "capacity 0 stores nothing" 0 (Cache.size c);
  check tbool "capacity 0 never hits" true (Cache.find c "a" = None)

(* ------------------------------------------------------------------ *)
(* digests and cache keys                                              *)
(* ------------------------------------------------------------------ *)

(* A plan that adds a router and configures it, in two spellings: one
   block, or the same statements split over two blocks in another
   order.  The patched configs are equal, so the digests must be. *)
let added_device_spellings () =
  let d =
    {
      Topology.name = "newrtr";
      vendor = "vendorA";
      asn = 65000;
      router_id = Ip.of_string_exn "10.255.255.1";
      region = "r00";
      role = Topology.Wan_core;
    }
  in
  let plan name commands =
    Cp.make name ~topo_ops:[ Cp.Add_device d ] ~commands
  in
  ( plan "one-block"
      [
        ( "newrtr",
          "router bgp 65000\n network 203.0.113.0/24\n network \
           198.51.100.0/24\n" );
      ],
    plan "two-blocks"
      [
        ("newrtr", "router bgp 65000\n network 198.51.100.0/24\n");
        ("newrtr", "router bgp 65000\n network 203.0.113.0/24\n");
      ] )

(* PR7's restatement-is-no-op property lifted to cache keys: the plan
   digest ignores the plan's id and block duplication — only the
   patched configurations (plus issues, topo ops, routes) matter. *)
let prop_digest_restatement_stable =
  let g = Lazy.force small in
  let configs = g.G.model.Model.configs in
  let devices = Array.of_list (List.map fst (Smap.bindings configs)) in
  let one_block, two_blocks = added_device_spellings () in
  QCheck.Test.make
    ~name:"plan digest: id-independent and duplicate-block-stable"
    ~count:(Array.length devices)
    (QCheck.make QCheck.Gen.(int_bound (Array.length devices - 1)))
    (fun i ->
      let dev = devices.(i) in
      let block = Printer.print (Smap.find dev configs) in
      let once = Cp.make "restate" ~commands:[ (dev, block) ] in
      let twice =
        Cp.make "other-id" ~commands:[ (dev, block); (dev, block) ]
      in
      let d1 = Request.plan_digest ~configs once in
      let d2 = Request.plan_digest ~configs twice in
      String.equal d1 d2
      && not (String.equal d1 (Request.plan_digest ~configs (Cp.make "e")))
      && String.equal
           (Request.plan_digest ~configs one_block)
           (Request.plan_digest ~configs two_blocks))

let test_digest_sensitive () =
  let configs = configs () in
  let d pref =
    Request.plan_digest ~configs
      (Cp.make "p" ~commands:[ (border, pref_block pref) ])
  in
  check tbool "different preference, different digest" false
    (String.equal (d 240) (d 250));
  let w =
    Request.plan_digest ~configs
      (Cp.make "w" ~withdraw:[ pfx "10.0.0.0/24" ])
  in
  check tbool "withdrawal changes the digest" false
    (String.equal w (Request.plan_digest ~configs (Cp.make "w")))

let test_intents_digest_order () =
  let a = Intents.Route_change "PRE = POST" in
  let b = Intents.Max_utilization 0.9 in
  check tbool "intent order is part of the digest" false
    (String.equal
       (Request.intents_digest [ a; b ])
       (Request.intents_digest [ b; a ]))

let test_cache_key_class () =
  let configs = configs () in
  let key cls =
    Request.cache_key ~snapshot_digest:"snap" ~configs (mk_rq ~id:"k" cls)
  in
  check tbool "class is part of the key" false
    (String.equal (key Request.Simulate) (key Request.Lint));
  (* tenant and id are NOT part of the key: duplicates across tenants
     must share one entry *)
  let k1 =
    Request.cache_key ~snapshot_digest:"snap" ~configs
      (mk_rq ~tenant:"a" ~id:"x" Request.Simulate)
  in
  let k2 =
    Request.cache_key ~snapshot_digest:"snap" ~configs
      (mk_rq ~tenant:"b" ~id:"y" Request.Simulate)
  in
  check tstr "tenant/id do not affect the key" k1 k2

(* ------------------------------------------------------------------ *)
(* the transport                                                       *)
(* ------------------------------------------------------------------ *)

let test_transport_roundtrip () =
  let rqs =
    [
      mk_rq ~tenant:"netops" ~budget_s:60. ~id:"a" Request.Simulate;
      mk_rq ~no_cache:true ~id:"b" Request.Lint;
      Request.make
        ~plan:(Cp.make "c" ~withdraw:[ pfx "10.1.0.0/16" ])
        ~intents:
          [
            Intents.Route_reach
              {
                rr_prefix = pfx "10.1.0.0/16";
                rr_devices = [ border ];
                rr_expect = false;
              };
          ]
        ~id:"c" Request.Precheck;
    ]
  in
  let text = String.concat "" (List.map Request.print rqs) in
  match Request.parse text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed ->
      check tint "same count" (List.length rqs) (List.length parsed);
      List.iter2
        (fun (a : Request.t) (b : Request.t) ->
          check tstr "id" a.Request.r_id b.Request.r_id;
          check tstr "tenant" a.Request.r_tenant b.Request.r_tenant;
          check tbool "class" true (a.Request.r_class = b.Request.r_class);
          check tbool "budget" true (a.Request.r_budget_s = b.Request.r_budget_s);
          check tbool "no-cache" true (a.Request.r_no_cache = b.Request.r_no_cache);
          check tbool "intents" true (a.Request.r_intents = b.Request.r_intents);
          let cfg = configs () in
          check tstr "plan digest survives the round trip"
            (Request.plan_digest ~configs:cfg a.Request.r_plan)
            (Request.plan_digest ~configs:cfg b.Request.r_plan))
        rqs parsed

let test_transport_errors () =
  let expect_err text needle =
    match Request.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error (%s)" needle
    | Error e ->
        check tbool
          (Printf.sprintf "error %S mentions %s" e needle)
          true
          (let re = Str.regexp_string needle in
           try
             ignore (Str.search_forward re e 0);
             true
           with Not_found -> false)
  in
  expect_err "request a frobnicate\nend\n" "class";
  expect_err "request a lint\nplan dev\nnever closed\n" "end-plan";
  expect_err "request a lint\nwithdraw not-a-prefix\nend\n" "prefix";
  expect_err "bogus top-level line\n" "line 1"

(* ------------------------------------------------------------------ *)
(* snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_identity () =
  let srv = Server.create () in
  let s1 = Server.register_snapshot srv (Lazy.force base) in
  (* identical content (freshly generated) re-registers as the same
     snapshot *)
  let s2 = Server.register_snapshot srv (base_of (G.generate G.small)) in
  check tstr "same content, same digest" s1.Snapshot.sn_digest
    s2.Snapshot.sn_digest;
  check tint "one snapshot registered" 1 (List.length (Server.snapshots srv));
  let g9 = G.generate { G.small with G.g_seed = 9 } in
  let s3 = Server.register_snapshot srv (base_of g9) in
  check tbool "different content, different digest" false
    (String.equal s1.Snapshot.sn_digest s3.Snapshot.sn_digest);
  check tint "two snapshots" 2 (List.length (Server.snapshots srv))

(* ------------------------------------------------------------------ *)
(* the serve contract                                                  *)
(* ------------------------------------------------------------------ *)

let drain_one srv =
  match Server.drain srv with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let submit_ok srv rq =
  match Server.submit srv rq with
  | Ok () -> ()
  | Error r ->
      Alcotest.failf "submit rejected: %s"
        (Server.status_to_string r.Server.rs_status)

let test_server_matches_direct () =
  let srv = Server.create () in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  List.iter
    (fun cls ->
      let rq = mk_rq ~id:("c-" ^ Request.class_to_string cls) cls in
      submit_ok srv rq;
      let r = drain_one srv in
      let st, body = Server.run_direct snap rq in
      check tbool
        (Request.class_to_string cls ^ ": status matches direct")
        true
        (st = r.Server.rs_status);
      check tstr
        (Request.class_to_string cls ^ ": body byte-identical to direct")
        body r.Server.rs_body)
    [ Request.Lint; Request.Precheck; Request.Simulate; Request.Diff ]

let test_duplicate_hits_cache () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let rq1 = mk_rq ~tenant:"a" ~id:"dup-1" Request.Simulate in
  let rq2 = mk_rq ~tenant:"b" ~id:"dup-2" Request.Simulate in
  submit_ok srv rq1;
  let r1 = drain_one srv in
  submit_ok srv rq2;
  let r2 = drain_one srv in
  check tbool "first is uncached" false r1.Server.rs_cached;
  check tbool "duplicate is served from the cache" true r2.Server.rs_cached;
  check tstr "cached body byte-identical" r1.Server.rs_body r2.Server.rs_body;
  check tbool "cached status identical" true
    (r1.Server.rs_status = r2.Server.rs_status);
  let st = Server.stats srv in
  check tint "one cache hit" 1 st.Server.st_cache_hits

let test_no_cache_bypass () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let rq k = mk_rq ~no_cache:true ~id:("nc-" ^ string_of_int k) Request.Lint in
  submit_ok srv (rq 1);
  ignore (drain_one srv);
  submit_ok srv (rq 2);
  let r = drain_one srv in
  check tbool "no-cache never serves cached" false r.Server.rs_cached;
  let st = Server.stats srv in
  check tint "no-cache records no hits" 0 st.Server.st_cache_hits;
  check tint "no-cache records no misses" 0 st.Server.st_cache_misses

let test_admission () =
  let srv =
    Server.create
      ~config:
        { Server.default_config with Server.c_queue_depth = 2; c_tenant_quota = 1 }
      ()
  in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let reason rq =
    match Server.submit srv rq with
    | Ok () -> "admitted"
    | Error { Server.rs_status = Server.Rejected r; _ } -> r
    | Error _ -> "other"
  in
  check tstr "unknown snapshot rejected" "unknown-snapshot"
    (reason (mk_rq ~snapshot:"no-such-digest" ~id:"u" Request.Lint));
  check tstr "first of tenant admitted" "admitted"
    (reason (mk_rq ~tenant:"a" ~id:"a1" Request.Lint));
  check tstr "tenant over quota rejected" "tenant-quota"
    (reason (mk_rq ~tenant:"a" ~id:"a2" Request.Lint));
  check tstr "second tenant admitted" "admitted"
    (reason (mk_rq ~tenant:"b" ~id:"b1" Request.Lint));
  check tstr "queue full rejected" "queue-full"
    (reason (mk_rq ~tenant:"c" ~id:"c1" Request.Lint));
  (* draining frees the quota and the queue *)
  check tint "both admitted execute" 2 (List.length (Server.drain srv));
  check tstr "tenant quota resets after drain" "admitted"
    (reason (mk_rq ~tenant:"a" ~id:"a3" Request.Lint));
  ignore (Server.drain srv)

let test_budget_timeout () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  submit_ok srv
    (mk_rq ~budget_s:0. ~no_cache:true ~id:"zb" Request.Simulate);
  let r = drain_one srv in
  check tbool "zero budget times out" true (r.Server.rs_status = Server.Timeout);
  check tstr "timed-out verdict is withheld" "" r.Server.rs_body;
  let st = Server.stats srv in
  check tint "timeout counted" 1 st.Server.st_timeouts;
  check tint "not counted as completed" 0 st.Server.st_completed

let test_lpt_order () =
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.c_policy = Hoyan_dist.Schedule.Lpt }
      ()
  in
  ignore (Server.register_snapshot srv (Lazy.force base));
  submit_ok srv (mk_rq ~id:"cheap" Request.Lint);
  submit_ok srv (mk_rq ~id:"costly" Request.Simulate);
  let rs = Server.drain srv in
  check tint "both served" 2 (List.length rs);
  check tbool "responses come back in submission order" true
    (List.map (fun r -> r.Server.rs_id) rs = [ "cheap"; "costly" ]);
  check tbool "LPT executes the costly class first" true
    (Server.executed_order srv = [ "costly"; "cheap" ])

(* ------------------------------------------------------------------ *)
(* shared-snapshot isolation (the satellite-1 regression)              *)
(* ------------------------------------------------------------------ *)

(* Back-to-back requests over ONE shared snapshot must be byte-identical
   to the same requests over fresh snapshots: nothing in a run (intern
   tables, lazies, telemetry, model updates, withdrawals) may leak into
   the shared base. *)
let test_sequential_requests_isolated () =
  let rq1 =
    Request.make
      ~plan:
        (Cp.make "wd"
           ~commands:[ (border, pref_block 250) ]
           ~withdraw:[ pfx "10.1.0.0/16" ])
      ~intents:[ Intents.Route_change "PRE = POST" ]
      ~id:"wd" Request.Simulate
  in
  let rq2 = mk_rq ~pref:240 ~id:"seq2" Request.Diff in
  let shared = Snapshot.register (Lazy.force base) in
  let s1 = Server.run_direct shared rq1 in
  let s2 = Server.run_direct shared rq2 in
  let fresh rq = Server.run_direct (Snapshot.register (base_of (G.generate G.small))) rq in
  let f1 = fresh rq1 in
  let f2 = fresh rq2 in
  check tstr "request 1: shared = fresh" (snd f1) (snd s1);
  check tstr "request 2 after 1: shared = fresh" (snd f2) (snd s2);
  check tbool "statuses match too" true (fst f1 = fst s1 && fst f2 = fst s2);
  (* and running request 1 again on the same shared snapshot still
     matches *)
  let s1' = Server.run_direct shared rq1 in
  check tstr "request 1 re-run on shared snapshot unchanged" (snd s1) (snd s1')

(* ------------------------------------------------------------------ *)
(* stop_after: the class-to-pipeline mapping                           *)
(* ------------------------------------------------------------------ *)

let test_stop_after () =
  let b = Lazy.force base in
  let vrq =
    {
      VR.rq_name = "sa";
      rq_plan = Cp.make "sa" ~commands:[ (border, pref_block 250) ];
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let gate = VR.run ~lint:VR.Lint_fail ~stop_after:`Gate b vrq in
  check tbool "`Gate never prechecks" true (gate.VR.vr_precheck = []);
  check tbool "`Gate never simulates" true (gate.VR.vr_updated_rib = []);
  let st = VR.run ~lint:VR.Lint_off ~stop_after:`Static b vrq in
  check tbool "`Static prechecks" true (st.VR.vr_precheck <> []);
  check tbool "`Static never forces the base RIB" true (st.VR.vr_base_rib = []);
  check tbool "`Static never simulates" true (st.VR.vr_updated_rib = []);
  let full = VR.run ~lint:VR.Lint_off b vrq in
  check tbool "`Full simulates" true (full.VR.vr_updated_rib <> [])

let suite =
  [
    Alcotest.test_case "cache: hit/miss accounting" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: LRU eviction bound" `Quick test_cache_lru_bound;
    Alcotest.test_case "cache: zero capacity disables" `Quick
      test_cache_zero_capacity;
    qtest prop_digest_restatement_stable;
    Alcotest.test_case "digest: sensitive to real changes" `Quick
      test_digest_sensitive;
    Alcotest.test_case "digest: intent order matters" `Quick
      test_intents_digest_order;
    Alcotest.test_case "cache key: class in, tenant/id out" `Quick
      test_cache_key_class;
    Alcotest.test_case "transport: print/parse round trip" `Quick
      test_transport_roundtrip;
    Alcotest.test_case "transport: parse errors carry lines" `Quick
      test_transport_errors;
    Alcotest.test_case "snapshot: content-addressed identity" `Quick
      test_snapshot_identity;
    Alcotest.test_case "server: responses byte-identical to direct" `Quick
      test_server_matches_direct;
    Alcotest.test_case "server: duplicate served from cache" `Quick
      test_duplicate_hits_cache;
    Alcotest.test_case "server: no-cache bypass" `Quick test_no_cache_bypass;
    Alcotest.test_case "server: admission control" `Quick test_admission;
    Alcotest.test_case "server: zero budget -> timeout, no verdict" `Quick
      test_budget_timeout;
    Alcotest.test_case "server: LPT drains costly classes first" `Quick
      test_lpt_order;
    Alcotest.test_case "shared snapshot: sequential isolation" `Quick
      test_sequential_requests_isolated;
    Alcotest.test_case "verify: stop_after bounds the pipeline" `Quick
      test_stop_after;
  ]
