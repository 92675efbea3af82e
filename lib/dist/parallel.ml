(** Real multicore execution (OCaml 5 domains).

    The deterministic scheduler ({!Schedule}) is what the benchmarks use
    to obtain multi-server curves; this module provides the {e real}
    parallel part: an order-preserving {!map} over domains (the k-failure
    sweep fans its representative scenarios out through it — the
    compiled model is read-only during simulation, so workers share it)
    and the packed-key universe the framework's route phase merges its
    {!Hoyan_net.Rib.Arena}s over. *)

module Telemetry = Hoyan_telemetry.Telemetry

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* A worker's claim range [lo, hi) packed into one atomic int (lo in the
   high bits, hi in the low 30), so claiming and stealing are single-word
   compare-and-set operations. *)
let range_bits = 30
let range_mask = (1 lsl range_bits) - 1
let pack_range lo hi = (lo lsl range_bits) lor hi
let range_lo v = v lsr range_bits
let range_hi v = v land range_mask

(** Parallel map preserving order.  [f] must only read shared state.
    If [f] raises, one raised exception is re-raised on the caller after
    all domains have been joined.

    Scheduling is chunked work-stealing rather than a single shared
    counter: each worker starts with a contiguous claim range sized by
    {!Costmodel.chunk_plan} from the optional per-item [weights]
    (defaulting to uniform), claims chunks from the front of its own
    range, and when drained steals the back half of the fullest peer
    range.  Workers therefore touch the shared atomics once per chunk
    instead of once per item, and estimation error in the weights is
    corrected at runtime by the steals.

    Each worker domain runs under one telemetry span ([parallel.domain],
    tagged with the worker index and the number of items it claimed);
    spans are recorded into per-domain shards, so tracing is safe across
    domains. *)
let map ?tm ?(domains = default_domains ()) ?weights (f : 'a -> 'b)
    (xs : 'a list) : 'b list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      assert (n <= range_mask);
      let workers = max 1 (min domains n) in
      let weights =
        match weights with
        | Some w when Array.length w = n -> w
        | _ -> Array.make n 1.
      in
      let ranges =
        Costmodel.chunk_plan ~workers weights
        |> Array.map (fun (lo, hi) -> Atomic.make (pack_range lo hi))
      in
      let results = Array.make n None in
      let failure = Atomic.make None in
      (* claim a chunk from the front of worker [w]'s own range *)
      let rec claim_own w =
        let v = Atomic.get ranges.(w) in
        let lo = range_lo v and hi = range_hi v in
        if lo >= hi then None
        else
          (* an eighth of what's left: small enough to rebalance via
             steals, large enough to amortize the compare-and-set *)
          let c = max 1 ((hi - lo) / 8) in
          if Atomic.compare_and_set ranges.(w) v (pack_range (lo + c) hi)
          then Some (lo, lo + c)
          else claim_own w
      in
      (* steal the back half of the fullest peer range into our own;
         [`Retry] on a lost race, [`Empty] when every range is drained *)
      let steal w =
        let best = ref (-1) and best_len = ref 0 in
        for o = 0 to workers - 1 do
          if o <> w then begin
            let v = Atomic.get ranges.(o) in
            let len = range_hi v - range_lo v in
            if len > !best_len then begin
              best := o;
              best_len := len
            end
          end
        done;
        if !best < 0 then `Empty
        else
          let o = !best in
          let v = Atomic.get ranges.(o) in
          let lo = range_lo v and hi = range_hi v in
          if lo >= hi then `Retry
          else
            let mid = lo + ((hi - lo) / 2) in
            if Atomic.compare_and_set ranges.(o) v (pack_range lo mid)
            then begin
              (* our own range is drained and only its owner refills it,
                 so a plain store is race-free *)
              Atomic.set ranges.(w) (pack_range mid hi);
              `Stolen
            end
            else `Retry
      in
      let worker wid () =
        let sp =
          if Telemetry.enabled tm then
            Telemetry.span tm
              ~args:[ ("worker", string_of_int wid) ]
              "parallel.domain"
          else Hoyan_telemetry.Trace.null_span
        in
        let claimed = ref 0 and steals = ref 0 in
        let run_chunk lo hi =
          for i = lo to hi - 1 do
            (* stop computing once any worker has failed *)
            if Atomic.get failure = None then begin
              incr claimed;
              match f arr.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  ignore (Atomic.compare_and_set failure None (Some (e, bt)))
            end
          done
        in
        let rec loop () =
          if Atomic.get failure = None then
            match claim_own wid with
            | Some (lo, hi) ->
                run_chunk lo hi;
                loop ()
            | None -> (
                match steal wid with
                | `Stolen ->
                    incr steals;
                    loop ()
                | `Retry ->
                    Domain.cpu_relax ();
                    loop ()
                | `Empty -> ())
        in
        loop ();
        if Telemetry.enabled tm then begin
          Telemetry.finish tm
            ~args:[ ("items", string_of_int !claimed) ]
            sp;
          Telemetry.count tm "hoyan_parallel_items_total" !claimed;
          if !steals > 0 then
            Telemetry.count tm "hoyan_parallel_steals_total" !steals
        end
      in
      let spawned =
        List.init (workers - 1) (fun i ->
            Domain.spawn (fun () -> worker (i + 1) ()))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.to_list results
          |> List.map (function Some v -> v | None -> assert false)

(** The (device, vrf, prefix) universe a route phase can produce rows
    over: topology devices, every vrf named by a config or a route, and
    the input/local/network/aggregate prefixes.  Routes outside the
    universe (none in practice) fall back to {!Rib.Arena}'s structural
    overflow path. *)
let route_key_ctx (model : Hoyan_sim.Model.t)
    ~(input_routes : Hoyan_net.Route.t list) : Hoyan_net.Rib.Key.ctx =
  let module M = Hoyan_sim.Model in
  let module Route = Hoyan_net.Route in
  let module Types = Hoyan_config.Types in
  let locals =
    M.Smap.fold (fun _ rs acc -> List.rev_append rs acc) model.M.local_tables
      []
  in
  let devices = ref [] and vrfs = ref [ "global"; "default" ] in
  let prefixes = ref [] in
  List.iter
    (fun (d : Hoyan_net.Topology.device) ->
      devices := d.Hoyan_net.Topology.name :: !devices)
    (Hoyan_net.Topology.devices model.M.topo);
  let add_route (r : Route.t) =
    devices := r.Route.device :: !devices;
    vrfs := r.Route.vrf :: !vrfs;
    prefixes := r.Route.prefix :: !prefixes
  in
  List.iter add_route input_routes;
  List.iter add_route locals;
  M.Smap.iter
    (fun _ (cfg : Types.t) ->
      let bgp = cfg.Types.dc_bgp in
      List.iter
        (fun (nb : Types.neighbor) -> vrfs := nb.Types.nb_vrf :: !vrfs)
        bgp.Types.bgp_neighbors;
      List.iter
        (fun (p, v) ->
          prefixes := p :: !prefixes;
          vrfs := v :: !vrfs)
        bgp.Types.bgp_networks;
      List.iter
        (fun (a : Types.aggregate) ->
          prefixes := a.Types.ag_prefix :: !prefixes;
          vrfs := a.Types.ag_vrf :: !vrfs)
        bgp.Types.bgp_aggregates;
      List.iter
        (fun (v : Types.vrf_def) -> vrfs := v.Types.vd_name :: !vrfs)
        bgp.Types.bgp_vrfs;
      List.iter
        (fun (s : Types.static_route) -> vrfs := s.Types.st_vrf :: !vrfs)
        cfg.Types.dc_statics)
    model.M.configs;
  Hoyan_net.Rib.Key.make ~devices:!devices ~vrfs:!vrfs ~prefixes:!prefixes
