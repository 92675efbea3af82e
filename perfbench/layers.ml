(* Span arithmetic over the telemetry trace: which spans fall inside a
   timed interval, and each span's self time (its duration minus the
   part its direct children cover). *)

module Trace = Hoyan_telemetry.Trace

type span = {
  s_name : string;
  s_t0 : int64;
  s_t1 : int64;
  s_args : (string * string) list;
  mutable s_child_ns : int64;
}

let of_events (evs : Trace.event list) : span array =
  List.map
    (fun (e : Trace.event) ->
      { s_name = e.Trace.te_name; s_t0 = e.Trace.te_ts_ns;
        s_t1 = Int64.add e.Trace.te_ts_ns e.Trace.te_dur_ns; s_args = e.Trace.te_args;
        s_child_ns = 0L })
    evs
  |> List.sort (fun a b ->
         match Int64.compare a.s_t0 b.s_t0 with 0 -> Int64.compare b.s_t1 a.s_t1 | c -> c)
  |> Array.of_list

(* Spans wholly inside [ns0, ns1], with direct-child time filled in. *)
let inside (all : span array) (ns0, ns1) : span list =
  (* first span starting at or after ns0 (spans are sorted by start) *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare all.(mid).s_t0 ns0 < 0 then first (mid + 1) hi else first lo mid
  in
  let rec collect i acc =
    if i >= Array.length all || Int64.compare all.(i).s_t0 ns1 > 0 then List.rev acc
    else collect (i + 1) (if Int64.compare all.(i).s_t1 ns1 <= 0 then all.(i) :: acc else acc)
  in
  let sel = collect (first 0 (Array.length all)) [] in
  let stack = ref [] in
  List.iter
    (fun s ->
      s.s_child_ns <- 0L;
      let rec pop () =
        match !stack with
        | top :: rest when top.s_t1 <= s.s_t0 -> stack := rest; pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | parent :: _ ->
          parent.s_child_ns <- Int64.add parent.s_child_ns (Int64.sub s.s_t1 s.s_t0)
      | [] -> ());
      stack := s :: !stack)
    sel;
  sel

let dur_s s = Int64.to_float (Int64.sub s.s_t1 s.s_t0) /. 1e9
let self_s s = Int64.to_float (Int64.sub (Int64.sub s.s_t1 s.s_t0) s.s_child_ns) /. 1e9

let named n = List.filter (fun s -> s.s_name = n)
let total f n spans = Util.sum (List.map f (named n spans))
let count n spans = List.length (named n spans)
let arg k s = List.assoc_opt k s.s_args

(* Request wrappers: their self time is what no layer span explains. *)
let wrappers = [ "server.request"; "verify.request"; "verify.route_sim" ]

(* Seconds of [spans] explained by a layer span (self time of every
   span that is not a wrapper). *)
let attributed spans =
  Util.sum
    (List.map (fun s -> if List.mem s.s_name wrappers then 0. else self_s s) spans)
