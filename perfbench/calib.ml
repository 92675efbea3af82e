(* The calibration kernel and the normaliser built on it.

   Wall time on a shared machine drifts with whatever else runs there.
   The kernel is fixed work that runs interleaved with the measured
   operations; every timed interval is scaled by
   [ref_unit_s / kernel unit time measured next to it], so a machine
   that is slower for a while reads about the same normalised time.

   The full ratio, for short and long intervals alike: over 19
   wan-change-verify runs whose kernel unit ranged from 42 to 78 us
   (the machine's slow spells last minutes), the set-up and the
   seconds-long link-down fallback slowed as much as the kernel did.
   Scaled by the full ratio, their spreads over the runs were 0.11 and
   0.09 and the median of the slow runs was within 3% of that of the
   fast ones; scaled by the ratio to the power 0.6, the spreads were
   0.13 and 0.18 and the slow runs' median 14% higher.

   The kernel uses the stdlib only and allocates short-lived small
   values (a list, an int [Map], [Hashtbl.hash] over tuples).  An
   interval's factor comes from the mean unit time of the windows around
   it ({!factors}; the slowest tenth of units dropped, so an interrupt
   inside one unit does not count).  Over six WAN runs (three
   seeds, each twice) this local mean gave the closest repeat-to-repeat
   op times of the estimators tried: median log-ratio 0.095 between
   repeats, against 0.116 for the local median, 0.25 for one factor per
   run and 0.195 raw; a half doing random reads over a large off-heap
   buffer did worse (0.2-0.3).

   Each batch of units starts on an empty minor heap and allocates less
   than the minor heap holds, so no collection runs inside a batch and
   nothing the kernel allocates is promoted: the program's heap cannot
   move the kernel's time.  {!promoted_words} counts promotions during
   batches as evidence (it must stay 0).

   Kernel time is never inside an operation's timing: callers time an
   operation, then call {!after}, which runs the kernel outside that
   interval.  Every batch's interval is recorded so the benchmark can
   check this ({!overlaps}). *)

module IM = Map.Make (Int)

(* Unit time on the reference machine, a 2-vCPU Xeon VM where units
   read 40-90 us depending on contention; normalised times are wall
   times brought to this unit speed. *)
let ref_unit_s = 7.0e-5

let unit_work salt =
  let l = List.init 48 (fun i -> (i * 7919) lxor salt) in
  let m = List.fold_left (fun m x -> IM.add (x land 1023) x m) IM.empty l in
  let acc = ref salt in
  for r = 0 to 999 do
    (match IM.find_opt ((r * 13) land 1023) m with
    | Some v -> acc := !acc + v
    | None -> incr acc);
    acc := !acc lxor Hashtbl.hash (r, !acc, salt)
  done;
  !acc + Hashtbl.hash (IM.cardinal m, List.length l)

(* Words one unit allocates, measured once at start-up. *)
let unit_words =
  lazy
    (let w0 = Util.alloc_words () in
     ignore (Sys.opaque_identity (unit_work 1));
     Util.alloc_words () -. w0)

(* Units per batch: at most 60% of the minor heap, so no minor
   collection can start inside a batch. *)
let batch_units () =
  let heap_words = float_of_int (Gc.get ()).Gc.minor_heap_size in
  max 1 (int_of_float (0.6 *. heap_words /. Lazy.force unit_words))

type window = {
  w_t0 : float;
  w_t1 : float;
  w_units : float list;  (** per-unit seconds *)
}

(* Mean unit time without the slowest tenth. *)
let unit_time units =
  let s = Array.of_list (Util.sorted units) in
  let keep = max 1 (Array.length s - (Array.length s / 10)) in
  Util.sum (Array.to_list (Array.sub s 0 keep)) /. float_of_int keep

type t = {
  min_units : int;
  mutable windows : window list;  (** newest first *)
  mutable n_windows : int;
  mutable promoted : float;
  mutable debt : float;  (** units owed, not yet run *)
}

(* Kernel units owed per Mword of measured work: about 5% of a WAN op's
   time (~250 Mword/s). *)
let units_per_mword = 3.

let create ?(min_units = 24) () =
  ignore (Lazy.force unit_words);
  { min_units; windows = []; n_windows = 0; promoted = 0.; debt = 0. }

let timed f x =
  let s = Util.now () in
  ignore (Sys.opaque_identity (f x));
  Util.now () -. s

let run_units (t : t) n =
  let per_batch = batch_units () in
  let units = ref [] in
  let t0 = Util.now () in
  let left = ref n in
  while !left > 0 do
    let b = min per_batch !left in
    (* empty the minor heap; a major slice the collection asks for runs
       at the next allocation, so allocate once and empty it again *)
    Gc.minor ();
    ignore (Sys.opaque_identity (ref b));
    Gc.minor ();
    let _, p0, _ = Gc.counters () in
    for i = 1 to b do
      units := timed unit_work i :: !units
    done;
    let _, p1, _ = Gc.counters () in
    t.promoted <- t.promoted +. (p1 -. p0);
    left := !left - b
  done;
  let w = { w_t0 = t0; w_t1 = Util.now (); w_units = !units } in
  t.windows <- w :: t.windows;
  t.n_windows <- t.n_windows + 1

(* Index of the window the next measured interval follows. *)
let current (t : t) = t.n_windows - 1

(* Run a window now, sized to [min_units]. *)
let window (t : t) =
  run_units t t.min_units;
  current t

(* Pay for an interval that allocated [words]: once the units owed reach
   a minimum window, run them.  Sizing windows by allocated words, not
   by time, makes the kernel's share follow the op's length while
   keeping its placement (and its [Gc.minor] calls) the same on every
   run of a seed, so it never reshuffles the program's GC work.
   Returns the index of the window the next interval follows. *)
let after (t : t) ~words =
  t.debt <- t.debt +. (units_per_mword *. words /. 1e6);
  let units = int_of_float t.debt in
  if units >= t.min_units then begin
    run_units t units;
    t.debt <- t.debt -. float_of_int units
  end;
  current t

let windows (t : t) = Array.of_list (List.rev t.windows)
let n_windows (t : t) = t.n_windows

(* Scale factors, once every window has run.  The factor of an interval
   [t0, t1] that follows window [i] comes from the units of window [i],
   of the next window, and of every other window within half the
   interval's length of it: a short op is scaled by the speed measured
   right next to it, a long one by the speed over a span as long as
   itself, which follows the machine's drift across the op better than
   its two edges alone. *)
let factors (t : t) =
  let ws = windows t in
  let n = Array.length ws in
  fun i ~t0 ~t1 ->
    let i = max 0 (min i (n - 1)) in
    let half = (t1 -. t0) /. 2. in
    let lo = ref i and hi = ref (min (n - 1) (i + 1)) in
    while !lo > 0 && ws.(!lo - 1).w_t1 > t0 -. half do decr lo done;
    while !hi < n - 1 && ws.(!hi + 1).w_t0 < t1 +. half do incr hi done;
    let units = List.concat_map (fun w -> w.w_units) (Array.to_list (Array.sub ws !lo (!hi - !lo + 1))) in
    ref_unit_s /. unit_time units

(* The kernel's own evidence: unit time over the whole run, the median
   unit and its inter-quartile spread (share of the median), and the
   number of units. *)
let summary (t : t) =
  let all = List.concat_map (fun w -> w.w_units) t.windows in
  (unit_time all, Util.median all, Util.iqr_share all, List.length all)

let promoted_words (t : t) = t.promoted

let kernel_seconds (t : t) =
  List.fold_left (fun a w -> a +. (w.w_t1 -. w.w_t0)) 0. t.windows

(* Does any kernel window intersect the interval [a, b]? *)
let overlaps (t : t) (a, b) =
  List.exists (fun w -> w.w_t0 < b && a < w.w_t1) t.windows
