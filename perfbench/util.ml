(* Small helpers shared by the benchmark: clocks, order statistics and
   allocation counters. *)

let now = Unix.gettimeofday

(* Words allocated so far by this domain: minor allocations (exact from
   [Gc.minor_words]) plus direct major allocations (major words minus
   promotions; both lag to the last collection by the same amount, so
   their difference is exact).  Independent of when the GC ran. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let sorted xs = List.sort Float.compare xs

(* Nearest-rank quantile (q in [0,1]) of a non-empty list. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (rank - 1)))

(* Median: the mean of the two middle values on an even count. *)
let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Inter-quartile range as a share of the median. *)
let iqr_share xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ -> (quantile 0.75 xs -. quantile 0.25 xs) /. median xs

let sum = List.fold_left ( +. ) 0.

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d" (fun kb -> float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* Live words of the major heap after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = i + n <= m && (matches i 0 || go (i + 1)) in
  go 0
