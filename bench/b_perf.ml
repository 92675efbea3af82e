(* Shared helpers for the sections that write a machine-readable BENCH
   file (--telemetry, --semantic, --chaos, --diff-bench, --serve-bench,
   --whatif-bench, --inc-bench): a minimal JSON writer and the peak
   resident set size. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON emission (no external dependency)                      *)
(* ------------------------------------------------------------------ *)

type json =
  | J_obj of (string * json) list
  | J_arr of json list
  | J_str of string
  | J_int of int
  | J_float of float
  | J_bool of bool

let rec emit buf indent = function
  | J_str s ->
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | J_int n -> Buffer.add_string buf (string_of_int n)
  | J_float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | J_bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J_arr [] -> Buffer.add_string buf "[]"
  | J_arr xs ->
      Buffer.add_string buf "[";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf indent x)
        xs;
      Buffer.add_string buf "]"
  | J_obj [] -> Buffer.add_string buf "{}"
  | J_obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          emit buf (indent + 2) (J_str k);
          Buffer.add_string buf ": ";
          emit buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let write_json path j =
  let buf = Buffer.create 4096 in
  emit buf 0 j;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(** Peak resident set size in kB (Linux VmHWM; 0 when unavailable). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d" (fun x -> x)
            else go ()
      in
      let r = go () in
      close_in ic;
      r
