(* Known-answer accounting and the result line.

   Every checked output is one attempted operation; a wrong one is a
   failed operation, is reported on stderr, and makes the run exit
   nonzero after the result line is printed. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

(* [check t ok what] — count one operation; [what] names it when it
   fails (only the first few failures are printed). *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then prerr_endline ("perfbench: WRONG ANSWER: " ^ what ())
  end

let error_rate t = if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Prints the human summary lines, then the one-line JSON result as the
   last line of stdout, and returns the exit code. *)
let finish t metrics =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter
    (fun x -> check t false (fun () -> Printf.sprintf "metric %s is not a finite number" x.name))
    bad;
  List.iter (fun x -> Printf.printf "  %-40s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "  %d operations checked, %d wrong\n" t.attempted t.failed;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0) (max 1 t.attempted) t.failed body;
  if t.failed = 0 then 0 else 1
