(* Command-line entry point of the repository benchmark (run through benchmark/run.py):

     perfbench --workload tables|check|serve --seed N --seconds S
               --trace 0|1 [--ischedc PATH] [--tiny] [--corrupt]

   --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
   ones (README.md has both tables).  --tiny shrinks every input for the
   self-tests; --corrupt plants one wrong answer, which must make the run
   fail.  The last line of stdout is the JSON result; the exit code is
   nonzero when any output was wrong. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload tables|check|serve --seed N --seconds S --trace 0|1 \
     [--ischedc PATH] [--tiny] [--corrupt]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let ischedc = ref "_build/default/bin/ischedc.exe" and tiny = ref false and corrupt = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun s -> if s > 0. then Some s else None);
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--ischedc" :: p :: rest ->
      ischedc := p;
      go rest
    | "--tiny" :: rest ->
      tiny := true;
      go rest
    | "--corrupt" :: rest ->
      corrupt := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace ->
    let tiny = !tiny and corrupt = !corrupt in
    let code =
      match (!workload, trace) with
      | "tables", false -> Tables_wl.run ~seed ~seconds ~tiny ~corrupt
      | "tables", true -> Tables_wl.run_traced ~seed ~seconds ~tiny ~corrupt
      | "check", false -> Check_wl.run ~seed ~seconds ~tiny ~corrupt
      | "check", true -> Check_wl.run_traced ~seed ~seconds ~tiny ~corrupt
      | "serve", _ -> Serve_wl.run ~ischedc:!ischedc ~trace ~seed ~seconds ~tiny ~corrupt
      | _ -> usage ()
    in
    exit code
  | _ -> usage ()
