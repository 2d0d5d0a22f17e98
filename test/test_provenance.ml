(* Tests for the decision-provenance layer: the ring buffer, the JSON
   value parser it exports with, and the traced pipeline + explainer
   joins. *)

module Provenance = Isched_obs.Provenance
module Json = Isched_obs.Json
module Pipeline = Isched_harness.Pipeline
module Explain = Isched_harness.Explain
module Lbd_model = Isched_core.Lbd_model
module Schedule = Isched_core.Schedule

let check = Alcotest.check

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) affix || go (i + 1)) in
  n = 0 || go 0

let with_recording f =
  Provenance.reset ();
  Provenance.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Provenance.set_enabled false;
      Provenance.reset ();
      Provenance.set_capacity 65536)
    f

let record ?(rejections = []) ?binding i cycle =
  Provenance.record ~scheduler:"test" ~prog:"p" ~instr:i ~cycle ~ready:0 ~candidates:1
    ~priority:0 ~rejections ?binding ()

(* --- ring buffer --- *)

let test_disabled_records_nothing () =
  Provenance.reset ();
  check Alcotest.bool "disabled" false (Provenance.enabled ());
  record 0 0;
  check Alcotest.int "no decisions" 0 (List.length (Provenance.decisions ()));
  check Alcotest.int "none recorded" 0 (Provenance.recorded ())

let test_order_and_fields () =
  with_recording (fun () ->
      record 3 7
        ~rejections:[ { Provenance.at_cycle = 5; reason = "issue width full (4/4)" } ]
        ~binding:{ Provenance.pred = 1; latency = 2; arc = "data" };
      record 4 8;
      let ds = Provenance.decisions () in
      check Alcotest.int "two decisions" 2 (List.length ds);
      let d = List.hd ds in
      check Alcotest.int "seq" 0 d.Provenance.seq;
      check Alcotest.int "instr" 3 d.Provenance.instr;
      check Alcotest.int "cycle" 7 d.Provenance.cycle;
      check Alcotest.int "rejections" 1 (List.length d.Provenance.rejections);
      (match d.Provenance.binding with
      | Some b -> check Alcotest.string "arc" "data" b.Provenance.arc
      | None -> Alcotest.fail "binding lost");
      check Alcotest.int "seq order" 1 (List.nth ds 1).Provenance.seq)

let test_ring_overwrites () =
  with_recording (fun () ->
      Provenance.set_capacity 4;
      for i = 0 to 9 do
        record i i
      done;
      let ds = Provenance.decisions () in
      check Alcotest.int "retained" 4 (List.length ds);
      check Alcotest.int "oldest retained" 6 (List.hd ds).Provenance.seq;
      check Alcotest.int "newest retained" 9 (List.nth ds 3).Provenance.seq;
      check Alcotest.int "recorded" 10 (Provenance.recorded ());
      check Alcotest.int "overwritten" 6 (Provenance.overwritten ());
      Provenance.reset ();
      check Alcotest.int "reset drops" 0 (List.length (Provenance.decisions ())))

let test_decision_json_wellformed () =
  with_recording (fun () ->
      record 3 7
        ~rejections:[ { Provenance.at_cycle = 5; reason = "mul busy (1/1) at cycle \"5\"" } ]
        ~binding:{ Provenance.pred = -1; latency = 0; arc = "sync-path" };
      let d = List.hd (Provenance.decisions ()) in
      match Json.parse (Provenance.decision_json d) with
      | Error e -> Alcotest.fail ("decision_json unparseable: " ^ e)
      | Ok v ->
        check Alcotest.(option (float 0.0)) "instr" (Some 3.)
          (Option.bind (Json.member "instr" v) Json.to_float);
        check Alcotest.(option string) "scheduler" (Some "test")
          (Option.bind (Json.member "scheduler" v) Json.to_str);
        let binding = Option.get (Json.member "binding" v) in
        check Alcotest.(option string) "arc" (Some "sync-path")
          (Option.bind (Json.member "arc" binding) Json.to_str))

(* --- the JSON value parser --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Null ]);
        ("s", Json.Str "with \"quotes\" and \n newline");
        ("b", Json.Bool true);
        ("o", Json.Obj [ ("nested", Json.Num (-3.)) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
  | Ok v' -> check Alcotest.bool "round-trip equal" true (v = v')

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "" ]

(* --- traced pipeline + explainer --- *)

let fig1 () = Isched_harness.Worked_example.fig1_loop ()

let m4 = Isched_ir.Machine.make ~issue:4 ~nfu:1 ()

let test_schedule_traced () =
  let prepared = Pipeline.prepare (fig1 ()) in
  let untraced = Pipeline.schedule prepared m4 Pipeline.Sched_new in
  let traced, decisions = Pipeline.schedule_traced prepared m4 Pipeline.Sched_new in
  check Alcotest.bool "identical schedule" true
    (untraced.Schedule.cycle_of = traced.Schedule.cycle_of);
  check Alcotest.bool "decisions recorded" true (decisions <> []);
  check Alcotest.bool "recording off afterwards" false (Provenance.enabled ())

let test_explain_fig1 () =
  match Explain.build (fig1 ()) m4 with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.bool "has pairs" true (t.Explain.pairs <> []);
    check Alcotest.int "analytic matches model" (Lbd_model.exact_time t.Explain.schedule)
      t.Explain.analytic;
    check Alcotest.int "simulated matches analytic" t.Explain.analytic t.Explain.simulated;
    List.iter
      (fun (p : Explain.pair_trace) ->
        let r = p.Explain.report in
        (* Every pair's i and j must be backed by a recorded decision
           chain whose head is the pair instruction's own placement. *)
        (match p.Explain.send_chain with
        | [] -> Alcotest.fail "send chain empty"
        | d :: _ ->
          check Alcotest.int
            (Printf.sprintf "i of %s backed by decision" (Explain.pair_key p))
            r.Lbd_model.send_pos
            (Schedule.position t.Explain.schedule d.Provenance.instr));
        match p.Explain.wait_chain with
        | [] -> Alcotest.fail "wait chain empty"
        | d :: _ ->
          check Alcotest.int
            (Printf.sprintf "j of %s backed by decision" (Explain.pair_key p))
            r.Lbd_model.wait_pos
            (Schedule.position t.Explain.schedule d.Provenance.instr))
      t.Explain.pairs;
    (* The paper figure is the worst pair's contribution (clamped at l). *)
    let worst =
      List.fold_left
        (fun acc (p : Explain.pair_trace) -> max acc p.Explain.report.Lbd_model.paper_time)
        t.Explain.schedule.Schedule.length t.Explain.pairs
    in
    check Alcotest.int "paper time is the worst pair" worst t.Explain.paper;
    (* The renderings must mention every pair and stay filterable. *)
    let ascii = Explain.render_ascii t in
    List.iter
      (fun (p : Explain.pair_trace) ->
        let key = Explain.pair_key p in
        check Alcotest.bool (key ^ " in ascii") true
          (contains ~affix:p.Explain.src_label ascii))
      t.Explain.pairs;
    (match Json.parse (Explain.render_json t) with
    | Error e -> Alcotest.fail ("render_json unparseable: " ^ e)
    | Ok v ->
      check Alcotest.(option (float 0.0)) "json pair count"
        (Some (float_of_int (List.length t.Explain.pairs)))
        (Option.map
           (fun l -> float_of_int (List.length l))
           (Option.bind (Json.member "pairs" v) Json.to_list)));
    let one = List.hd t.Explain.pairs in
    let filtered = Explain.render_json ~pair:(Explain.pair_key one) t in
    (match Json.parse filtered with
    | Error e -> Alcotest.fail ("filtered json unparseable: " ^ e)
    | Ok v ->
      check Alcotest.(option (float 0.0)) "filter keeps one pair" (Some 1.)
        (Option.map
           (fun l -> float_of_int (List.length l))
           (Option.bind (Json.member "pairs" v) Json.to_list)))

let test_gantt_svg_has_provenance () =
  let prepared = Pipeline.prepare (fig1 ()) in
  let s, decisions = Pipeline.schedule_traced prepared m4 Pipeline.Sched_new in
  let svg = Isched_sim.Viz.gantt_svg ~decisions s in
  check Alcotest.bool "is svg" true (contains ~affix:"<svg" svg);
  check Alcotest.bool "has tooltips" true (contains ~affix:"<title>" svg);
  check Alcotest.bool "has sync arcs" true (contains ~affix:"arr-sig" svg)

let suite =
  [
    Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
    Alcotest.test_case "order and fields" `Quick test_order_and_fields;
    Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites;
    Alcotest.test_case "decision json well-formed" `Quick test_decision_json_wellformed;
    Alcotest.test_case "json value round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick test_json_rejects_malformed;
    Alcotest.test_case "schedule_traced is inert" `Quick test_schedule_traced;
    Alcotest.test_case "explain fig1 pairs backed by decisions" `Quick test_explain_fig1;
    Alcotest.test_case "gantt svg carries provenance" `Quick test_gantt_svg_has_provenance;
  ]
