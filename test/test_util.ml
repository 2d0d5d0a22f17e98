(* Unit and property tests for Isched_util. *)

module Prng = Isched_util.Prng
module Union_find = Isched_util.Union_find
module Ipqueue = Isched_util.Ipqueue
module Vec = Isched_util.Vec
module Table = Isched_util.Table
module Pool = Isched_util.Pool

let check = Alcotest.check

let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* Local substring check to avoid extra dependencies. *)
let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let child = Prng.split parent in
  (* Consuming the child must not change the parent's continuation. *)
  let parent' = Prng.copy parent in
  for _ = 1 to 10 do
    ignore (Prng.bits64 child)
  done;
  check Alcotest.int64 "parent unaffected" (Prng.bits64 parent') (Prng.bits64 parent)

let test_prng_int_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_prng_int_in_bounds () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 5 in
    Alcotest.(check bool) "in [-3,5]" true (v >= -3 && v <= 5)
  done

let test_prng_int_invalid () =
  let rng = Prng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.create 6 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_prng_bool_extremes () =
  let rng = Prng.create 8 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bool rng 0.);
    Alcotest.(check bool) "p=1 always" true (Prng.bool rng 1.)
  done

let test_prng_weighted () =
  let rng = Prng.create 9 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 2000 do
    let v = Prng.weighted rng [ (0.9, "a"); (0.1, "b") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  Alcotest.(check bool) "weights respected" true (a > 1500)

let test_prng_weighted_invalid () =
  let rng = Prng.create 10 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Prng.weighted: weights must sum to > 0") (fun () ->
      ignore (Prng.weighted rng [ (0., "a") ]))

let test_prng_choose () =
  let rng = Prng.create 11 in
  for _ = 1 to 100 do
    let v = Prng.choose rng [| 1; 2; 3 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 12 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 20 (fun i -> i)) sorted

(* --- Union_find --- *)

let test_uf_singletons () =
  let uf = Union_find.create 4 in
  Alcotest.(check bool) "initially apart" false (Union_find.same uf 0 1);
  check Alcotest.int "4 groups" 4 (List.length (Union_find.groups uf))

let test_uf_union () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "0~3" true (Union_find.same uf 0 3);
  Alcotest.(check bool) "0!~4" false (Union_find.same uf 0 4);
  check Alcotest.int "3 groups" 3 (List.length (Union_find.groups uf))

let test_uf_groups_sorted () =
  let uf = Union_find.create 5 in
  ignore (Union_find.union uf 4 1);
  let groups = Union_find.groups uf in
  List.iter
    (fun (_, members) ->
      Alcotest.(check bool) "members ascending" true (List.sort compare members = members))
    groups

let uf_transitive =
  qtest "union-find: transitivity on random unions"
    QCheck2.(
      Gen.(list_size (int_bound 30) (pair (int_bound 19) (int_bound 19))))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* same is an equivalence relation consistent with groups *)
      let groups = Union_find.groups uf in
      List.for_all
        (fun (_, members) ->
          List.for_all (fun x -> List.for_all (fun y -> Union_find.same uf x y) members) members)
        groups)

(* --- Ipqueue, the priority queue ("pqueue" in the test names) --- *)

let test_ipqueue_order () =
  let q = Ipqueue.create () in
  Ipqueue.push q ~prio:1 ~tie:0 10;
  Ipqueue.push q ~prio:9 ~tie:0 90;
  Ipqueue.push q ~prio:5 ~tie:0 50;
  check Alcotest.int "high first" 90 (Ipqueue.pop q);
  check Alcotest.int "mid second" 50 (Ipqueue.pop q);
  check Alcotest.int "low last" 10 (Ipqueue.pop q)

let test_ipqueue_tie_break () =
  let q = Ipqueue.create () in
  Ipqueue.push q ~prio:5 ~tie:2 20;
  Ipqueue.push q ~prio:5 ~tie:1 10;
  check Alcotest.int "smaller tie first" 10 (Ipqueue.pop q);
  check Alcotest.int "then larger tie" 20 (Ipqueue.pop q)

let test_ipqueue_empty () =
  let q = Ipqueue.create () in
  Alcotest.(check bool) "is_empty" true (Ipqueue.is_empty q);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (Ipqueue.pop q))

let test_ipqueue_range () =
  let q = Ipqueue.create () in
  List.iter
    (fun prio ->
      Alcotest.check_raises
        (Printf.sprintf "prio %d rejected" prio)
        (Invalid_argument "Ipqueue.push: prio out of range")
        (fun () -> Ipqueue.push q ~prio ~tie:0 0))
    [ -2; 16382 ];
  Alcotest.(check bool) "nothing was queued" true (Ipqueue.is_empty q);
  Ipqueue.push q ~prio:(-1) ~tie:0 1;
  Ipqueue.push q ~prio:16381 ~tie:0 2;
  check Alcotest.int "the bounds themselves are accepted" 2 (Ipqueue.length q)

let ipqueue_sorts =
  qtest "pqueue: pops in non-increasing priority order"
    QCheck2.Gen.(list_size (int_bound 60) (int_range (-1) 100))
    (fun prios ->
      let prio = Array.of_list prios in
      let q = Ipqueue.create () in
      Array.iteri (fun i p -> Ipqueue.push q ~prio:p ~tie:i i) prio;
      let out = ref [] in
      while not (Ipqueue.is_empty q) do
        out := prio.(Ipqueue.pop q) :: !out
      done;
      (* pops are non-increasing, so the accumulated list is ascending *)
      !out = List.sort compare prios && List.length prios = List.length !out)

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 7" 49 (Vec.get v 7);
  check Alcotest.int "last" (99 * 99) (Vec.last v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () -> Vec.set v 5 0)

let test_vec_roundtrip () =
  let xs = [ 1; 2; 3; 4 ] in
  check Alcotest.(list int) "of_list/to_list" xs (Vec.to_list (Vec.of_list xs));
  check Alcotest.(array int) "to_array" [| 1; 2; 3; 4 |] (Vec.to_array (Vec.of_list xs))

let test_vec_clear () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  check Alcotest.int "empty after clear" 0 (Vec.length v);
  Alcotest.check_raises "last raises" Not_found (fun () -> ignore (Vec.last v))

let test_vec_iteri () =
  let v = Vec.of_list [ 10; 20; 30 ] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check
    Alcotest.(list (pair int int))
    "indices in order"
    [ (0, 10); (1, 20); (2, 30) ]
    (List.rev !acc)

let test_vec_ensure_size () =
  let v = Vec.create () in
  Vec.ensure_size v 5 7;
  check Alcotest.int "grows to size" 5 (Vec.length v);
  check Alcotest.int "filled with default" 7 (Vec.get v 3);
  Vec.ensure_size v 3 9;
  check Alcotest.int "never shrinks" 5 (Vec.length v);
  check Alcotest.int "existing cells untouched" 7 (Vec.get v 2)

let test_vec_get_or () =
  let v = Vec.of_list [ 1; 2 ] in
  check Alcotest.int "in range" 2 (Vec.get_or v 1 0);
  check Alcotest.int "past the end" 0 (Vec.get_or v 5 0);
  check Alcotest.int "negative index" 0 (Vec.get_or v (-1) 0)

(* --- Pool --- *)

(* The box running the tests may expose a single core, where the pool's
   oversubscription cap turns every parallel call into the inline path;
   forcing the cap up exercises real worker domains everywhere. *)
let with_forced_pool f =
  Pool.set_max_active (Some 8);
  Fun.protect ~finally:(fun () -> Pool.set_max_active None) f

let counter_value name =
  match Isched_obs.Counters.find name with
  | Some (Isched_obs.Counters.Counter v) -> v
  | _ -> Alcotest.failf "counter %s not registered" name

let test_pool_map_order () =
  with_forced_pool @@ fun () ->
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * 37) mod 101 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      check Alcotest.(list int) (Printf.sprintf "jobs=%d" jobs) expected (Pool.map ~jobs f xs))
    [ 1; 2; 4 ]

let test_pool_mapi () =
  with_forced_pool @@ fun () ->
  check
    Alcotest.(list string)
    "indices in input order" [ "0a"; "1b"; "2c" ]
    (Pool.mapi ~jobs:3 (fun i s -> string_of_int i ^ s) [ "a"; "b"; "c" ])

let test_pool_exception () =
  with_forced_pool @@ fun () ->
  Alcotest.check_raises "worker exception reaches the caller" Exit (fun () ->
      ignore (Pool.map ~jobs:2 (fun x -> if x = 3 then raise Exit else x) [ 1; 2; 3; 4 ]))

exception Pool_boom

(* Deep enough that the raise site's frames are distinguishable from the
   re-raise inside [Pool]; [opaque_identity] keeps it out of inlining. *)
let rec deep_raise n =
  if n = 0 then raise Pool_boom else 1 + Sys.opaque_identity (deep_raise (n - 1))

let test_pool_exception_backtrace () =
  with_forced_pool @@ fun () ->
  (* Regression: the pool re-raised worker exceptions with a bare
     [raise], so the backtrace pointed at the pool's result loop instead
     of the worker's raise site.  Only assert on builds where local
     backtraces are informative at all. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  let control =
    try ignore (deep_raise 5);
        ""
    with Pool_boom -> Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
  in
  match Pool.map ~jobs:2 (fun x -> if x = 2 then deep_raise 5 else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected Pool_boom"
  | exception Pool_boom ->
    let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
    if contains control "deep_raise" then
      Alcotest.(check bool) "worker raise site survives the domain hop" true
        (contains bt "deep_raise")

let test_pool_defaults () =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  check Alcotest.int "updated" 3 (Pool.default_jobs ());
  Pool.set_default_jobs saved;
  Alcotest.(check bool) "recommended positive" true (Pool.recommended_jobs () >= 1);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1") (fun () ->
      Pool.set_default_jobs 0);
  Alcotest.check_raises "zero max_active rejected"
    (Invalid_argument "Pool.set_max_active: limit must be >= 1") (fun () ->
      Pool.set_max_active (Some 0));
  Alcotest.check_raises "zero grain rejected"
    (Invalid_argument "Pool.set_grain: grain must be >= 1") (fun () -> Pool.set_grain (Some 0))

let dist_count name =
  match Isched_obs.Counters.find name with
  | Some (Isched_obs.Counters.Dist s) -> s.Isched_obs.Counters.count
  | _ -> Alcotest.failf "distribution %s not registered" name

let test_pool_reuses_domains () =
  with_forced_pool @@ fun () ->
  let xs = List.init 8 (fun i -> i) in
  (* Warm the pool up to this width once... *)
  ignore (Pool.map ~jobs:4 succ xs);
  let spawned = counter_value "pool.domains_spawned" in
  (* ...then every later run at the same (or smaller) width must reuse
     the parked workers instead of spawning fresh domains per call. *)
  ignore (Pool.map ~jobs:4 succ xs);
  ignore (Pool.mapi ~jobs:2 (fun i x -> i + x) xs);
  check Alcotest.int "no new domains after warm-up" spawned
    (counter_value "pool.domains_spawned")

let test_pool_nested_no_deadlock () =
  with_forced_pool @@ fun () ->
  (* A nested call from inside a pooled job must not park itself on the
     queue its own workers are consuming; it runs inline instead. *)
  let inner x = Pool.map ~jobs:4 (fun y -> (x * 10) + y) [ 1; 2; 3 ] in
  let outer = [ 1; 2; 3; 4; 5; 6 ] in
  check
    Alcotest.(list (list int))
    "nested map completes with the right results" (List.map inner outer)
    (Pool.map ~jobs:4 inner outer)

let test_pool_grain_chunking () =
  with_forced_pool @@ fun () ->
  Pool.set_grain (Some 5);
  Fun.protect ~finally:(fun () -> Pool.set_grain None) @@ fun () ->
  let tasks0 = counter_value "pool.tasks" in
  let chunks0 = dist_count "pool.queue_depth" in
  let xs = List.init 23 (fun i -> i) in
  check Alcotest.(list int) "results" (List.map succ xs) (Pool.map ~jobs:2 succ xs);
  check Alcotest.int "every item counted once" 23 (counter_value "pool.tasks" - tasks0);
  check Alcotest.int "one depth sample per chunk (ceil 23/5)" 5
    (dist_count "pool.queue_depth" - chunks0)

let pool_matches_list_map =
  qtest "pool: map over domains equals List.map"
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_bound 40) (int_range (-1000) 1000)))
    (fun (jobs, xs) ->
      with_forced_pool @@ fun () ->
      let f x = (x * x) - (3 * x) in
      Pool.map ~jobs f xs = List.map f xs)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "total"; "1" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains s "demo");
  Alcotest.(check bool) "has cell" true (contains s "total")

let test_table_arity () =
  let t = Table.create ~title:"" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Table.add_row: expected 1 cells, got 2")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  check Alcotest.string "int" "42" (Table.fmt_int 42);
  check Alcotest.string "float" "3.14" (Table.fmt_float 3.14159);
  check Alcotest.string "pct" "87.36%" (Table.fmt_pct 87.3611);
  check Alcotest.string "pct decimals" "87.4%" (Table.fmt_pct ~decimals:1 87.3611)

let test_table_alignment_width () =
  let t = Table.create ~title:"" ~columns:[ ("col", Table.Right) ] in
  Table.add_row t [ "7" ];
  Table.add_row t [ "12345" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  Alcotest.(check bool) "all lines same width" true
    (match widths with [] -> false | w :: ws -> List.for_all (( = ) w) ws)

let suite =
  [
    ("prng: deterministic", `Quick, test_prng_deterministic);
    ("prng: seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng: split independence", `Quick, test_prng_split_independent);
    ("prng: int bounds", `Quick, test_prng_int_bounds);
    ("prng: int_in bounds", `Quick, test_prng_int_in_bounds);
    ("prng: int invalid bound", `Quick, test_prng_int_invalid);
    ("prng: float range", `Quick, test_prng_float_range);
    ("prng: bool extremes", `Quick, test_prng_bool_extremes);
    ("prng: weighted distribution", `Quick, test_prng_weighted);
    ("prng: weighted invalid", `Quick, test_prng_weighted_invalid);
    ("prng: choose membership", `Quick, test_prng_choose);
    ("prng: shuffle is a permutation", `Quick, test_prng_shuffle_permutation);
    ("union-find: singletons", `Quick, test_uf_singletons);
    ("union-find: unions merge", `Quick, test_uf_union);
    ("union-find: groups sorted", `Quick, test_uf_groups_sorted);
    uf_transitive;
    ("pqueue: priority order", `Quick, test_ipqueue_order);
    ("pqueue: deterministic tie-break", `Quick, test_ipqueue_tie_break);
    ("pqueue: empty behaviour", `Quick, test_ipqueue_empty);
    ("pqueue: out-of-range prio raises", `Quick, test_ipqueue_range);
    ipqueue_sorts;
    ("vec: push/get/last", `Quick, test_vec_push_get);
    ("vec: bounds checking", `Quick, test_vec_bounds);
    ("vec: list/array roundtrip", `Quick, test_vec_roundtrip);
    ("vec: clear", `Quick, test_vec_clear);
    ("vec: iteri order", `Quick, test_vec_iteri);
    ("vec: ensure_size", `Quick, test_vec_ensure_size);
    ("vec: get_or out of range", `Quick, test_vec_get_or);
    ("pool: map preserves order across job counts", `Quick, test_pool_map_order);
    ("pool: mapi indices", `Quick, test_pool_mapi);
    ("pool: exceptions propagate", `Quick, test_pool_exception);
    ("pool: worker backtraces preserved", `Quick, test_pool_exception_backtrace);
    ("pool: default jobs knob", `Quick, test_pool_defaults);
    ("pool: domains reused across runs", `Quick, test_pool_reuses_domains);
    ("pool: nested map runs inline, no deadlock", `Quick, test_pool_nested_no_deadlock);
    ("pool: grain controls chunk accounting", `Quick, test_pool_grain_chunking);
    pool_matches_list_map;
    ("table: render contains content", `Quick, test_table_render);
    ("table: arity check", `Quick, test_table_arity);
    ("table: cell formatting", `Quick, test_table_formats);
    ("table: uniform line width", `Quick, test_table_alignment_width);
  ]
