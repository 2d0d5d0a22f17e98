module Table = Isched_util.Table
module Pool = Isched_util.Pool
module Machine = Isched_ir.Machine
module Program = Isched_ir.Program
module Suite = Isched_perfect.Suite
module Ast = Isched_frontend.Ast

(* The expensive builders below fan their independent cells — one per
   (benchmark x config) or (benchmark x variant) — across the domain
   pool.  [Pool.map] keeps result order equal to input order, so every
   table is byte-identical whatever the job count. *)

(* --- Table 1 --- *)

let table1_of_rows rows =
  let t =
    Table.create ~title:"Table 1 - Characteristics of the Perfect-surrogate corpora"
      ~columns:
        [
          ("Items \\ Benchmarks", Table.Left);
          ("lines parsed", Table.Right);
          ("total no. of loops", Table.Right);
          ("no. of Doall loops", Table.Right);
          ("lines of DLX code", Table.Right);
          ("total no. of LFD", Table.Right);
          ("total no. of LBD", Table.Right);
        ]
  in
  let totals = Array.make 6 0 in
  List.iter
    (fun (name, row) ->
      List.iteri (fun i v -> totals.(i) <- totals.(i) + v) row;
      Table.add_row t (name :: List.map Table.fmt_int row))
    rows;
  Table.add_sep t;
  Table.add_row t ("TOTAL" :: Array.to_list (Array.map Table.fmt_int totals));
  t

(* --- Tables 2 and 3 --- *)

type measurement = { benchmark : string; config : string; t_list : int; t_new : int }

let benchmarks_of ms = List.sort_uniq compare (List.map (fun m -> m.benchmark) ms)
let configs_of ms =
  (* preserve first-seen order *)
  List.fold_left (fun acc m -> if List.mem m.config acc then acc else acc @ [ m.config ]) [] ms

let find ms b c = List.find (fun m -> m.benchmark = b && m.config = c) ms

let table2 ms =
  let configs = configs_of ms in
  let columns =
    ("Benchmarks", Table.Left)
    :: List.concat_map
         (fun c ->
           let tag = c in
           [ ("Ta " ^ tag, Table.Right); ("Tb " ^ tag, Table.Right) ])
         configs
  in
  let t = Table.create ~title:"Table 2 - Total parallel execution time (cycles, 100 iterations)" ~columns in
  let totals = Hashtbl.create 8 in
  let add_total key v = Hashtbl.replace totals key (v + Option.value ~default:0 (Hashtbl.find_opt totals key)) in
  List.iter
    (fun b ->
      let cells =
        List.concat_map
          (fun c ->
            let m = find ms b c in
            add_total (c, `L) m.t_list;
            add_total (c, `N) m.t_new;
            [ Table.fmt_int m.t_list; Table.fmt_int m.t_new ])
          configs
      in
      Table.add_row t (b :: cells))
    (benchmarks_of ms);
  Table.add_sep t;
  let total_cells =
    List.concat_map
      (fun c ->
        [
          Table.fmt_int (Option.value ~default:0 (Hashtbl.find_opt totals (c, `L)));
          Table.fmt_int (Option.value ~default:0 (Hashtbl.find_opt totals (c, `N)));
        ])
      configs
  in
  Table.add_row t ("Total" :: total_cells);
  t

let improvement ~t_list ~t_new =
  if t_list <= 0 then 0. else 100. *. float_of_int (t_list - t_new) /. float_of_int t_list

let table3 ms =
  let configs = configs_of ms in
  let columns = ("Benchmarks", Table.Left) :: List.map (fun c -> (c, Table.Right)) configs in
  let t = Table.create ~title:"Table 3 - Improved percentage of parallel execution time" ~columns in
  List.iter
    (fun b ->
      let cells =
        List.map
          (fun c ->
            let m = find ms b c in
            Table.fmt_pct (improvement ~t_list:m.t_list ~t_new:m.t_new))
          configs
      in
      Table.add_row t (b :: cells))
    (benchmarks_of ms);
  Table.add_sep t;
  let total_cells =
    List.map
      (fun c ->
        let rows = List.filter (fun m -> m.config = c) ms in
        let tl = List.fold_left (fun a m -> a + m.t_list) 0 rows in
        let tn = List.fold_left (fun a m -> a + m.t_new) 0 rows in
        Table.fmt_pct (improvement ~t_list:tl ~t_new:tn))
      configs
  in
  Table.add_row t ("Overall" :: total_cells);
  t

let overall ms =
  let agg p =
    let rows = List.filter (fun m -> p m.config) ms in
    let tl = List.fold_left (fun a m -> a + m.t_list) 0 rows in
    let tn = List.fold_left (fun a m -> a + m.t_new) 0 rows in
    improvement ~t_list:tl ~t_new:tn
  in
  let starts_with prefix s = String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix in
  (agg (starts_with "2-issue"), agg (starts_with "4-issue"))

(* --- categories --- *)

let categories_of_rows rows =
  let module Doall = Isched_transform.Doall in
  let cats = Doall.all_categories in
  let columns =
    ("Benchmarks", Table.Left)
    :: (List.map (fun c -> (Doall.category_name c, Table.Right)) cats @ [ ("doall", Table.Right) ])
  in
  let t = Table.create ~title:"DOACROSS loop categories (Chen & Yew's six types)" ~columns in
  List.iter (fun (name, cells) -> Table.add_row t (name :: List.map Table.fmt_int cells)) rows;
  t

(* --- streamed, scaled tables --- *)

module Profile = Isched_perfect.Profile

(* One (profile x chunk) cell of a scaled run, fully aggregated: the
   loops themselves are dropped as soon as the summary ints exist, so
   memory stays bounded by the chunk size whatever the scale.  All
   fields are sums of per-loop ints — associative — so folding the
   summaries gives totals independent of chunking and job count. *)
type chunk_summary = {
  cs_profile : string;
  cs_stats : int array;  (* lines, loops, doall, dlx, lfd, lbd *)
  cs_meas : (string * int * int) list;  (* config -> (t_list, t_new) *)
  cs_cats : int list;  (* per-category counts @ [doall], categories order *)
  cs_sync_ops : int;  (* Send/Wait instructions over the DOACROSS programs *)
}

let count_sync_ops (p : Program.t) =
  Array.fold_left
    (fun acc i -> if Isched_ir.Instr.is_sync i then acc + 1 else acc)
    0 p.Program.body

let summarize_chunk ?(options = Pipeline.default_options) configs (c : Suite.chunk) =
  let module Doall = Isched_transform.Doall in
  let loops = Suite.chunk_loops c in
  (* Loop by loop: each is prepared uncached (a 1000x corpus must not
     accumulate in the memo) and measured on every configuration before
     the next, so its program and graph die young instead of being
     promoted and kept for the whole chunk. *)
  let stats = Array.make 6 0 and cs_sync_ops = ref 0 and counts = Hashtbl.create 8 in
  let t_list = Array.make (List.length configs) 0 and t_new = Array.make (List.length configs) 0 in
  List.iter
    (fun l ->
      stats.(0) <- stats.(0) + Ast.source_lines l;
      match Pipeline.prepare_uncached options l with
      | Pipeline.Doall _ -> stats.(2) <- stats.(2) + 1
      | Pipeline.Doacross { prog; restructured; carried; _ } as p ->
        stats.(3) <- stats.(3) + Array.length prog.Program.body;
        stats.(4) <- stats.(4) + Program.n_lfd prog;
        stats.(5) <- stats.(5) + Program.n_lbd prog;
        cs_sync_ops := !cs_sync_ops + count_sync_ops prog;
        List.iteri
          (fun i (_, m) ->
            let tl, tn = Pipeline.list_and_new_times ~options p m in
            t_list.(i) <- t_list.(i) + tl;
            t_new.(i) <- t_new.(i) + tn)
          configs;
        (* Categorization reads the dependences of the ORIGINAL loop; when
           restructuring was the identity (the common case for loops that
           stay DOACROSS) those are exactly the [carried] the preparation
           already computed. *)
        let cat =
          if restructured.Isched_transform.Restructure.loop == l then Doall.categorize ~carried l
          else Doall.categorize l
        in
        Hashtbl.replace counts cat (1 + Option.value ~default:0 (Hashtbl.find_opt counts cat)))
    loops;
  stats.(1) <- List.length loops;
  let cs_cats =
    List.map
      (fun cat -> Option.value ~default:0 (Hashtbl.find_opt counts cat))
      Doall.all_categories
    @ [ stats.(2) ]
  in
  {
    cs_profile = c.Suite.profile.Profile.name;
    cs_stats = stats;
    cs_meas = List.mapi (fun i (cname, _) -> (cname, t_list.(i), t_new.(i))) configs;
    cs_cats;
    cs_sync_ops = !cs_sync_ops;
  }

let scaled_tables ?options ?jobs ?(chunk_size = 64) ~scale profiles configs =
  let cells = List.concat_map (fun p -> Suite.chunks ~chunk_size ~scale p) profiles in
  let summaries = Pool.map ?jobs (summarize_chunk ?options configs) cells in
  let by_profile (p : Profile.t) =
    List.filter (fun s -> s.cs_profile = p.Profile.name) summaries
  in
  let t1 =
    table1_of_rows
      (List.map
         (fun (p : Profile.t) ->
           let row = Array.make 6 0 in
           List.iter
             (fun s -> Array.iteri (fun i v -> row.(i) <- row.(i) + v) s.cs_stats)
             (by_profile p);
           (p.Profile.name, Array.to_list row))
         profiles)
  in
  let ms =
    List.concat_map
      (fun (p : Profile.t) ->
        let ss = by_profile p in
        List.map
          (fun (cname, _) ->
            let pick f =
              List.fold_left
                (fun acc s ->
                  List.fold_left
                    (fun acc (c, tl, tn) -> if c = cname then acc + f tl tn else acc)
                    acc s.cs_meas)
                0 ss
            in
            {
              benchmark = p.Profile.name;
              config = cname;
              t_list = pick (fun tl _ -> tl);
              t_new = pick (fun _ tn -> tn);
            })
          configs)
      profiles
  in
  let cats =
    categories_of_rows
      (List.map
         (fun (p : Profile.t) ->
           match by_profile p with
           | [] -> (p.Profile.name, [])
           | first :: _ as ss ->
             let n = List.length first.cs_cats in
             let row = Array.make n 0 in
             List.iter (fun s -> List.iteri (fun i v -> row.(i) <- row.(i) + v) s.cs_cats) ss;
             (p.Profile.name, Array.to_list row))
         profiles)
  in
  let sync_ops = List.fold_left (fun acc s -> acc + s.cs_sync_ops) 0 summaries in
  (t1, ms, cats, sync_ops)

(* --- ablations --- *)


let ablation_generic ~title ~variants benches =
  let columns =
    ("Benchmarks", Table.Left)
    :: List.concat_map
         (fun (vname, _) -> [ (vname ^ " T", Table.Right); (vname ^ " impr", Table.Right) ])
         variants
  in
  let t = Table.create ~title ~columns in
  (* One reference config: the paper's 4-issue #FU=1 (the config where
     scheduling matters most). *)
  let machine = Machine.make ~issue:4 ~nfu:1 () in
  let cells =
    List.concat_map (fun (b : Suite.benchmark) -> List.map (fun v -> (b, v)) variants) benches
  in
  let totals =
    Array.of_list
      (Pool.map
         (fun ((b : Suite.benchmark), (_, (options, which))) ->
           List.fold_left
             (fun acc l ->
               match Pipeline.prepare ~options l with
               | Pipeline.Doall _ -> acc
               | Pipeline.Doacross _ as p -> acc + Pipeline.loop_time p machine which)
             0 b.Suite.loops)
         cells)
  in
  let nv = List.length variants in
  List.iteri
    (fun bi (b : Suite.benchmark) ->
      let base = ref None in
      let cells =
        List.concat
          (List.mapi
             (fun vi _ ->
               let total = totals.((bi * nv) + vi) in
               let impr =
                 match !base with
                 | None ->
                   base := Some total;
                   "-"
                 | Some b0 -> Table.fmt_pct (improvement ~t_list:b0 ~t_new:total)
               in
               [ Table.fmt_int total; impr ])
             variants)
      in
      Table.add_row t (b.Suite.profile.Isched_perfect.Profile.name :: cells))
    benches;
  t

(* Most corpus loops carry a single synchronization path, where the
   ordering rule cannot matter; A1 therefore uses dedicated kernels with
   several recurrences of different damage (n/d)*|SP| contending for the
   same function units. *)
let multi_path_kernels =
  [
    ( "2 recurrences",
      "DOACROSS I = 1, 100\n\
      \ S1: W[I] = B[I-4] * C[I] + D[I-1] * Q[I]\n\
      \ S2: B[I] = W[I] + D[I] * R[I+1]\n\
      \ S3: A[I] = A[I-1] + E[I]\n\
       ENDDO" );
    ( "3 recurrences",
      "DOACROSS I = 1, 100\n\
      \ S1: U[I] = U[I-5] * C[I] + D[I]\n\
      \ S2: V[I] = V[I-2] + E[I] * Q[I]\n\
      \ S3: A[I] = A[I-1] + E[I+2]\n\
       ENDDO" );
    ( "mixed distances",
      "DOACROSS I = 1, 100\n\
      \ S1: U[I] = U[I-3] * C[I] + D[I] * Q[I-1]\n\
      \ S2: A[I] = A[I-1] + E[I+2]\n\
      \ S3: V[I] = V[I-4] + E[I] * Q[I] * R[I]\n\
       ENDDO" );
  ]

let ablation_order _benches =
  let t =
    Table.create ~title:"Ablation A1 - sync-path damage ordering ((n/d)|SP|), 2-issue #FU=1"
      ~columns:
        [
          ("Kernel", Table.Left);
          ("paths", Table.Right);
          ("list T", Table.Right);
          ("new unordered T", Table.Right);
          ("new ordered T", Table.Right);
          ("ordering gain", Table.Right);
        ]
  in
  let machine = Machine.make ~issue:2 ~nfu:1 () in
  List.iter
    (fun (name, src) ->
      let l = Isched_frontend.Parser.parse_loop ~name src in
      let prog = Isched_codegen.Codegen.compile l in
      let g = Isched_dfg.Dfg.build prog in
      let time s = (Isched_sim.Timing.run s).Isched_sim.Timing.finish in
      let t_list = time (Isched_core.List_sched.run g machine) in
      let t_un =
        time
          (Isched_core.Sync_sched.run
             ~options:{ Isched_core.Sync_sched.order_paths = false }
             g machine)
      in
      let t_ord = time (Isched_core.Sync_sched.run g machine) in
      Table.add_row t
        [
          name;
          Table.fmt_int (List.length (Isched_dfg.Dfg.sync_paths g));
          Table.fmt_int t_list;
          Table.fmt_int t_un;
          Table.fmt_int t_ord;
          Table.fmt_pct (improvement ~t_list:t_un ~t_new:t_ord);
        ])
    multi_path_kernels;
  t

(* A6 drives the post-codegen transitive-reduction pass
   (Isched_sync.Elim via Pipeline's [sync_elim] option).  Rows cover the
   corpus benchmarks plus three kernels where redundancy is certain —
   repeated accesses to fixed cells, and a guarded scalar sum — across
   the 2/4-issue x #FU 1/2 grid; "sync" counts Send/Wait instructions in
   the generated programs and T is the new scheduler's simulated
   parallel time.  The scale-1 corpus rows typically show no redundancy
   (the deltas live in the scaled corpus — see the Send/Wait line
   of [ischedc tables --scale N]); the kernels row proves the axis end to end. *)
let ablation_sync_elim benches =
  let kernels =
    List.map
      (fun (name, src) -> Isched_frontend.Parser.parse_loop ~name src)
      [
        ("A[5] accumulation", "DOACROSS I = 1, 100\n A[5] = A[5] + E[I]\nENDDO");
        ("guarded scalar sum", "DOACROSS I = 1, 100\n IF (E[I] > 0) S = S + Q[I] * C[I]\nENDDO");
        ( "two fixed cells",
          "DOACROSS I = 1, 100\n S1: A[3] = A[3] + E[I]\n S2: A[7] = A[7] * C[I]\nENDDO" );
      ]
  in
  let rows =
    List.map
      (fun (b : Suite.benchmark) ->
        (b.Suite.profile.Isched_perfect.Profile.name, b.Suite.loops))
      benches
    @ [ ("elim kernels", kernels) ]
  in
  let configs =
    List.concat_map
      (fun issue ->
        List.map
          (fun nfu -> (Printf.sprintf "%d-issue/#FU=%d" issue nfu, Machine.make ~issue ~nfu ()))
          [ 1; 2 ])
      [ 2; 4 ]
  in
  let base = Pipeline.default_options in
  let elim = { base with Pipeline.sync_elim = true } in
  let cell ((_, loops), (_, m)) =
    let run options =
      List.fold_left
        (fun (sync, time) l ->
          match Pipeline.prepare ~options l with
          | Pipeline.Doall _ -> (sync, time)
          | Pipeline.Doacross { prog; _ } as p ->
            ( sync + count_sync_ops prog,
              time + Pipeline.loop_time p m Pipeline.Sched_new ))
        (0, 0) loops
    in
    (run base, run elim)
  in
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) configs) rows in
  let results = Array.of_list (Pool.map cell cells) in
  let t =
    Table.create
      ~title:"Ablation A6 - post-codegen redundant-sync elimination (transitive reduction)"
      ~columns:
        [
          ("Benchmarks", Table.Left);
          ("config", Table.Left);
          ("sync", Table.Right);
          ("sync+elim", Table.Right);
          ("new T", Table.Right);
          ("new+elim T", Table.Right);
          ("gain", Table.Right);
        ]
  in
  let nc = List.length configs in
  let tot = Array.make 4 0 in
  List.iteri
    (fun ri (rname, _) ->
      List.iteri
        (fun ci (cname, _) ->
          let (s0, t0), (s1, t1) = results.((ri * nc) + ci) in
          tot.(0) <- tot.(0) + s0;
          tot.(1) <- tot.(1) + s1;
          tot.(2) <- tot.(2) + t0;
          tot.(3) <- tot.(3) + t1;
          Table.add_row t
            [
              (if ci = 0 then rname else "");
              cname;
              Table.fmt_int s0;
              Table.fmt_int s1;
              Table.fmt_int t0;
              Table.fmt_int t1;
              Table.fmt_pct (improvement ~t_list:t0 ~t_new:t1);
            ])
        configs)
    rows;
  Table.add_sep t;
  Table.add_row t
    [
      "TOTAL"; ""; Table.fmt_int tot.(0); Table.fmt_int tot.(1); Table.fmt_int tot.(2);
      Table.fmt_int tot.(3); Table.fmt_pct (improvement ~t_list:tot.(2) ~t_new:tot.(3));
    ];
  t

let ablation_migration benches =
  let base = Pipeline.default_options in
  let mig = { base with Pipeline.migrate = true } in
  ablation_generic
    ~title:"Ablation A3 - statement-level synchronization migration, 4-issue #FU=1"
    ~variants:
      [
        ("list", (base, Pipeline.Sched_list));
        ("list+migr", (mig, Pipeline.Sched_list));
        ("new", (base, Pipeline.Sched_new));
        ("new+migr", (mig, Pipeline.Sched_new));
      ]
    benches

let sweep profiles =
  let configs =
    List.concat_map
      (fun issue -> List.map (fun nfu -> (Printf.sprintf "%d-issue/#FU=%d" issue nfu, Machine.make ~issue ~nfu ())) [ 1; 2; 4 ])
      [ 1; 2; 4; 8 ]
  in
  let _, ms, _, _ = scaled_tables ~scale:1 profiles configs in
  let t =
    Table.create ~title:"Sweep A4 - improvement over issue widths 1-8 and 1-4 function units"
      ~columns:
        (("Config", Table.Left)
        :: (List.map (fun b -> (b, Table.Right)) (benchmarks_of ms) @ [ ("Overall", Table.Right) ]))
  in
  List.iter
    (fun (cname, _) ->
      let row =
        List.map
          (fun b ->
            let m = find ms b cname in
            Table.fmt_pct (improvement ~t_list:m.t_list ~t_new:m.t_new))
          (benchmarks_of ms)
      in
      let all_rows = List.filter (fun m -> m.config = cname) ms in
      let tl = List.fold_left (fun a m -> a + m.t_list) 0 all_rows in
      let tn = List.fold_left (fun a m -> a + m.t_new) 0 all_rows in
      Table.add_row t ((cname :: row) @ [ Table.fmt_pct (improvement ~t_list:tl ~t_new:tn) ]))
    configs;
  t


(* --- A5: three-way scheduler comparison --- *)

let ablation_markers benches =
  let t =
    Table.create
      ~title:"Ablation A5 - list vs marker-guided (ISPAN'94) vs new scheduling, 4-issue #FU=1"
      ~columns:
        [
          ("Benchmarks", Table.Left);
          ("list T", Table.Right);
          ("marker T", Table.Right);
          ("marker impr", Table.Right);
          ("new T", Table.Right);
          ("new impr", Table.Right);
        ]
  in
  let machine = Machine.make ~issue:4 ~nfu:1 () in
  let rows =
    Pool.map
      (fun (b : Suite.benchmark) ->
        List.fold_left
          (fun (tl, tm, tn) l ->
            match Pipeline.prepare l with
            | Pipeline.Doall _ -> (tl, tm, tn)
            | Pipeline.Doacross { graph; _ } ->
              let time s = (Isched_sim.Timing.run s).Isched_sim.Timing.finish in
              ( tl + time (Isched_core.List_sched.run graph machine),
                tm + time (Isched_core.Marker_sched.run graph machine),
                tn + time (Isched_core.Sync_sched.run graph machine) ))
          (0, 0, 0) b.Suite.loops)
      benches
    |> Array.of_list
  in
  List.iteri
    (fun bi (b : Suite.benchmark) ->
      let tl, tm, tn = rows.(bi) in
      Table.add_row t
        [
          b.Suite.profile.Isched_perfect.Profile.name;
          Table.fmt_int tl;
          Table.fmt_int tm;
          Table.fmt_pct (improvement ~t_list:tl ~t_new:tm);
          Table.fmt_int tn;
          Table.fmt_pct (improvement ~t_list:tl ~t_new:tn);
        ])
    benches;
  t

(* --- unroll study --- *)

let unroll_kernels =
  [
    ( "consumer+recurrence",
      "DOACROSS I = 1, 100\n S1: O[I] = A[I-1] * C[I]\n S2: A[I] = A[I-1] + E[I]\nENDDO" );
    ("tight recurrence", "DOACROSS I = 1, 100\n A[I] = A[I-1] * C[I] + E[I]\nENDDO");
    ("distance 2", "DOACROSS I = 1, 100\n A[I] = A[I-2] + E[I] * C[I]\nENDDO");
  ]

let unroll_study () =
  let factors = [ 1; 2; 4 ] in
  let t =
    Table.create ~title:"Unroll study - new scheduling, 4-issue #FU=2, factors 1/2/4"
      ~columns:
        (("Kernel", Table.Left)
        :: List.concat_map
             (fun u ->
               [ (Printf.sprintf "u=%d T" u, Table.Right); (Printf.sprintf "u=%d l" u, Table.Right) ])
             factors)
  in
  let machine = Machine.make ~issue:4 ~nfu:2 () in
  List.iter
    (fun (name, src) ->
      let l = Isched_frontend.Parser.parse_loop ~name src in
      let cells =
        List.concat_map
          (fun u ->
            let lu = Isched_transform.Unroll.run l ~factor:u in
            let prog = Isched_codegen.Codegen.compile lu in
            let g = Isched_dfg.Dfg.build prog in
            let s = Isched_core.Sync_sched.run g machine in
            [
              Table.fmt_int (Isched_sim.Timing.run s).Isched_sim.Timing.finish;
              Table.fmt_int s.Isched_core.Schedule.length;
            ])
          factors
      in
      Table.add_row t (name :: cells))
    unroll_kernels;
  t

(* --- processor sweep --- *)

let processor_sweep benches =
  let procs = [ 4; 8; 16; 32; 100 ] in
  let t =
    Table.create
      ~title:"Processor sweep - total time under new scheduling, 4-issue #FU=1, cyclic assignment"
      ~columns:
        (("Benchmarks", Table.Left)
        :: List.map (fun p -> (Printf.sprintf "P=%d" p, Table.Right)) procs)
  in
  let machine = Machine.make ~issue:4 ~nfu:1 () in
  let rows =
    Pool.map
      (fun (b : Suite.benchmark) ->
        let schedules =
          List.filter_map
            (fun l ->
              match Pipeline.prepare l with
              | Pipeline.Doall _ -> None
              | Pipeline.Doacross { graph; _ } -> Some (Isched_core.Sync_sched.run graph machine))
            b.Suite.loops
        in
        List.map
          (fun np ->
            Table.fmt_int
              (List.fold_left
                 (fun acc s ->
                   acc + (Isched_sim.Timing.run ~n_procs:np s).Isched_sim.Timing.finish)
                 0 schedules))
          procs)
      benches
    |> Array.of_list
  in
  List.iteri
    (fun bi (b : Suite.benchmark) ->
      Table.add_row t (b.Suite.profile.Isched_perfect.Profile.name :: rows.(bi)))
    benches;
  t

(* --- register study --- *)

let register_study benches =
  let ks = [ 6; 8; 12; 16 ] in
  let t =
    Table.create
      ~title:"Register study - spill traffic and time vs register-file size, new scheduling, 4-issue #FU=1"
      ~columns:
        (("Benchmarks", Table.Left)
        :: (List.concat_map
              (fun k ->
                [
                  (Printf.sprintf "k=%d spills" k, Table.Right);
                  (Printf.sprintf "k=%d T" k, Table.Right);
                ])
              ks
           @ [ ("unlimited T", Table.Right) ]))
  in
  let machine = Machine.make ~issue:4 ~nfu:1 () in
  let rows =
    Pool.map
      (fun (b : Suite.benchmark) ->
        let progs =
          List.filter_map
            (fun l ->
              match Pipeline.prepare l with
              | Pipeline.Doall _ -> None
              | Pipeline.Doacross { prog; _ } -> Some prog)
            b.Suite.loops
        in
        let time prog =
          let g = Isched_dfg.Dfg.build prog in
          (Isched_sim.Timing.run (Isched_core.Sync_sched.run g machine)).Isched_sim.Timing.finish
        in
        let cells =
          List.concat_map
            (fun k ->
              let spill_ops = ref 0 and total = ref 0 in
              List.iter
                (fun p ->
                  let r = Isched_codegen.Spill.insert p ~k in
                  spill_ops := !spill_ops + r.Isched_codegen.Spill.n_spill_ops;
                  total := !total + time r.Isched_codegen.Spill.prog)
                progs;
              [ Table.fmt_int !spill_ops; Table.fmt_int !total ])
            ks
        in
        let unlimited = List.fold_left (fun acc p -> acc + time p) 0 progs in
        cells @ [ Table.fmt_int unlimited ])
      benches
    |> Array.of_list
  in
  List.iteri
    (fun bi (b : Suite.benchmark) ->
      Table.add_row t (b.Suite.profile.Isched_perfect.Profile.name :: rows.(bi)))
    benches;
  t

(* --- architecture comparison: software pipelining vs DOACROSS --- *)

let architecture_comparison benches =
  let t =
    Table.create
      ~title:
        "Architecture comparison - 1 CPU (serial / modulo-scheduled) vs n CPUs (DOACROSS, new scheduling), 4-issue #FU=1"
      ~columns:
        [
          ("Benchmarks", Table.Left);
          ("serial 1-cpu", Table.Right);
          ("modulo 1-cpu", Table.Right);
          ("doacross n-cpu", Table.Right);
          ("modulo speedup", Table.Right);
          ("doacross speedup", Table.Right);
        ]
  in
  let machine = Machine.make ~issue:4 ~nfu:1 () in
  let rows =
    Pool.map
      (fun (b : Suite.benchmark) ->
        let serial = ref 0 and modulo = ref 0 and doacross = ref 0 in
        List.iter
          (fun l ->
            match Pipeline.prepare l with
            | Pipeline.Doall _ -> ()
            | Pipeline.Doacross { prog; graph; _ } ->
              (* serial: iterations back to back, sync ops excluded like
                 in the modulo schedule *)
              let real_ops =
                Array.fold_left
                  (fun acc ins -> if Isched_ir.Instr.is_sync ins then acc else acc + 1)
                  0 prog.Program.body
              in
              serial := !serial + (prog.Program.n_iters * real_ops);
              let ms = Isched_core.Modulo_sched.run graph machine in
              modulo := !modulo + Isched_core.Modulo_sched.total_time ms;
              doacross :=
                !doacross
                + (Isched_sim.Timing.run (Isched_core.Sync_sched.run graph machine))
                    .Isched_sim.Timing.finish)
          b.Suite.loops;
        (!serial, !modulo, !doacross))
      benches
    |> Array.of_list
  in
  List.iteri
    (fun bi (b : Suite.benchmark) ->
      let serial, modulo, doacross = rows.(bi) in
      Table.add_row t
        [
          b.Suite.profile.Isched_perfect.Profile.name;
          Table.fmt_int serial;
          Table.fmt_int modulo;
          Table.fmt_int doacross;
          Table.fmt_float ~decimals:1 (float_of_int serial /. float_of_int (max 1 modulo));
          Table.fmt_float ~decimals:1 (float_of_int serial /. float_of_int (max 1 doacross));
        ])
    benches;
  t
