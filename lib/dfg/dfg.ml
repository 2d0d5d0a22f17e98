module Instr = Isched_ir.Instr
module Program = Isched_ir.Program

type arc_kind = Data | Mem | Sync_src | Sync_snk
type arc = { src : int; dst : int; latency : int; kind : arc_kind }

let arc_kind_name = function
  | Data -> "data"
  | Mem -> "mem"
  | Sync_src -> "sync-src"
  | Sync_snk -> "sync-snk"

(* Arcs live in two flat CSR arenas: [succ_off]/[succ_arc] indexed by
   source node and the transposed [pred_off]/[pred_arc] indexed by
   destination.  One packed int per arc endpoint:

     bits 10..   the other endpoint's node index
     bits 8..9   arc kind
     bits 0..7   latency (function-unit latencies are <= 6)

   Within a row, arcs appear in the exact order the old [arc list
   array] representation produced (reverse insertion order): schedule
   construction recurses over predecessor arcs and provenance binds the
   first-seen arc on ties, so row order is semantics, not cosmetics. *)

let kind_code = function Data -> 0 | Mem -> 1 | Sync_src -> 2 | Sync_snk -> 3
let kind_of_code = function 0 -> Data | 1 -> Mem | 2 -> Sync_src | _ -> Sync_snk

let[@inline] arc_node packed = packed lsr 10
let[@inline] arc_latency packed = packed land 0xFF
let[@inline] arc_kind packed = kind_of_code ((packed lsr 8) land 3)

type sync_path = { wait_id : int; signal : int; distance : int; nodes : int list }

(* Machine-independent derived data, computed on first demand and kept
   with the graph: the bench pipeline schedules every graph under
   several machine configurations, and each run used to recompute these
   from scratch.  A write is idempotent (the functions are
   deterministic), so the unsynchronized publication is safe when a
   memoized graph is shared across domains — two domains can at worst
   both compute the same value once. *)
type path_group = {
  gkey : float;  (* the worst member weight, the scheduler's sort key *)
  gpaths : sync_path list;  (* members, heaviest first *)
  gorder : int;  (* union-find representative: the stable tie-break *)
}

type memo = {
  mutable lp : int array option;  (* longest_path_to_exit *)
  mutable paths : sync_path list option;  (* sync_paths *)
  mutable lfd : int array option;  (* lfd_sends *)
  mutable groups : path_group list option;  (* sync_groups *)
  mutable order : int array option;  (* priority_order *)
  mutable fuc : int array option;  (* fu_codes *)
}

type t = {
  prog : Program.t;
  n : int;
  n_arcs : int;
  succ_off : int array;
  succ_arc : int array;
  pred_off : int array;
  pred_arc : int array;
  memo : memo;
}

let[@inline] pred_deg g i = g.pred_off.(i + 1) - g.pred_off.(i)

let[@inline] iter_succs g i f =
  for k = g.succ_off.(i) to g.succ_off.(i + 1) - 1 do
    f g.succ_arc.(k)
  done

let[@inline] iter_preds g i f =
  for k = g.pred_off.(i) to g.pred_off.(i + 1) - 1 do
    f g.pred_arc.(k)
  done

(* Boxed views for cold paths and tests; same arc order as the old
   representation. *)
let succs_list g i =
  let r = ref [] in
  for k = g.succ_off.(i + 1) - 1 downto g.succ_off.(i) do
    let a = g.succ_arc.(k) in
    r := { src = i; dst = arc_node a; latency = arc_latency a; kind = arc_kind a } :: !r
  done;
  !r

let preds_list g i =
  let r = ref [] in
  for k = g.pred_off.(i + 1) - 1 downto g.pred_off.(i) do
    let a = g.pred_arc.(k) in
    r := { src = arc_node a; dst = i; latency = arc_latency a; kind = arc_kind a } :: !r
  done;
  !r

let may_alias (a : Program.mem_ref) (b : Program.mem_ref) =
  String.equal a.base b.base
  &&
  match (a.affine, b.affine) with
  | Some x, Some y -> x = y
  | None, _ | _, None -> true

(* Scalar memory ops get a pseudo mem_ref keyed by name so the same
   aliasing logic applies; scalar and array namespaces are disjoint
   because Sema rejects names used as both. *)
let mem_ref_of (p : Program.t) i =
  match p.body.(i) with
  | Instr.Load _ | Instr.Store _ -> p.mem.(i)
  | Instr.Load_scalar { name; _ } | Instr.Store_scalar { name; _ } ->
    Some { Program.base = name; affine = Some (0, 0) }
  | _ -> None

let is_write (p : Program.t) i =
  match p.body.(i) with Instr.Store _ | Instr.Store_scalar _ -> true | _ -> false

(* The instructions a wait orders after itself: its sink plus the
   aliasing memory operations of the sink statement between the wait and
   the sink (the old-value load of an if-converted store). *)
let protected_of_wait (p : Program.t) (w : Program.wait_info) =
  let extra = ref [] in
  (match mem_ref_of p w.snk_instr with
  | None -> ()
  | Some ms ->
    for m = w.wait_instr + 1 to w.snk_instr - 1 do
      if p.stmt_of.(m) = w.snk_stmt then
        match mem_ref_of p m with
        | Some mm when may_alias ms mm -> extra := m :: !extra
        | _ -> ()
    done);
  w.snk_instr :: List.rev !extra

(* --- alias-class buckets --- *)

(* Memory operations grouped by base name, then split by affine
   subscript class.  Two ops may alias iff they share a base and their
   affine classes are equal or either is unanalyzable (None), so every
   aliasing pair is confined to one bucket: memory-arc construction
   enumerates exactly the aliasing pairs instead of testing all
   O(n^2) index pairs, and the sync-sink duplication reuses the same
   buckets instead of re-running pairwise alias tests. *)
type bucket = {
  mutable all : int list;  (* every member, descending (built by cons) *)
  classes : ((int * int) option, int list ref * int list ref) Hashtbl.t;
      (* affine class -> (writes, reads), each descending *)
}

let buckets_of (p : Program.t) n =
  let tbl : (string, bucket) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    match mem_ref_of p i with
    | None -> ()
    | Some m ->
      let b =
        match Hashtbl.find_opt tbl m.base with
        | Some b -> b
        | None ->
          let b = { all = []; classes = Hashtbl.create 4 } in
          Hashtbl.add tbl m.base b;
          b
      in
      b.all <- i :: b.all;
      let ws, rs =
        match Hashtbl.find_opt b.classes m.affine with
        | Some p -> p
        | None ->
          let p = (ref [], ref []) in
          Hashtbl.add b.classes m.affine p;
          p
      in
      if is_write p i then ws := i :: !ws else rs := i :: !rs
  done;
  tbl

(* --- per-domain build arena --- *)

(* Scratch for one [build] call, reused across builds on the same
   domain so the hot loop of a scaled bench run allocates no staging
   buffers.  Only [build] touches it and only between entry and return;
   the returned graph owns freshly sized arrays and is immutable, so
   graphs can be memoized and shared across domains. *)
type arena = {
  mutable staged : int array;  (* (src<<36)|(dst<<10)|(kind<<8)|latency, in add order *)
  mutable n_staged : int;
  mutable pairs : int array;  (* (i<<31)|j packed mem pairs *)
  mutable n_pairs : int;
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      { staged = Array.make 256 0; n_staged = 0; pairs = Array.make 256 0; n_pairs = 0 })

let[@inline] push_staged a v =
  if a.n_staged = Array.length a.staged then begin
    let bigger = Array.make (2 * a.n_staged) 0 in
    Array.blit a.staged 0 bigger 0 a.n_staged;
    a.staged <- bigger
  end;
  a.staged.(a.n_staged) <- v;
  a.n_staged <- a.n_staged + 1

let[@inline] push_pair a v =
  if a.n_pairs = Array.length a.pairs then begin
    let bigger = Array.make (2 * a.n_pairs) 0 in
    Array.blit a.pairs 0 bigger 0 a.n_pairs;
    a.pairs <- bigger
  end;
  a.pairs.(a.n_pairs) <- v;
  a.n_pairs <- a.n_pairs + 1

let c_arcs = Isched_obs.Counters.counter "dfg.arcs"

let build ?(sync_arcs = true) (p : Program.t) =
  let n = Array.length p.body in
  if n >= 1 lsl 26 then invalid_arg "Dfg.build: body too large for packed arcs";
  let a = Domain.DLS.get arena_key in
  a.n_staged <- 0;
  a.n_pairs <- 0;
  let stage ~src ~dst ~latency ~kind =
    if src = dst then invalid_arg "Dfg.build: self arc";
    if src > dst then
      invalid_arg
        (Printf.sprintf "Dfg.build: backward arc %d -> %d in %s" (src + 1) (dst + 1) p.name);
    push_staged a ((src lsl 36) lor (dst lsl 10) lor (kind_code kind lsl 8) lor latency)
  in
  (* Data arcs: single-assignment registers, def before use.  The only
     possible duplicate (src, dst, kind) is a register read twice by one
     instruction — registers are single assignment, so distinct regs
     have distinct defs — and an instruction reads at most three
     operands, so two locals dedup the whole use list without a table.
     The bucket enumeration below emits every memory pair exactly once,
     and signals/waits each own distinct instructions. *)
  let def_of = Array.make p.n_regs (-1) in
  Array.iteri
    (fun i ins -> match Instr.def ins with Some r -> def_of.(r) <- i | None -> ())
    p.body;
  Array.iteri
    (fun i ins ->
      let r0 = ref (-1) and r1 = ref (-1) in
      Instr.iter_uses ins (fun r ->
          if r <> !r0 && r <> !r1 then begin
            if !r0 < 0 then r0 := r else r1 := r;
            let d = def_of.(r) in
            if d >= 0 && d <> i then
              stage ~src:d ~dst:i ~latency:(Instr.latency p.body.(d)) ~kind:Data
          end))
    p.body;
  (* Memory arcs: ordered pairs of may-aliasing ops, at least one write.
     Enumerated per alias-class bucket — near-linear in the number of
     arcs — then sorted into the (i asc, j asc) order the old pairwise
     scan produced. *)
  let buckets = buckets_of p n in
  let emit_pair i j = push_pair a (if i < j then (i lsl 31) lor j else (j lsl 31) lor i) in
  let rec write_pairs = function
    | [] -> ()
    | w :: rest ->
      List.iter (fun w' -> emit_pair w w') rest;
      write_pairs rest
  in
  Hashtbl.iter
    (fun _base b ->
      let none_ws, none_rs =
        match Hashtbl.find_opt b.classes None with
        | Some (ws, rs) -> (!ws, !rs)
        | None -> ([], [])
      in
      Hashtbl.iter
        (fun affine (ws, rs) ->
          match affine with
          | None ->
            (* None x None: write-write pairs plus write-read pairs. *)
            write_pairs !ws;
            List.iter (fun w -> List.iter (fun r -> emit_pair w r) !rs) !ws
          | Some _ ->
            (* Within one affine class. *)
            write_pairs !ws;
            List.iter (fun w -> List.iter (fun r -> emit_pair w r) !rs) !ws;
            (* Cross pairs against the unanalyzable class: a write on
               either side.  writes x (None writes + None reads) covers
               every pair with a Some-side write; reads x None-writes
               covers the rest exactly once. *)
            List.iter
              (fun w ->
                List.iter (fun x -> emit_pair w x) none_ws;
                List.iter (fun x -> emit_pair w x) none_rs)
              !ws;
            List.iter (fun r -> List.iter (fun w -> emit_pair r w) none_ws) !rs)
        b.classes)
    buckets;
  let pairs = Array.sub a.pairs 0 a.n_pairs in
  Array.sort Int.compare pairs;
  Array.iter
    (fun packed -> stage ~src:(packed lsr 31) ~dst:(packed land 0x7FFFFFFF) ~latency:1 ~kind:Mem)
    pairs;
  (* Sync-condition arcs. *)
  if sync_arcs then begin
    Array.iter
      (fun (s : Program.signal_info) ->
        stage ~src:s.src_instr ~dst:s.send_instr
          ~latency:(Instr.latency p.body.(s.src_instr))
          ~kind:Sync_src)
      p.signals;
    Array.iter
      (fun (w : Program.wait_info) ->
        stage ~src:w.wait_instr ~dst:w.snk_instr ~latency:1 ~kind:Sync_snk;
        (* The sink statement's other aliasing memory ops, found in the
           sink's bucket instead of a pairwise scan of the body range. *)
        match mem_ref_of p w.snk_instr with
        | None -> ()
        | Some ms -> (
          match Hashtbl.find_opt buckets ms.base with
          | None -> ()
          | Some b ->
            (* [b.all] is descending; collect the qualifying range in
               ascending order to match the old textual scan. *)
            let extras =
              List.fold_left
                (fun acc m ->
                  if
                    m > w.wait_instr && m < w.snk_instr
                    && p.stmt_of.(m) = w.snk_stmt
                    &&
                    match mem_ref_of p m with
                    | Some mm -> may_alias ms mm
                    | None -> false
                  then m :: acc
                  else acc)
                [] b.all
            in
            List.iter (fun m -> stage ~src:w.wait_instr ~dst:m ~latency:1 ~kind:Sync_snk) extras))
      p.waits
  end;
  (* Freeze the staged arcs into the two CSR arenas.  Rows are filled
     backward (cursor starts at row end) so that reading a row forward
     yields reverse insertion order — exactly the cons order of the old
     list representation. *)
  let n_arcs = a.n_staged in
  let succ_off = Array.make (n + 1) 0 and pred_off = Array.make (n + 1) 0 in
  for k = 0 to n_arcs - 1 do
    let v = a.staged.(k) in
    let src = v lsr 36 and dst = (v lsr 10) land 0x3FFFFFF in
    succ_off.(src + 1) <- succ_off.(src + 1) + 1;
    pred_off.(dst + 1) <- pred_off.(dst + 1) + 1
  done;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i);
    pred_off.(i + 1) <- pred_off.(i + 1) + pred_off.(i)
  done;
  let succ_arc = Array.make n_arcs 0 and pred_arc = Array.make n_arcs 0 in
  let succ_cur = Array.init n (fun i -> succ_off.(i + 1)) in
  let pred_cur = Array.init n (fun i -> pred_off.(i + 1)) in
  for k = 0 to n_arcs - 1 do
    let v = a.staged.(k) in
    let src = v lsr 36 and dst = (v lsr 10) land 0x3FFFFFF in
    let kind_lat = v land 0x3FF in
    succ_cur.(src) <- succ_cur.(src) - 1;
    succ_arc.(succ_cur.(src)) <- (dst lsl 10) lor kind_lat;
    pred_cur.(dst) <- pred_cur.(dst) - 1;
    pred_arc.(pred_cur.(dst)) <- (src lsl 10) lor kind_lat
  done;
  Isched_obs.Counters.add c_arcs n_arcs;
  { prog = p; n; n_arcs; succ_off; succ_arc; pred_off; pred_arc;
    memo = { lp = None; paths = None; lfd = None; groups = None; order = None; fuc = None } }

(* --- reference builder --- *)

(* The pre-arena list-based construction, kept verbatim as a
   differential oracle: the property suite asserts the CSR builder
   produces the same arcs in the same per-node order on arbitrary
   generated loops. *)
let build_reference ?(sync_arcs = true) (p : Program.t) =
  let n = Array.length p.body in
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create (4 * n) in
  let add_arc ~src ~dst ~latency ~kind =
    if src = dst then invalid_arg "Dfg.build: self arc";
    if src > dst then
      invalid_arg
        (Printf.sprintf "Dfg.build: backward arc %d -> %d in %s" (src + 1) (dst + 1) p.name);
    let key = (src, dst, kind) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let a = { src; dst; latency; kind } in
      succs.(src) <- a :: succs.(src);
      preds.(dst) <- a :: preds.(dst)
    end
  in
  let def_of = Array.make p.n_regs (-1) in
  Array.iteri
    (fun i ins -> match Instr.def ins with Some r -> def_of.(r) <- i | None -> ())
    p.body;
  Array.iteri
    (fun i ins ->
      List.iter
        (fun r ->
          let d = def_of.(r) in
          if d >= 0 && d <> i then
            add_arc ~src:d ~dst:i ~latency:(Instr.latency p.body.(d)) ~kind:Data)
        (Instr.uses ins))
    p.body;
  for i = 0 to n - 1 do
    match mem_ref_of p i with
    | None -> ()
    | Some mi ->
      for j = i + 1 to n - 1 do
        match mem_ref_of p j with
        | None -> ()
        | Some mj ->
          if (is_write p i || is_write p j) && may_alias mi mj then
            add_arc ~src:i ~dst:j ~latency:1 ~kind:Mem
      done
  done;
  if sync_arcs then begin
    Array.iter
      (fun (s : Program.signal_info) ->
        add_arc ~src:s.src_instr ~dst:s.send_instr
          ~latency:(Instr.latency p.body.(s.src_instr))
          ~kind:Sync_src)
      p.signals;
    Array.iter
      (fun (w : Program.wait_info) ->
        List.iter
          (fun m -> add_arc ~src:w.wait_instr ~dst:m ~latency:1 ~kind:Sync_snk)
          (protected_of_wait p w))
      p.waits
  end;
  (succs, preds)

(* --- components --- *)

type comp_kind = Sig_graph | Wat_graph | Sigwat_graph | Plain

type component = {
  id : int;
  nodes : int list;
  kind : comp_kind;
  sends : int list;
  waits : int list;
}

let components g =
  let uf = Isched_util.Union_find.create g.n in
  for i = 0 to g.n - 1 do
    iter_succs g i (fun a -> ignore (Isched_util.Union_find.union uf i (arc_node a)))
  done;
  let groups = Isched_util.Union_find.groups uf in
  let comps =
    List.mapi
      (fun id (_, nodes) ->
        let sends =
          List.filter (fun i -> match g.prog.body.(i) with Instr.Send _ -> true | _ -> false) nodes
        in
        let waits =
          List.filter (fun i -> match g.prog.body.(i) with Instr.Wait _ -> true | _ -> false) nodes
        in
        let kind =
          match (sends, waits) with
          | [], [] -> Plain
          | _ :: _, [] -> Sig_graph
          | [], _ :: _ -> Wat_graph
          | _ :: _, _ :: _ -> Sigwat_graph
        in
        { id; nodes; kind; sends; waits })
      groups
  in
  Array.of_list comps

let component_of g comps =
  let owner = Array.make g.n (-1) in
  Array.iter (fun c -> List.iter (fun i -> owner.(i) <- c.id) c.nodes) comps;
  owner

(* --- synchronization paths --- *)

let shortest_path g ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parent = Array.make g.n (-2) in
    parent.(src) <- -1;
    let q = Queue.create () in
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      let nexts = ref [] in
      iter_succs g u (fun a -> nexts := arc_node a :: !nexts);
      let nexts = List.sort_uniq compare !nexts in
      List.iter
        (fun v ->
          if (not !found) && parent.(v) = -2 then begin
            parent.(v) <- u;
            if v = dst then found := true else Queue.push v q
          end)
        nexts
    done;
    if not !found then None
    else begin
      let rec walk v acc = if v = -1 then acc else walk parent.(v) (v :: acc) in
      Some (walk dst [])
    end
  end

let sync_paths g =
  match g.memo.paths with
  | Some ps -> ps
  | None ->
    let p = g.prog in
    let ps =
      Array.to_list p.waits
      |> List.filter_map (fun (w : Program.wait_info) ->
             let send = p.signals.(w.signal).send_instr in
             match shortest_path g ~src:w.wait_instr ~dst:send with
             | Some nodes ->
               Some { wait_id = w.wait; signal = w.signal; distance = w.distance; nodes }
             | None -> None)
    in
    g.memo.paths <- Some ps;
    ps

(* Sigwat components: paths sharing any node are grouped (they compete
   for the same issue slots and must be placed together), each group
   keyed by its worst member weight n/d * |path| — the LBD cost a
   mis-placement of that member would multiply into.  Machine
   independent, so memoized with the graph; the scheduler only re-sorts
   the group list according to its [order_paths] option. *)
let sync_groups g =
  match g.memo.groups with
  | Some gs -> gs
  | None ->
    let gs =
      match sync_paths g with
      | [] -> []
      | paths ->
        let arr = Array.of_list paths in
        let uf = Isched_util.Union_find.create (Array.length arr) in
        let owner : (int, int) Hashtbl.t = Hashtbl.create 32 in
        Array.iteri
          (fun pi (p : sync_path) ->
            List.iter
              (fun node ->
                match Hashtbl.find_opt owner node with
                | Some qi -> ignore (Isched_util.Union_find.union uf pi qi)
                | None -> Hashtbl.add owner node pi)
              p.nodes)
          arr;
        let n_iters = g.prog.Program.n_iters in
        let weight (p : sync_path) =
          float_of_int n_iters /. float_of_int (Int.max 1 p.distance)
          *. float_of_int (List.length p.nodes)
        in
        Isched_util.Union_find.groups uf
        |> List.map (fun (rep, members) ->
               let paths = List.map (fun m -> arr.(m)) members in
               let gkey = List.fold_left (fun acc p -> Float.max acc (weight p)) 0. paths in
               let gpaths =
                 List.sort
                   (fun a b ->
                     let c = Float.compare (weight b) (weight a) in
                     if c <> 0 then c else Int.compare a.wait_id b.wait_id)
                   paths
               in
               { gkey; gpaths; gorder = rep })
        |> List.sort (fun a b -> Int.compare a.gorder b.gorder)
    in
    g.memo.groups <- Some gs;
    gs

(* --- lexically-forward constraints --- *)

(* For every wait not heading a sync path, the scheduler wants the
   dependence lexically forward: the send placed first, the wait
   strictly after.  The paper assumes the Sig/Wat/Sigwat graphs "do not
   depend on each other", but compiled loops can violate that (e.g. an
   unrolled scalar update yields two pairs whose sends each depend on
   the other pair's wait); forcing both forward would deadlock the
   placement recursion.  An ordering constraint send->wait is therefore
   accepted only when it keeps the combined graph (data-flow arcs plus
   the constraints accepted so far) acyclic; a rejected pair honestly
   stays backward. *)
let lfd_sends g =
  match g.memo.lfd with
  | Some a -> a
  | None ->
    let p = g.prog in
    let lfd = Array.make (Int.max 1 g.n) (-1) in
    let extra = Array.make (Int.max 1 g.n) [] in
    let path_head = Array.make (Int.max 1 g.n) false in
    List.iter (fun (sp : sync_path) -> path_head.(List.hd sp.nodes) <- true) (sync_paths g);
    let seen = Array.make (Int.max 1 g.n) 0 in
    let stamp = ref 0 in
    let reaches src dst =
      (* DFS over DFG arcs + accepted send->wait constraint edges. *)
      incr stamp;
      let s = !stamp in
      let rec go u =
        u = dst
        || seen.(u) <> s
           && begin
                seen.(u) <- s;
                let found = ref false in
                iter_succs g u (fun a -> if not !found then found := go (arc_node a));
                if not !found then found := List.exists go extra.(u);
                !found
              end
      in
      go src
    in
    Array.iter
      (fun (w : Program.wait_info) ->
        if not path_head.(w.wait_instr) then begin
          let send = p.signals.(w.signal).send_instr in
          (* Adding send -> wait creates a cycle iff the wait already
             reaches the send. *)
          if not (reaches w.wait_instr send) then begin
            lfd.(w.wait_instr) <- send;
            extra.(send) <- w.wait_instr :: extra.(send)
          end
        end)
      p.waits;
    g.memo.lfd <- Some lfd;
    lfd

(* --- priorities and orders --- *)

let longest_path_to_exit g =
  match g.memo.lp with
  | Some d -> d
  | None ->
    let dist = Array.make g.n 0 in
    (* Nodes are indexed in a topological order already (all arcs go
       forward), so a reverse sweep suffices. *)
    for i = g.n - 1 downto 0 do
      iter_succs g i (fun a ->
          let d = arc_latency a + dist.(arc_node a) in
          if d > dist.(i) then dist.(i) <- d)
    done;
    g.memo.lp <- Some dist;
    dist

(* Every node, critical path first, ties towards program order: the
   fill order of the schedulers' final phase.  A pure function of the
   graph, so the sort happens once instead of once per machine
   configuration.  Priorities are small non-negative ints, so a stable
   counting sort on [top - prio] (nodes visited in index order) gives
   that order directly. *)
let priority_order g =
  match g.memo.order with
  | Some o -> o
  | None ->
    let prio = longest_path_to_exit g in
    let top = Array.fold_left Int.max 0 prio in
    let next = Array.make (top + 2) 0 in
    Array.iter (fun p -> next.(top - p + 1) <- next.(top - p + 1) + 1) prio;
    for k = 1 to top + 1 do
      next.(k) <- next.(k) + next.(k - 1)
    done;
    let order = Array.make g.n 0 in
    for i = 0 to g.n - 1 do
      let k = top - prio.(i) in
      order.(next.(k)) <- i;
      next.(k) <- next.(k) + 1
    done;
    g.memo.order <- Some order;
    order

(* Per-node function-unit demand as [Resource.fu_code] ints ([-1] =
   none, else [Fu.index]): precomputed once per graph so the schedulers'
   probe/reserve loops never re-match on the instruction. *)
let fu_codes g =
  match g.memo.fuc with
  | Some a -> a
  | None ->
    let a =
      Array.map
        (fun ins -> match Instr.fu ins with None -> -1 | Some k -> Isched_ir.Fu.index k)
        g.prog.body
    in
    g.memo.fuc <- Some a;
    a

let pp_dot ppf g =
  Format.fprintf ppf "digraph dfg {@.";
  for i = 0 to g.n - 1 do
    let shape =
      match g.prog.body.(i) with
      | Instr.Send _ -> ", shape=triangle"
      | Instr.Wait _ -> ", shape=invtriangle"
      | _ -> ""
    in
    Format.fprintf ppf "  n%d [label=\"%d: %s\"%s];@." i (i + 1)
      (String.escaped (Instr.to_string g.prog.body.(i)))
      shape
  done;
  for i = 0 to g.n - 1 do
    List.iter
      (fun (a : arc) ->
        let style =
          match a.kind with
          | Data -> ""
          | Mem -> " [style=dashed]"
          | Sync_src | Sync_snk -> " [style=dotted, color=red]"
        in
        Format.fprintf ppf "  n%d -> n%d%s;@." a.src a.dst style)
      (succs_list g i)
  done;
  Format.fprintf ppf "}@."


(* Observability shadow: the exported [build] is the traced one. *)
let build ?sync_arcs p = Isched_obs.Span.with_ ~name:"dfg.build" (fun () -> build ?sync_arcs p)
