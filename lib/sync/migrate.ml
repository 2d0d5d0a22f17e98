module Ast = Isched_frontend.Ast
module Dep = Isched_deps.Dep
module Access = Isched_deps.Access

let reorder (l : Ast.loop) =
  let n = List.length l.body in
  if n <= 1 then l
  else begin
    let deps = Dep.analyze l in
    (* Intra-iteration (loop-independent) edges constrain the order. *)
    let edges = Array.make n [] in
    let indeg = Array.make n 0 in
    List.iter
      (fun (d : Dep.t) ->
        if not (Dep.carried d) then begin
          let s = d.src.Access.stmt and t = d.snk.Access.stmt in
          if s <> t then begin
            edges.(s) <- t :: edges.(s);
            indeg.(t) <- indeg.(t) + 1
          end
        end)
      deps;
    (* Score: prefer carried-dependence sources (negative = earlier),
       defer carried-dependence sinks. *)
    let score = Array.make n 0 in
    List.iter
      (fun (d : Dep.t) ->
        if Dep.carried d then begin
          score.(d.src.Access.stmt) <- score.(d.src.Access.stmt) - 1;
          score.(d.snk.Access.stmt) <- score.(d.snk.Access.stmt) + 1
        end)
      deps;
    let ready = Isched_util.Ipqueue.create () in
    let max_score = Array.fold_left max 0 score in
    let push i =
      (* Ipqueue pops the highest priority first; we want the smallest
         score first, and original order among equals.  Offsetting by
         the largest score keeps [prio] non-negative. *)
      Isched_util.Ipqueue.push ready ~prio:(max_score - score.(i)) ~tie:i i
    in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then push i
    done;
    let order = Isched_util.Vec.create () in
    while not (Isched_util.Ipqueue.is_empty ready) do
      let i = Isched_util.Ipqueue.pop ready in
      Isched_util.Vec.push order i;
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then push j)
        edges.(i)
    done;
    let order = Isched_util.Vec.to_array order in
    assert (Array.length order = n);
    let body_arr = Array.of_list l.body in
    let body = Array.to_list (Array.map (fun i -> body_arr.(i)) order) in
    Ast.with_body l body
  end
