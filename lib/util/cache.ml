module Counters = Isched_obs.Counters

type counters = {
  c_hit : Counters.counter;
  c_miss : Counters.counter;
  c_evict : Counters.counter;
  c_coalesced : Counters.counter;
}

type 'v state = Computing | Ready of 'v

type ('k, 'v) node = { nkey : 'k; mutable state : 'v state }

(* One stripe: a mutex-protected association list in MRU-first order.
   Per-stripe capacity is small (a 1024-entry cache over 16 stripes is
   64 nodes per stripe), so the O(n) touch/evict walks stay well under
   the cost of the work every cached value stands for. *)
type ('k, 'v) stripe = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable items : ('k, 'v) node list;
}

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  stripe_cap : int;
  total_cap : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  counters : counters option;
}

let create ?name ?(stripes = 16) ~capacity ~hash ~equal () =
  if stripes < 1 then invalid_arg "Cache.create: stripes must be >= 1";
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    stripes =
      Array.init stripes (fun _ ->
          { lock = Mutex.create (); cond = Condition.create (); items = [] });
    stripe_cap = max 1 ((capacity + stripes - 1) / stripes);
    total_cap = capacity;
    hash;
    equal;
    counters =
      Option.map
        (fun name ->
          let c s = Counters.counter (name ^ "." ^ s) in
          { c_hit = c "hit"; c_miss = c "miss"; c_evict = c "evict"; c_coalesced = c "coalesced" })
        name;
  }

let count c field = match c.counters with Some cs -> Counters.incr (field cs) | None -> ()

let capacity c = c.total_cap

let stripe_for c k = c.stripes.((c.hash k land max_int) mod Array.length c.stripes)

let find_node c s k = List.find_opt (fun n -> c.equal n.nkey k) s.items

let is_ready n = match n.state with Ready _ -> true | Computing -> false
let n_ready s = List.fold_left (fun a n -> if is_ready n then a + 1 else a) 0 s.items

(* Move [node] to the front of the MRU list. *)
let touch s node =
  match s.items with
  | n :: _ when n == node -> ()
  | items -> s.items <- node :: List.filter (fun n -> not (n == node)) items

(* Evict ready nodes from the LRU end until at most [cap] remain.
   In-flight computes are never evicted (their computer still holds a
   reference), so a stripe can transiently exceed its share while many
   keys are being computed at once. *)
let enforce_cap c s =
  let excess = ref (n_ready s - c.stripe_cap) in
  if !excess > 0 then begin
    (* Walk from the LRU end: keep everything once the excess is gone. *)
    let rev = List.rev s.items in
    let kept =
      List.filter
        (fun n ->
          match n.state with
          | Ready _ when !excess > 0 ->
            decr excess;
            count c (fun cs -> cs.c_evict);
            false
          | _ -> true)
        rev
    in
    s.items <- List.rev kept
  end

let rec find_or_compute_v c k f =
  let s = stripe_for c k in
  Mutex.lock s.lock;
  match find_node c s k with
  | Some node -> (
    match node.state with
    | Ready v ->
      touch s node;
      Mutex.unlock s.lock;
      count c (fun cs -> cs.c_hit);
      (v, `Hit)
    | Computing ->
      (* Another domain is computing this key: wait for it to finish
         (or fail), then retry the lookup from scratch. *)
      count c (fun cs -> cs.c_coalesced);
      let rec wait () =
        Condition.wait s.cond s.lock;
        match find_node c s k with
        | Some { state = Computing; _ } -> wait ()
        | Some ({ state = Ready v; _ } as node) ->
          touch s node;
          Mutex.unlock s.lock;
          count c (fun cs -> cs.c_hit);
          (v, `Coalesced)
        | None ->
          (* The compute failed and the placeholder was removed: become
             a computer ourselves. *)
          Mutex.unlock s.lock;
          find_or_compute_v c k f
      in
      wait ())
  | None -> (
    let node = { nkey = k; state = Computing } in
    s.items <- node :: s.items;
    Mutex.unlock s.lock;
    count c (fun cs -> cs.c_miss);
    match f () with
    | v ->
      Mutex.lock s.lock;
      node.state <- Ready v;
      touch s node;
      enforce_cap c s;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      (v, `Miss)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock s.lock;
      s.items <- List.filter (fun n -> not (n == node)) s.items;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      Printexc.raise_with_backtrace e bt)

let find_or_compute c k f =
  match find_or_compute_v c k f with
  | v, `Miss -> (v, false)
  | v, (`Hit | `Coalesced) -> (v, true)

let find c k =
  let s = stripe_for c k in
  Mutex.protect s.lock (fun () ->
      match find_node c s k with
      | Some ({ state = Ready v; _ } as node) ->
        touch s node;
        count c (fun cs -> cs.c_hit);
        Some v
      | Some { state = Computing; _ } | None -> None)

let remove c k =
  let s = stripe_for c k in
  Mutex.protect s.lock (fun () ->
      s.items <- List.filter (fun n -> not (is_ready n && c.equal n.nkey k)) s.items)

let iter c f =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () ->
          List.iter (fun n -> match n.state with Ready v -> f n.nkey v | Computing -> ()) s.items))
    c.stripes

let stripe_lengths c = Array.map (fun s -> Mutex.protect s.lock (fun () -> n_ready s)) c.stripes

let length c = Array.fold_left ( + ) 0 (stripe_lengths c)

let clear c =
  Array.iter
    (fun s ->
      Mutex.protect s.lock (fun () -> s.items <- List.filter (fun n -> not (is_ready n)) s.items))
    c.stripes
