(* Hot-path updates land in one of [n_shards] per-domain cells instead
   of a single process-wide atomic: scheduler inner loops, first_fit
   probes and pool accounting run on every domain at once, and a single
   shared cell ping-pongs its cache line between cores on every update.
   A domain picks its shard from its domain id, so with a persistent
   pool each worker keeps hitting the same (locally cached) cell; the
   fetch-and-add stays, making a rare id collision between two live
   domains safe.  Readers sum the shards, so [value]/[snapshot]/
   [to_value] are observably identical to the unsharded registry. *)

let n_shards = 8 (* power of two; comfortably >= the pool widths used *)
let shard_index () = (Domain.self () :> int) land (n_shards - 1)

(* Consecutive [Atomic.make] allocations sit next to each other in the
   minor heap, which would put several shards on one cache line and
   bring the false sharing right back.  Interleaving a dead ~64-byte
   block between the cells keeps them apart (and the blocks are garbage
   after allocation, so the cost is a little allocator work at registry
   time). *)
let padded_cells n v =
  Array.init n (fun _ ->
      let cell = Atomic.make v in
      ignore (Sys.opaque_identity (Array.make 8 0));
      cell)

type counter = int Atomic.t array (* length n_shards *)

type dist_shard = {
  count : int Atomic.t;
  sum : int Atomic.t;
  mn : int Atomic.t;
  mx : int Atomic.t;
  (* [Hist] bucket counts, allocated on the shard's first sample: most
     of a dist's shards never see one.  Empty reads as all zeros. *)
  buckets : int Atomic.t array Atomic.t;
}

type dist = dist_shard array (* length n_shards *)

type item = C of counter | D of dist

(* The registry lock guards only registration, snapshot and reset;
   updates go straight to the atomics inside the handles. *)
let lock = Mutex.create ()
let registry : (string, item) Hashtbl.t = Hashtbl.create 32
let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some (D _) -> invalid_arg (Printf.sprintf "Counters.counter: %s is a distribution" name)
      | None ->
        let c = padded_cells n_shards 0 in
        Hashtbl.add registry name (C c);
        c)

let fresh_dist_shard () =
  {
    count = Atomic.make 0;
    sum = Atomic.make 0;
    mn = Atomic.make max_int;
    mx = Atomic.make min_int;
    buckets = Atomic.make [||];
  }

(* One dist shard is a handful of adjacent atomics, but they are all
   written by the same domain, so only the shard boundaries need the
   padding treatment. *)
let fresh_dist () =
  Array.init n_shards (fun _ ->
      let s = fresh_dist_shard () in
      ignore (Sys.opaque_identity (Array.make 8 0));
      s)

let dist name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (D d) -> d
      | Some (C _) -> invalid_arg (Printf.sprintf "Counters.dist: %s is a counter" name)
      | None ->
        let d = fresh_dist () in
        Hashtbl.add registry name (D d);
        d)

let add (c : counter) n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.(shard_index ()) n)

let incr c = add c 1
let value (c : counter) = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c

let rec atomic_min a v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let shard_buckets (s : dist_shard) =
  let b = Atomic.get s.buckets in
  if Array.length b > 0 then b
  else begin
    let fresh = Array.init Hist.n_buckets (fun _ -> Atomic.make 0) in
    ignore (Atomic.compare_and_set s.buckets b fresh);
    Atomic.get s.buckets
  end

let observe (d : dist) v =
  if Atomic.get enabled_flag then begin
    let s = d.(shard_index ()) in
    Atomic.incr s.count;
    ignore (Atomic.fetch_and_add s.sum v);
    atomic_min s.mn v;
    atomic_max s.mx v;
    Atomic.incr (shard_buckets s).(Hist.index v)
  end

let observe_counts (d : dist) counts =
  if Atomic.get enabled_flag then begin
    let s = d.(shard_index ()) in
    for v = 0 to Array.length counts - 1 do
      let c = counts.(v) in
      if c > 0 then begin
        ignore (Atomic.fetch_and_add s.count c);
        ignore (Atomic.fetch_and_add s.sum (c * v));
        atomic_min s.mn v;
        atomic_max s.mx v;
        ignore (Atomic.fetch_and_add (shard_buckets s).(Hist.index v) c)
      end
    done
  end

type dist_stats = {
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
  buckets : (int * int) list;
}

let dist_stats (d : dist) =
  let buckets = ref [] in
  let merged = Array.make Hist.n_buckets 0 in
  Array.iter
    (fun (s : dist_shard) ->
      Array.iteri (fun i c -> merged.(i) <- merged.(i) + Atomic.get c) (Atomic.get s.buckets))
    d;
  for i = Hist.n_buckets - 1 downto 0 do
    if merged.(i) > 0 then buckets := (Hist.upper i, merged.(i)) :: !buckets
  done;
  (* Empty shards carry the [max_int]/[min_int] sentinels, which the
     min/max merge ignores by construction. *)
  {
    count = Array.fold_left (fun acc (s : dist_shard) -> acc + Atomic.get s.count) 0 d;
    sum = Array.fold_left (fun acc (s : dist_shard) -> acc + Atomic.get s.sum) 0 d;
    min_v = Array.fold_left (fun acc (s : dist_shard) -> min acc (Atomic.get s.mn)) max_int d;
    max_v = Array.fold_left (fun acc (s : dist_shard) -> max acc (Atomic.get s.mx)) min_int d;
    buckets = !buckets;
  }

type entry = Counter of int | Dist of dist_stats

let entry_of = function C c -> Counter (value c) | D d -> Dist (dist_stats d)

let snapshot () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name item acc -> (name, entry_of item) :: acc) registry [])
  (* Byte-lexicographic explicitly: renders and the Prometheus
     exposition must be deterministic however the 8-way shard merge
     interleaves registrations. *)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  Mutex.protect lock (fun () -> Hashtbl.find_opt registry name) |> Option.map entry_of

let reset_item = function
  | C c -> Array.iter (fun cell -> Atomic.set cell 0) c
  | D d ->
    Array.iter
      (fun (s : dist_shard) ->
        Atomic.set s.count 0;
        Atomic.set s.sum 0;
        Atomic.set s.mn max_int;
        Atomic.set s.mx min_int;
        Array.iter (fun b -> Atomic.set b 0) (Atomic.get s.buckets))
      d

let reset () = Mutex.protect lock (fun () -> Hashtbl.iter (fun _ item -> reset_item item) registry)
let reset_counter (c : counter) = Array.iter (fun cell -> Atomic.set cell 0) c

let render () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, e) ->
      match e with
      | Counter v -> Buffer.add_string b (Printf.sprintf "%-40s %d\n" name v)
      | Dist s ->
        if s.count = 0 then Buffer.add_string b (Printf.sprintf "%-40s count=0\n" name)
        else
          Buffer.add_string b
            (Printf.sprintf "%-40s count=%d sum=%d min=%d max=%d mean=%.2f\n" name s.count s.sum
               s.min_v s.max_v
               (float_of_int s.sum /. float_of_int s.count)))
    (snapshot ());
  Buffer.contents b

(* Prometheus metric names admit [a-zA-Z0-9_:]; we map every other
   byte of the dotted internal name to '_' under an "isched_" prefix,
   e.g. [serve.cache.hits] -> [isched_serve_cache_hits] (the full table
   lives in doc/observability.md). *)
let prometheus_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "isched_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let render_prometheus () =
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, e) ->
      let m = prometheus_name name in
      match e with
      | Counter v -> Printf.bprintf b "# TYPE %s counter\n%s %d\n" m m v
      | Dist s ->
        Printf.bprintf b "# TYPE %s histogram\n" m;
        let cum = ref 0 in
        List.iter
          (fun (upper, c) ->
            cum := !cum + c;
            Printf.bprintf b "%s_bucket{le=\"%d\"} %d\n" m upper !cum)
          s.buckets;
        (* Concurrent updates can leave the snapshot's count a hair off
           the bucket sum; clamp so the +Inf bucket stays monotone. *)
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" m (max !cum s.count);
        Printf.bprintf b "%s_sum %d\n" m s.sum;
        Printf.bprintf b "%s_count %d\n" m (max !cum s.count))
    (snapshot ());
  Buffer.contents b

let to_value () =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    (List.map
       (fun (name, e) ->
         match e with
         | Counter v -> (name, num v)
         | Dist s ->
           let bound v = if s.count = 0 then 0 else v in
           ( name,
             Json.Obj
               [
                 ("count", num s.count);
                 ("sum", num s.sum);
                 ("min", num (bound s.min_v));
                 ("max", num (bound s.max_v));
                 ( "buckets",
                   Json.Arr (List.map (fun (u, c) -> Json.Arr [ num u; num c ]) s.buckets) );
               ] ))
       (snapshot ()))
