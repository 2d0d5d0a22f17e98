(* Span recorder for the traced run.

   The benchmark wraps each call into a library layer in [span name f]
   from its own code; nothing inside lib/ is instrumented.  Spans
   (name, start, end, parent, request id, domain) are kept in per-domain
   buffers and only aggregated or written out after the run, so the
   recording cost is two clock reads and one small allocation per call.
   With recording off, [span name f] is [f ()]. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  req : int;  (** request / loop / chunk id of the enclosing root, -1 if none *)
  dom : int;
  start_ns : int;
  stop_ns : int;
}

type dstate = { mutable stack : int list; mutable spans : span list; mutable req : int }

let recording = ref false
let next_id = Atomic.make 0
let states : dstate list Atomic.t = Atomic.make []

let rec register s =
  let cur = Atomic.get states in
  if not (Atomic.compare_and_set states cur (s :: cur)) then register s

let key =
  Domain.DLS.new_key (fun () ->
      let s = { stack = []; spans = []; req = -1 } in
      register s;
      s)

(* [span_result name_of f] — [f ()] inside a span named by [name_of]
   from its outcome (the serve replay names a handle call after its
   cache verdict). *)
let span_result name_of f =
  if not !recording then f ()
  else begin
    let st = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match st.stack with p :: _ -> p | [] -> -1 in
    st.stack <- id :: st.stack;
    let start_ns = Bstats.now_ns () in
    let finish outcome =
      let stop_ns = Bstats.now_ns () in
      st.stack <- List.tl st.stack;
      st.spans <-
        {
          id;
          parent;
          name = name_of outcome;
          req = st.req;
          dom = (Domain.self () :> int);
          start_ns;
          stop_ns;
        }
        :: st.spans
    in
    match f () with
    | r ->
      finish (Ok r);
      r
    | exception e ->
      finish (Error e);
      raise e
  end

let span name f = span_result (fun _ -> name) f

(* [root name ~req f] — a root span whose descendants carry [req]. *)
let root name ~req f =
  if not !recording then f ()
  else begin
    let st = Domain.DLS.get key in
    let saved = st.req in
    st.req <- req;
    Fun.protect ~finally:(fun () -> st.req <- saved) (fun () -> span name f)
  end

let start () =
  List.iter (fun s -> s.spans <- []) (Atomic.get states);
  recording := true

(* Stops recording and returns every span recorded since [start]. *)
let stop () =
  recording := false;
  List.concat_map (fun s -> s.spans) (Atomic.get states)

type layer = { calls : int; busy_s : float }

(* Self time: a span's duration minus the part its child spans cover
   (children never overlap: one domain runs them one after another). *)
let aggregate spans =
  let child_ns = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (s.stop_ns - s.start_ns + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  let root_ns = ref 0 and layer_self_ns = ref 0 in
  List.iter
    (fun s ->
      let dur = s.stop_ns - s.start_ns in
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      if s.parent < 0 then root_ns := !root_ns + dur else layer_self_ns := !layer_self_ns + self;
      let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c + 1, b + self))
    spans;
  let layers name =
    match Hashtbl.find_opt by_name name with
    | Some (c, b) -> { calls = c; busy_s = float_of_int b *. 1e-9 }
    | None -> { calls = 0; busy_s = 0. }
  in
  let coverage =
    if !root_ns = 0 then 0. else float_of_int !layer_self_ns /. float_of_int !root_ns
  in
  (layers, coverage, float_of_int !root_ns *. 1e-9)

(* Chrome trace-event JSON (loadable in Perfetto / chrome://tracing). *)
let write path spans =
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \
             \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}"
            (if i = 0 then "" else ",\n")
            s.name s.dom
            (float_of_int (s.start_ns - t0) /. 1e3)
            (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
            s.id s.parent s.req)
        (List.sort (fun a b -> compare a.start_ns b.start_ns) spans);
      output_string oc "\n]}\n")
