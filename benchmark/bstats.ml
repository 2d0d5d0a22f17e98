(* Clocks and order statistics shared by the workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Linear interpolation between the closest ranks (numpy's default). *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (n - 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median a = quantile a 0.5

(* The median over windows (passes, rounds, time slices) of each
   window's [q]-quantile: an interference episode of the machine moves
   the windows it falls in, not the median. *)
let median_of_windows windows q = median (Array.of_list (List.map (fun w -> quantile w q) windows))

(* For windows that time the same items in the same order (passes over
   one corpus): each item's median over the windows, then the
   [q]-quantile over the items.  A stall of the machine that hits an
   item in a minority of the windows does not reach the result; a
   change in what an item costs does. *)
let quantile_of_item_medians windows q =
  let w = Array.of_list windows in
  quantile (Array.init (Array.length w.(0)) (fun j -> median (Array.map (fun a -> a.(j)) w))) q

(* [time f] — [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* [repeat_for ~seconds f] calls [f 0], [f 1], ... until [seconds] have
   passed, at least once. *)
let repeat_for ~seconds f =
  let t0 = now_ns () in
  let n = ref 0 in
  while !n = 0 || secs_since t0 < seconds do
    f !n;
    incr n
  done

(* Peak size of the OCaml major heap, in MiB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
