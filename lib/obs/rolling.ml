type bucket = {
  mutable epoch : int; (* -1: never used *)
  mutable count : int;
  mutable flagged : int;
  hist : int array;
}

type t = {
  lock : Mutex.t;
  width_ns : int;
  buckets : bucket array;
}

let create ?(buckets = 60) ?(width_ns = 1_000_000_000) () =
  if buckets < 1 then invalid_arg "Rolling.create: buckets must be >= 1";
  if width_ns < 1 then invalid_arg "Rolling.create: width_ns must be >= 1";
  {
    lock = Mutex.create ();
    width_ns;
    buckets =
      Array.init buckets (fun _ ->
          { epoch = -1; count = 0; flagged = 0; hist = Array.make Hist.n_buckets 0 });
  }

let clear_bucket b =
  b.count <- 0;
  b.flagged <- 0;
  Array.fill b.hist 0 Hist.n_buckets 0

let observe t ~now_ns ~latency_ns ~flagged =
  let epoch = now_ns / t.width_ns in
  if epoch >= 0 then
    Mutex.protect t.lock (fun () ->
        let b = t.buckets.(epoch mod Array.length t.buckets) in
        (* A bucket left over from a previous lap of the ring is this
           epoch's now; one strictly newer than the observation means
           the observation itself expired in flight — drop it rather
           than pollute the newer bucket. *)
        if b.epoch < epoch then begin
          clear_bucket b;
          b.epoch <- epoch
        end;
        if b.epoch = epoch then begin
          b.count <- b.count + 1;
          if flagged then b.flagged <- b.flagged + 1;
          let i = Hist.index (max 0 latency_ns) in
          b.hist.(i) <- b.hist.(i) + 1
        end)

type stats = {
  count : int;
  flagged : int;
  rate : float;
  flagged_ratio : float;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  window_ns : int;
}

let stats t ~now_ns =
  let n = Array.length t.buckets in
  let cur = now_ns / t.width_ns in
  let oldest = cur - n + 1 in
  Mutex.protect t.lock (fun () ->
      let merged = Array.make Hist.n_buckets 0 in
      let count = ref 0 and flagged = ref 0 and min_start = ref max_int in
      Array.iter
        (fun b ->
          if b.epoch >= oldest && b.epoch <= cur && b.count > 0 then begin
            count := !count + b.count;
            flagged := !flagged + b.flagged;
            min_start := min !min_start (b.epoch * t.width_ns);
            Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) b.hist
          end)
        t.buckets;
      let count = !count and flagged = !flagged in
      let rate =
        if count = 0 then 0.
        else
          let elapsed_ns = max (now_ns - !min_start) 1 in
          float_of_int count /. (float_of_int elapsed_ns /. 1e9)
      in
      {
        count;
        flagged;
        rate;
        flagged_ratio = (if count = 0 then 0. else float_of_int flagged /. float_of_int count);
        p50_ns = Hist.quantile merged 0.50;
        p99_ns = Hist.quantile merged 0.99;
        p999_ns = Hist.quantile merged 0.999;
        window_ns = n * t.width_ns;
      })

let reset t =
  Mutex.protect t.lock (fun () ->
      Array.iter
        (fun b ->
          clear_bucket b;
          b.epoch <- -1)
        t.buckets)

let render_prometheus ~name t ~now_ns =
  let s = stats t ~now_ns in
  let b = Buffer.create 512 in
  let gauge suffix v =
    Buffer.add_string b (Printf.sprintf "# TYPE %s_%s gauge\n" name suffix);
    Buffer.add_string b (Printf.sprintf "%s_%s %s\n" name suffix v)
  in
  let seconds ns = Printf.sprintf "%.9f" (float_of_int ns /. 1e9) in
  gauge "p50_seconds" (seconds s.p50_ns);
  gauge "p99_seconds" (seconds s.p99_ns);
  gauge "p999_seconds" (seconds s.p999_ns);
  gauge "rate" (Printf.sprintf "%.3f" s.rate);
  gauge "flagged_ratio" (Printf.sprintf "%.6f" s.flagged_ratio);
  gauge "count" (string_of_int s.count);
  Buffer.contents b
