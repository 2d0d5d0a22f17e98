(* One heap entry packs the ordering key and the payload into a single
   int:

     entry = ((prio + 2) << 48) | ((0xFFFFFF - tie) << 24) | value

   Comparing entries as plain ints then orders by descending prio and,
   within a prio, ascending tie.  The [+ 2] keeps the marker
   scheduler's prio = -1 non-negative; 24 bits for [tie] and [value]
   cover every node index (the DFG builder caps bodies well below
   2^24). *)

type t = { mutable heap : int array; mutable size : int }

let create () = { heap = Array.make 16 0; size = 0 }

let is_empty q = q.size = 0

let length q = q.size

let entry ~prio ~tie v =
  if prio < -1 || prio > 0x3FFD then invalid_arg "Ipqueue.push: prio out of range";
  if tie < 0 || tie > 0xFFFFFF then invalid_arg "Ipqueue.push: tie out of range";
  if v < 0 || v > 0xFFFFFF then invalid_arg "Ipqueue.push: value out of range";
  ((prio + 2) lsl 48) lor ((0xFFFFFF - tie) lsl 24) lor v

let push q ~prio ~tie v =
  let e = entry ~prio ~tie v in
  if q.size = Array.length q.heap then begin
    let bigger = Array.make (2 * q.size) 0 in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end;
  (* Sift up. *)
  let h = q.heap in
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.(parent) < e then begin
      h.(!i) <- h.(parent);
      i := parent
    end
    else continue := false
  done;
  h.(!i) <- e

let pop q =
  if q.size = 0 then raise Not_found;
  let h = q.heap in
  let top = h.(0) in
  q.size <- q.size - 1;
  let last = h.(q.size) in
  (* Sift the displaced last entry down from the root. *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= q.size then continue := false
    else begin
      let r = l + 1 in
      let child = if r < q.size && h.(r) > h.(l) then r else l in
      if h.(child) > last then begin
        h.(!i) <- h.(child);
        i := child
      end
      else continue := false
    end
  done;
  h.(!i) <- last;
  top land 0xFFFFFF

let clear q = q.size <- 0
