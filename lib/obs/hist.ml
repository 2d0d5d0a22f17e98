(* Index 0 holds the negatives, 1..64 the exact values 0..63.  Above
   that, index 65 + 4*(m-6) + sub covers [2^m + sub*2^(m-2),
   2^m + (sub+1)*2^(m-2) - 1] for m = 6..61, so the last index (288)
   ends exactly at max_int = 2^62 - 1. *)

let n_buckets = 289

let index v =
  if v < 0 then 0
  else if v < 64 then v + 1
  else
    let rec log2 m v = if v <= 1 then m else log2 (m + 1) (v lsr 1) in
    let m = log2 0 v in
    65 + (4 * (m - 6)) + ((v lsr (m - 2)) land 3)

(* [(1 lsl m) - 1 + ...] rather than [... - 1] last: the top bucket's
   bound is max_int, and 2^62 itself does not fit. *)
let upper i =
  if i = 0 then -1
  else if i <= 64 then i - 1
  else
    let m = 6 + ((i - 65) / 4) and sub = (i - 65) mod 4 in
    (1 lsl m) - 1 + ((sub + 1) lsl (m - 2))

let quantile counts p =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float_of_int total))) in
    let rec go i acc =
      let acc = acc + counts.(i) in
      if acc >= rank || i = Array.length counts - 1 then upper i else go (i + 1) acc
    in
    go 0 0
  end
