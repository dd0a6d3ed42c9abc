(* Order statistics shared by every reported metric. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest rank of percentile [p] among [n] samples, 1-based; the slack
   keeps 99.9 % of 10000 at rank 9990 despite binary rounding. *)
let rank p n = int_of_float (ceil ((p /. 100. *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of a sorted array ([p] in (0, 100]). *)
let rank_value a p =
  let n = Array.length a in
  let r = rank p n in
  a.(max 0 (min (n - 1) (r - 1)))

(* The median of the middle pair for even counts, so a median over two
   rounds is their mean rather than the lower one. *)
let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The percentile ladder the tail is chosen from. *)
let ladder = [ 50.; 90.; 95.; 99.; 99.9 ]

(* The tail: the highest ladder percentile that still has at least
   [beyond] samples strictly above its rank, with that percentile and the
   sample count.  [None] when even the median has fewer than [beyond]
   samples beyond it. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  let above p = n - rank p n in
  match List.filter (fun p -> above p >= beyond) ladder with
  | [] -> None
  | ps ->
      let p = List.fold_left max 0. ps in
      Some (p, rank_value a p, n)

let percentile_label p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p
  else Printf.sprintf "p%g" p
