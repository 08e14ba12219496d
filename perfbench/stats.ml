(* Summaries of repeated host measurements. *)

let median values =
  match List.sort Float.compare values with
  | [] -> invalid_arg "Stats.median: no values"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let sum_int = List.fold_left ( + ) 0
let max_list = List.fold_left Float.max Float.neg_infinity
