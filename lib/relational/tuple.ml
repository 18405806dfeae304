type t = Value.t array

let make vs =
  if vs = [] then invalid_arg "Tuple.make: empty tuple";
  Array.of_list vs

let key t =
  if Array.length t = 0 then invalid_arg "Tuple.key: empty tuple";
  t.(0)

let arity = Array.length

let get t i = t.(i)

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let compare a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i >= na && i >= nb then 0
    else if i >= na then -1
    else if i >= nb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let compare_key a b = Value.compare (key a) (key b)

let rec strictly_ascending = function
  | a :: (b :: _ as rest) -> compare_key a b < 0 && strictly_ascending rest
  | _ -> true

let sort_keep_first tuples =
  if strictly_ascending tuples then tuples
  else
    let keep acc t =
      match acc with
      | prev :: _ when compare_key prev t = 0 -> acc
      | _ -> t :: acc
    in
    List.rev (List.fold_left keep [] (List.stable_sort compare_key tuples))

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Value.pp)
    t

let to_string t = Format.asprintf "%a" pp t
