type ('n, 'e) t = End | Node of 'n * ('n, 'e) t | Item of 'e * ('n, 'e) t

(* A sorted merge that opens a node only when it cannot skip it.  Both
   heads being the same node means every element before it has been
   consumed on both sides, and what follows it is greater than all of it,
   so it holds the same elements in both versions at the same place.  An
   element facing a node opens the node: the two must be compared. *)
let fold_diff ~open_ ~compare ~equal ~removed ~added acc old_walk walk =
  let rec go acc xs ys =
    match (xs, ys) with
    | (End, End) -> acc
    | (Node (n, xs'), Node (m, ys')) ->
        if n == m then go acc xs' ys' else go acc (open_ n xs') (open_ m ys')
    | (Node (n, xs'), _) -> go acc (open_ n xs') ys
    | (_, Node (m, ys')) -> go acc xs (open_ m ys')
    | (Item (x, xs'), End) -> go (removed acc x) xs' End
    | (End, Item (y, ys')) -> go (added acc y) End ys'
    | (Item (x, xs'), Item (y, ys')) ->
        if x == y then go acc xs' ys'
        else
          let c = compare x y in
          if c < 0 then go (removed acc x) xs' ys
          else if c > 0 then go (added acc y) xs ys'
          else if equal x y then go acc xs' ys'
          else go (added acc y) xs' ys'
  in
  go acc old_walk walk
