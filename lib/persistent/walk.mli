(** Lazy in-order walks and the one structural diff over them.

    A walk is the remaining in-order sequence of a persistent structure,
    with its subtrees left closed: a {!constructor:Node} stands for every
    element below it, in order.  Each backend supplies only how to open one
    of its nodes (a B-tree page, a 2-3 or AVL node, a list tail, a column
    chunk) into its items; {!fold_diff} does the rest.

    Two versions of a structure share every subtree an update did not
    path-copy (paper §2.2).  When both walks reach the same physical node
    at the same point, its elements are the same in both versions, so the
    diff steps over it unopened: a one-element update costs the rebuilt
    path, O(log n) nodes, not O(n). *)

type ('n, 'e) t =
  | End
  | Node of 'n * ('n, 'e) t  (** a closed subtree, then the rest *)
  | Item of 'e * ('n, 'e) t  (** one element, then the rest *)

val fold_diff :
  open_:('n -> ('n, 'e) t -> ('n, 'e) t) ->
  compare:('e -> 'e -> int) ->
  equal:('e -> 'e -> bool) ->
  removed:('a -> 'e -> 'a) ->
  added:('a -> 'e -> 'a) ->
  'a ->
  ('n, 'e) t ->
  ('n, 'e) t ->
  'a
(** [fold_diff ~open_ ~compare ~equal ~removed ~added acc old_walk walk]
    merges two strictly ascending walks by [compare] and folds, in
    ascending order, [removed] over each element only [old_walk] holds and
    [added] over each element of [walk] that [old_walk] lacks or holds
    with a different value ([compare] 0 but not [equal]).  Physically
    equal elements, and physically equal nodes met at the same point of
    both walks, are skipped without a call.  [open_ n rest] must be [n]'s
    items in order followed by [rest]. *)
