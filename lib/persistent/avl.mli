(** Persistent AVL trees with metered path copying.

    Myers [18] is cited by the paper for "efficient applicative data types"
    based on AVL trees; this is the corresponding representation for a
    relation.  Set semantics: inserting an element already present returns
    the tree unchanged (and physically shared). *)

module Make (Elt : Ordered.S) : sig
  type t

  val empty : t

  val of_list : Elt.t list -> t

  val to_list : t -> Elt.t list
  (** In-order, ascending. *)

  val size : t -> int

  val height : t -> int

  val member : Elt.t -> t -> bool

  val find : Elt.t -> t -> Elt.t option
  (** The stored element equal to the argument, if any (useful when
      [compare] only inspects a key field). *)

  val fold : ?meter:Meter.t -> ('a -> Elt.t -> 'a) -> 'a -> t -> 'a
  (** In-order fold without materializing a list.  Meters one unit per node
      visited. *)

  val iter : (Elt.t -> unit) -> t -> unit

  val range_fold :
    ?meter:Meter.t ->
    ge_lo:(Elt.t -> bool) ->
    le_hi:(Elt.t -> bool) ->
    ('a -> Elt.t -> 'a) ->
    'a ->
    t ->
    'a
  (** In-order fold over the elements satisfying both bound predicates.
      [ge_lo] must be upward closed and [le_hi] downward closed with respect
      to [Elt.compare]; subtrees provably outside the bounds are pruned, so
      only the nodes actually visited are metered — O(log n + k) for a
      k-element range. *)

  val rewrite :
    ?meter:Meter.t ->
    ge_lo:(Elt.t -> bool) ->
    le_hi:(Elt.t -> bool) ->
    (Elt.t -> Elt.t option) ->
    t ->
    t * int
  (** Single-traversal bulk update over the in-bounds elements: replace [x]
      with [y] when [f x = Some y] (which must satisfy [compare y x = 0], so
      the shape and balance are preserved and untouched subtrees stay
      physically shared).  Returns the new tree and the replacement count;
      meters one unit per rebuilt node.
      @raise Invalid_argument if a replacement changes the element's order. *)

  val insert : ?meter:Meter.t -> Elt.t -> t -> t

  val delete : ?meter:Meter.t -> Elt.t -> t -> t * bool

  val diff :
    equal:(Elt.t -> Elt.t -> bool) ->
    removed:('a -> Elt.t -> 'a) ->
    added:('a -> Elt.t -> 'a) ->
    'a ->
    old:t ->
    t ->
    'a
  (** {!Walk.fold_diff} from [old] to the new version, opening nodes:
      subtrees both versions share are skipped unopened, so a
      one-element update costs O(log n). *)

  val shared_nodes : old:t -> t -> int * int
  (** [(shared, total)] physical-node sharing of the new version against the
      old one. *)

  val invariant : t -> bool
  (** Ordering, height consistency, and balance factors in [-1, 1]. *)
end
