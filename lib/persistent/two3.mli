(** Persistent 2-3 trees.

    The paper cites Hoffman & O'Donnell's equational 2-3 tree programs
    (transcribed to FEL by Ibrahim) as the tree representation whose
    functional updating shares all but O(log n) of a relation.  Set
    semantics; full insert and delete with rebalancing. *)

module Make (Elt : Ordered.S) : sig
  type t

  val empty : t

  val of_list : Elt.t list -> t

  val to_list : t -> Elt.t list

  val size : t -> int

  val height : t -> int

  val member : Elt.t -> t -> bool

  val find : Elt.t -> t -> Elt.t option

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
  (** In-order fold over the elements satisfying both bound predicates
      ([ge_lo] upward closed, [le_hi] downward closed).  Out-of-bounds
      subtrees are pruned; only nodes actually visited are metered. *)

  val rewrite :
    ?meter:Meter.t ->
    ge_lo:(Elt.t -> bool) ->
    le_hi:(Elt.t -> bool) ->
    (Elt.t -> Elt.t option) ->
    t ->
    t * int
  (** Single-traversal bulk update of the in-bounds elements; replacements
      must compare equal to the original so the shape is preserved and
      untouched subtrees stay shared.  Returns the replacement count; meters
      one unit per rebuilt node.
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

  val invariant : t -> bool
  (** All leaves at the same depth; keys strictly ordered. *)
end
