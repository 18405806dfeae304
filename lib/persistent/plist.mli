(** Persistent ordered linked list — the relation representation used in the
    paper's experiments ("for simplicity, a linked-list implementation of
    both the database and individual relations was used", §4).

    An ordered insert copies the prefix before the insertion point and
    shares the suffix; this is the pure counterpart of
    {!Fdb_lenient.Llist.insert_ordered}. *)

module Make (Elt : Ordered.S) : sig
  type t

  val empty : t

  val of_list : Elt.t list -> t
  (** Sorts the input. *)

  val of_sorted : Elt.t list -> t
  (** Build from a strictly ascending list in one O(n) tail-recursive pass,
      without the per-element prefix copy of repeated {!insert}.
      @raise Invalid_argument if the input is not strictly ascending. *)

  val of_ascending : Elt.t list -> t option
  (** {!of_sorted}'s list, or [None] if the input is not strictly
      ascending. *)

  val to_list : t -> Elt.t list

  val size : t -> int

  val is_empty : t -> bool

  val member : Elt.t -> t -> bool

  val find : (Elt.t -> bool) -> t -> Elt.t option

  val fold : ?meter:Meter.t -> ('a -> Elt.t -> 'a) -> 'a -> t -> 'a
  (** Ascending fold without materializing a list.  Meters one unit per cell
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
  (** Fold over the elements satisfying both bound predicates, in order.
      [ge_lo] must be upward closed and [le_hi] downward closed with respect
      to [Elt.compare].  The scan stops at the first element past the upper
      bound; every cell visited (including the skipped prefix — a list has no
      index) meters one unit. *)

  val rewrite :
    ?meter:Meter.t ->
    ge_lo:(Elt.t -> bool) ->
    le_hi:(Elt.t -> bool) ->
    (Elt.t -> Elt.t option) ->
    t ->
    t * int
  (** Single-traversal bulk update: replace each in-bounds element [x] with
      [y] when [f x = Some y] (which must satisfy [compare y x = 0]), keeping
      every untouched suffix physically shared.  Returns the new list and the
      number of replacements; meters one unit per rebuilt cell.
      @raise Invalid_argument if a replacement changes the element's order. *)

  val insert : ?meter:Meter.t -> Elt.t -> t -> t
  (** Ordered insert; duplicates are kept adjacent.  Meters one allocation
      per copied cell plus one for the new cell. *)

  val delete : ?meter:Meter.t -> Elt.t -> t -> t * bool
  (** Remove the first element equal to the argument. *)

  val apply_sorted : (Elt.t * Elt.t option) list -> t -> t
  (** [apply_sorted changes t] takes each [(probe, put)] in turn: it
      removes the element comparing equal to [probe], if any, and puts
      [put] in its place when given ([put] must compare equal to [probe]).
      One pass for all the changes: the cells up to the last change are
      copied and the rest shared.
      @raise Invalid_argument if the probes are not strictly ascending. *)

  val diff :
    equal:(Elt.t -> Elt.t -> bool) ->
    removed:('a -> Elt.t -> 'a) ->
    added:('a -> Elt.t -> 'a) ->
    'a ->
    old:t ->
    t ->
    'a
  (** {!Walk.fold_diff} from [old] to the new version, opening cells:
      the shared tail is skipped unopened, so an update costs
      the copied prefix. *)

  val shared_cells : old:t -> t -> int * int
  (** [(shared, total)]: of the new version's [total] cells, how many are
      physically shared with the old version. *)

  val invariant : t -> bool
  (** Elements are in nondecreasing order. *)
end
