(** Persistent B-trees with an explicit page model.

    Section 3.3 of the paper argues that when "the size of a tree node is
    one physical page", rebuilding the O(log n) pages on the path from the
    root costs little next to the page-transit time, and Figure 2-2 shows an
    update producing a new directory that shares every unmodified page with
    the old one.  Every node here (leaf or directory) is one page;
    {!val:shared_pages} measures exactly the figure's claim. *)

module Make (Elt : Ordered.S) : sig
  type t

  val create : ?branching:int -> unit -> t
  (** [branching] is the maximum number of children per directory page
      (default 8; minimum 3).  Pages hold at most [branching - 1] keys. *)

  val branching : t -> int

  val of_list : ?branching:int -> Elt.t list -> t
  (** A fold of {!insert}: the page shapes of a tree grown one element at a
      time. *)

  val of_sorted : ?branching:int -> Elt.t list -> t
  (** Bottom-up bulk load from a strictly ascending list, O(n): the tree of
      minimal height whose pages split the elements evenly, as full as the
      occupancy bounds allow, so every non-root page holds between
      [(branching - 1) / 2] and [branching - 1] keys.  Full pages split on
      their first insert, so a tree built here rebuilds more pages per early
      insert than one from {!of_list}.
      @raise Invalid_argument if the input is not strictly ascending. *)

  val of_ascending : ?branching:int -> Elt.t list -> t option
  (** {!of_sorted}'s tree, or [None] if the input is not strictly
      ascending: one pass over the list, which is checked as the pages
      fill. *)

  val to_list : t -> Elt.t list

  val size : t -> int

  val height : t -> int

  val page_count : t -> int

  val member : Elt.t -> t -> bool

  val find : Elt.t -> t -> Elt.t option

  val range : lo:Elt.t -> hi:Elt.t -> t -> Elt.t list
  (** Elements [x] with [lo <= x <= hi], ascending. *)

  val fold : ?meter:Meter.t -> ('a -> Elt.t -> 'a) -> 'a -> t -> 'a
  (** In-order fold without materializing a list.  Meters one unit per page
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
      ([ge_lo] upward closed, [le_hi] downward closed).  Pages wholly
      outside the range are pruned; only pages actually visited are
      metered — O(log n + k/B) pages for a k-element range. *)

  val rewrite :
    ?meter:Meter.t ->
    ge_lo:(Elt.t -> bool) ->
    le_hi:(Elt.t -> bool) ->
    (Elt.t -> Elt.t option) ->
    t ->
    t * int
  (** Single-traversal bulk update of the in-bounds elements; replacements
      must compare equal to the original so page shapes are preserved and
      untouched pages stay shared.  Returns the replacement count; meters
      one unit per rebuilt page.
      @raise Invalid_argument if a replacement changes the element's order. *)

  val insert : ?meter:Meter.t -> Elt.t -> t -> t
  (** Set semantics; meters one allocation per rebuilt page. *)

  val delete : ?meter:Meter.t -> Elt.t -> t -> t * bool

  val diff :
    equal:(Elt.t -> Elt.t -> bool) ->
    removed:('a -> Elt.t -> 'a) ->
    added:('a -> Elt.t -> 'a) ->
    'a ->
    old:t ->
    t ->
    'a
  (** {!Walk.fold_diff} from [old] to the new version, opening pages:
      pages both versions share are skipped unopened, so a
      one-element update costs O(height * branching). *)

  val shared_pages : old:t -> t -> int * int
  (** [(shared, total)] over the new version's pages, where a page is
      shared if it is physically one of [old]'s.  Both trees are walked in
      lockstep: since elements are unique, a page is [old]'s iff the
      search in [old] for its first element reaches it at its height, and
      a shared page's whole subtree is shared, so the cost follows the
      pages the update rebuilt, O(rebuilt * height * branching). *)

  type page
  (** One page of a tree, compared physically ([==]): a view for checking
      {!shared_pages} against a page-by-page search. *)

  val root_page : t -> page
  val subpages : page -> page array
  (** A directory page's children, in order; [[||]] for a leaf. *)

  val invariant : t -> bool
  (** Uniform leaf depth, key ordering, and page occupancy bounds (root
      exempt from the minimum). *)
end
