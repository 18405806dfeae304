(** Persistent chunked column store.

    The fifth relation layout: rows live decomposed into per-column packed
    arrays at a fixed chunk granularity — the column-oriented table shape
    of analytic stores — kept globally sorted by the ordering field
    (field 0).  Chunks are immutable; an update rebuilds exactly the one
    chunk it touches plus the chunk spine and shares every other chunk
    physically, so the paper's structure-sharing accounting
    ({!val:shared_chunks}, the analogue of {!Btree.Make.shared_pages})
    applies unchanged: all but O(chunk) of an n-row relation survives any
    single-row write.

    Unlike the tree backends, which are functors over an ordered element,
    this one needs to see {e inside} the element to shred it into columns:
    {!module-type:Row} exposes the element as a field array whose slot 0
    is the ordering key. *)

(** How elements decompose into fields.  [fields] and [of_fields] must be
    inverses; field 0 is the ordering key, and two elements compare as
    their field-0s under [compare_field] (set semantics: one element per
    key). *)
module type Row = sig
  type t

  type field

  val fields : t -> field array
  (** Read-only view; the store never mutates it. *)

  val of_fields : field array -> t

  val compare_field : field -> field -> int
end

module Make (Row : Row) : sig
  type t

  val create : ?chunk:int -> unit -> t
  (** [chunk] is the maximum rows per chunk (default 256; minimum 2). *)

  val chunk_capacity : t -> int

  val chunk_count : t -> int

  val of_list : ?chunk:int -> Row.t list -> t
  (** Bulk load: stable-sorts by key and keeps the {e first} occurrence of
      each duplicate key, then packs full chunks directly — O(n log n),
      the path million-row loads take. *)

  val to_list : t -> Row.t list

  val size : t -> int

  val member : Row.t -> t -> bool

  val find : Row.t -> t -> Row.t option

  val fold : ?meter:Meter.t -> ('a -> Row.t -> 'a) -> 'a -> t -> 'a
  (** In-order fold; meters one unit per chunk visited. *)

  val iter : (Row.t -> unit) -> t -> unit

  val range_fold :
    ?meter:Meter.t ->
    ge_lo:(Row.t -> bool) ->
    le_hi:(Row.t -> bool) ->
    ('a -> Row.t -> 'a) ->
    'a ->
    t ->
    'a
  (** In-order fold over the elements satisfying both bound predicates
      ([ge_lo] upward closed, [le_hi] downward closed).  Chunks wholly
      outside the range are pruned by their boundary rows without being
      metered; O(log n + k/chunk) chunks are visited for a k-element
      range. *)

  val rewrite :
    ?meter:Meter.t ->
    ge_lo:(Row.t -> bool) ->
    le_hi:(Row.t -> bool) ->
    (Row.t -> Row.t option) ->
    t ->
    t * int
  (** Single-traversal bulk update of the in-bounds elements; replacements
      must keep the ordering key (and the width), so chunk shapes are
      preserved and untouched chunks stay physically shared.  Returns the
      replacement count; meters one unit per rebuilt chunk.
      @raise Invalid_argument if a replacement changes the key or width. *)

  val insert : ?meter:Meter.t -> Row.t -> t -> t
  (** Set semantics: an existing key is replaced in place.  Rebuilds one
      chunk (two when the chunk splits at capacity) and the spine; meters
      one unit per chunk built. *)

  val delete : ?meter:Meter.t -> Row.t -> t -> t * bool

  val diff :
    equal:(Row.t -> Row.t -> bool) ->
    removed:('a -> Row.t -> 'a) ->
    added:('a -> Row.t -> 'a) ->
    'a ->
    old:t ->
    t ->
    'a
  (** {!Walk.fold_diff} from [old] to the new version, opening chunks:
      chunks both versions share are skipped unopened, so a
      one-row update costs the spine plus O(chunk).  Rows are compared by
      field 0. *)

  val shared_chunks : old:t -> t -> int * int
  (** [(shared, total)] over the new version's chunks — physical identity,
      measured by a merge walk over the two sorted spines. *)

  val invariant : t -> bool
  (** Chunk occupancy in [1, capacity], consistent column lengths and
      widths, keys strictly ascending within and across chunks, size
      consistent. *)
end
