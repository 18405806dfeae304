(** A relation: a persistent set of tuples with unique keys (column 0),
    stored in one of the interchangeable persistent representations.

    The paper's experiments use the linked-list backend; §2.2/§3.3 project
    tree backends for better sharing — the ablation benches compare them. *)

type backend =
  | List_backend  (** ordered linked list (the paper's experimental setup) *)
  | Avl_backend
  | Two3_backend
  | Btree_backend of int  (** branching factor *)
  | Column_backend of int
      (** chunked column store: per-column packed arrays at this chunk
          granularity, persistent by chunk path-copying *)

val backend_name : backend -> string

type t

val create : ?backend:backend -> Schema.t -> t
(** Empty relation (default backend: [List_backend]). *)

val schema : t -> Schema.t

val backend : t -> backend

val size : t -> int

val to_list : t -> Tuple.t list
(** Ascending key order. *)

val insert : ?meter:Fdb_persistent.Meter.t -> t -> Tuple.t -> (t * bool, string) result
(** [Ok (t', added)]: [added] is false when the key was already present
    (the relation is returned physically unchanged).  [Error] on schema
    mismatch. *)

val delete_key : ?meter:Fdb_persistent.Meter.t -> t -> Value.t -> t * bool

val find_key : t -> Value.t -> Tuple.t option

val mem_key : t -> Value.t -> bool

val select : t -> (Tuple.t -> bool) -> Tuple.t list
(** Materializing filter over {!to_list}; the streaming access paths below
    are preferred on hot paths. *)

val fold : ?meter:Fdb_persistent.Meter.t -> ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
(** Fold in ascending key order without materializing a list.  Meters one
    unit per backend unit (cell, node or page) visited. *)

val iter : (Tuple.t -> unit) -> t -> unit

type bound = Inclusive of Value.t | Exclusive of Value.t
(** A key bound for range access paths. *)

val range_fold :
  ?meter:Fdb_persistent.Meter.t ->
  ?lo:bound ->
  ?hi:bound ->
  ('a -> Tuple.t -> 'a) ->
  'a ->
  t ->
  'a
(** Fold over the tuples whose key lies within the given bounds (absent
    bound = unbounded), in ascending key order.  Tree backends prune
    subtrees outside the range, so the meter charges only the units actually
    visited — O(log n + k) for a k-tuple range; the list backend still walks
    the prefix but stops at the upper bound. *)

val range : ?meter:Fdb_persistent.Meter.t -> ?lo:bound -> ?hi:bound -> t -> Tuple.t list
(** [range_fold] materialized, ascending. *)

val range_first : ?lo:bound -> ?hi:bound -> t -> Tuple.t option
(** The tuple with the least key within the bounds, or [None] for an
    empty range: {!range_fold} stopped at its first tuple, which on a
    B-tree is one root-to-leaf path, O(log n). *)

val range_last : ?lo:bound -> ?hi:bound -> t -> Tuple.t option
(** The tuple with the greatest key within the bounds, or [None].
    B-trees descend one path, O(log n); the other backends keep the last
    tuple of their {!range_fold}, no slower than counting the range. *)

val update :
  ?meter:Fdb_persistent.Meter.t ->
  ?lo:bound ->
  ?hi:bound ->
  t ->
  (Tuple.t -> Tuple.t option) ->
  t * int
(** Rewrite tuples in a single structural traversal: the function returns
    [Some t'] for rows to replace (the key must not change — enforced with
    [Invalid_argument]).  Untouched subtrees stay physically shared, and
    subtrees outside the optional key bounds are not visited at all.
    Returns the rewrite count; the relation is returned physically unchanged
    when it is zero. *)

val of_tuples : ?backend:backend -> Schema.t -> Tuple.t list -> (t, string) result
(** Bulk load, value-equal to folding {!insert} over the tuples from
    {!create}: [Error] names the first schema mismatch in input order, and a
    duplicate key keeps its first occurrence.  The list, B-tree and column
    backends validate, stable-sort by key and build in one pass, O(n log n);
    list and B-tree loads cost O(n) on input already strictly ascending by
    key ({!Tuple.sort_keep_first}).  B-tree pages are built bottom-up, so
    their shapes differ from an insert fold's.  The AVL and 2-3 backends keep
    the insert fold, also O(n log n). *)

val shared_units : old:t -> t -> int * int
(** [(shared, total)] physical sharing (cells, nodes, pages or chunks, per
    the backend) of the new version against the old.  Both must use the
    same backend. @raise Invalid_argument otherwise. *)

val diff : old:t -> t -> (Value.t * Tuple.t option) list
(** The key-level changes that turn [old] into the new version, ascending
    by key: [(k, Some tup)] for a tuple inserted or rewritten, [(k, None)]
    for a deleted key.  Tuples equal in every value (bit-exact for reals)
    are not changes, so identical versions diff to [[]].  One merge over
    lazy in-order walks of both versions ({!Fdb_persistent.Walk}) that
    steps over every subtree (page, node, list tail or chunk) the two share
    physically: a one-tuple update on a B-tree costs its rebuilt path,
    O(branching * height), not O(size).  Versions without shared structure
    cost O(size old + size new).  Both must use the same backend.
    @raise Invalid_argument otherwise. *)

val apply_diff :
  t -> (Value.t * Tuple.t option) list -> (t, string) result
(** [apply_diff old (diff ~old r)] has [r]'s contents, in [old]'s
    backend.  Each change replaces or removes its key, in list order.
    [Error] on a tuple that does not match the schema or whose key is not
    its change key.  On a [list] relation, changes in strictly ascending
    key order (as {!diff} lists them) are merged into the list in one
    pass, not applied one walk from the head each. *)

val pp : Format.formatter -> t -> unit
