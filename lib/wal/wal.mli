(** The durable version log: an append-only log of version deltas with
    periodic checkpoints, written in the shared frame format
    ({!Fdb_wire.Wire}).

    The paper's functional design makes durability cheap: a
    {!Fdb_txn.History.t} is an immutable spine of structure-shared
    versions, so an append-only log of per-version deltas {e is} the
    database.  Layout:

    {v
      seg-000000.wal:  [base v0] [delta v1] [delta v2] ... [delta vK]
      seg-000001.wal:  [diff vK / v0] [delta vK+1] ... [delta vM]
      seg-000002.wal:  [diff vM / v0] [delta vM+1] ...
    v}

    Every segment begins with a {b checkpoint frame}, which is one of two
    kinds.  A {b base} ({!Fdb_wire.Wire.Checkpoint}) holds the version
    index it covers plus a one-version archive of that database.  A
    {b differential} ({!Fdb_wire.Wire.Differential}) holds the version
    index it covers, the version index of the newest base, and the
    key-level changes from that base's database to the covered one
    ({!Fdb_wire.Wire.write_version}) — the paper's partial reconstruction
    (§2.2): a checkpoint costs what changed since the base, not the
    database.  The rest of a segment is {b delta frames}, each carrying
    its version index and the key-level changes against the previous
    version: for each relation slot the commit replaced, a put per
    inserted or rewritten tuple and a delete per removed key.

    {b Base policy.}  A checkpoint is a base when it is the
    {!base_every}th since the newest base, or when the differential frame
    would be more than a quarter of the newest base's frame bytes;
    otherwise it is a differential.  {!create} and {!resume} always write
    a base.

    {b Retention.}  The writer holds two versions: the newest appended
    one and the newest base's, which shares every page the two did not
    rewrite (a version is immutable, so the base is a frozen generation
    that writers move past).  On disk, the newest base's segment stays
    until a newer base is synced; every other segment older than the
    newest checkpoint is deleted once that checkpoint is synced.  So a
    log holds at most two segments after a checkpoint: the base's and the
    newest differential's.

    {b Recovery} ({!val:recover}) picks the newest segment whose
    checkpoint frame is intact.  A base is decoded as it stands; a
    differential is applied to the base it names, read from the head of
    an older segment, and a differential whose base is missing or torn
    is passed over like a torn checkpoint.  Recovery then replays the
    delta suffix in order, stopping cleanly at the first torn,
    truncated, checksum-corrupt or out-of-order frame.  Frame format
    version 3 introduced the differential; a log written in an older
    format has no readable checkpoint and {!val:recover} rejects it with
    {!Fdb_wire.Wire.Corrupt}; it is never misread.

    {b Fsync discipline.}  Appends are group-buffered; {!val:sync} is the
    explicit fsync point after which every appended version is promised to
    survive a crash.  A checkpoint (a) syncs the current segment, (b)
    writes and syncs the new segment's checkpoint frame, and only then (c)
    deletes the old segments it no longer needs — so at any crash point
    some synced segment, with the base it names, still holds everything
    promised durable.  The [Wal_*] trace events are emitted {e after} the
    corresponding bytes are down, so trace order is a durability witness
    the [durability] oracle ({!Fdb_check.Trace_oracle}) can check. *)

open Fdb_relational

(** Where log bytes live.  A first-class record of closures so the
    simulator can inject an in-memory store with torn-write crash
    semantics while the CLI and bench run against real files.

    {b Ownership.}  [append file bytes] must consume [bytes] — copy them
    or write them out — before it returns, and keep no reference to them:
    a checkpoint frame reaches the store as its 10-byte header followed by
    the encoder's chunks themselves ({!Fdb_wire.Wire.write_frame}), which
    the next checkpoint rewrites in place.  A frame may arrive in several
    [append] calls; their bytes, in order, are the frame. *)
module Store : sig
  type t = {
    append : string -> string -> unit;
        (** [append file bytes] — buffered; consumes [bytes] before
            returning *)
    sync : string -> unit;  (** flush [file]; its bytes are now durable *)
    read : string -> string option;  (** whole current contents *)
    list_files : unit -> string list;
    remove : string -> unit;
    close : unit -> unit;  (** release handles (no-op for memory) *)
  }
end

(** In-memory store with explicit durability tracking: each file knows how
    many bytes were covered by the last [sync].  {!val:crash} keeps the
    synced prefix plus a {e random prefix of the unsynced suffix} — a torn
    write — which is exactly the fault model the recovery reader must
    survive.  [append] copies its bytes into the file's buffer. *)
module Mem : sig
  type t

  val create : unit -> t
  val store : t -> Store.t

  val crash : rand:Random.State.t -> t -> unit
  (** Tear every file at a random point no earlier than its synced length. *)

  val synced : t -> string -> int
  (** Bytes of [file] covered by the last sync (0 if absent). *)

  val get : t -> string -> string
  (** Current contents ("" if absent) — for doctoring in fault tests. *)

  val set : t -> string -> string -> unit
  (** Overwrite contents — for doctoring in fault tests.  The synced mark
      is clamped to the new length. *)
end

module Fs : sig
  val store : dir:string -> Store.t
  (** A directory of segment files.  [append] writes its bytes to the
      file's channel, which copies or writes them out before returning;
      [sync] flushes the channel (the strongest barrier available without
      a Unix dependency); call [close] when done. *)
end

val segment_name : int -> string
(** [segment_name 3] is ["seg-000003.wal"]. *)

val segment_number : string -> int option
(** Inverse of {!segment_name}; [None] for non-segment file names. *)

(** {1 Writing} *)

type writer

val create :
  ?sync_every:int -> ?checkpoint_every:int -> store:Store.t -> Database.t ->
  writer
(** Start a log over [store] with the given initial database: writes and
    syncs the genesis checkpoint (version 0).  [sync_every] (default 1)
    groups that many appends per automatic fsync; 0 means only explicit
    {!val:sync} calls.  [checkpoint_every] (default 0 = never) compacts
    after that many appends since the last checkpoint.
    @raise Invalid_argument on negative parameters. *)

val append : writer -> Database.t -> unit
(** Log the next committed version: encodes its key-level delta against the
    current newest version, buffers the frame, and applies the group-sync /
    checkpoint policy. *)

val sync : writer -> unit
(** Explicit fsync point: every appended version becomes durable. *)

val base_every : int
(** A checkpoint is a base at least this often (16): after
    [base_every - 1] differentials, the next checkpoint is a base. *)

val checkpoint : writer -> unit
(** Checkpoint now, as a base or a differential by the base policy above
    (see also the fsync discipline).  A differential is encoded once,
    from the base to the newest version, in time sized by the change
    since the base.  A base frame is encoded into fixed-size chunks from
    Wire's weak per-domain pool, which the next base on the domain
    rewrites, a new writer's genesis base included: a base that follows
    another allocates almost nothing, yet nothing holds its bytes against
    the GC. *)

val latest : writer -> Database.t
(** The newest appended version: the one the next {!append} diffs
    against and the state a {!checkpoint} covers. *)

val base : writer -> Database.t
(** The newest base's database, which a differential {!checkpoint} diffs
    against.  Besides it and {!latest} the writer holds no version, so
    each other one it has logged is garbage once the caller drops it (the
    log, not the writer, is the archive). *)

val appended : writer -> int
(** Newest version index written to the log (0 = just the initial
    checkpoint). *)

val durable : writer -> int
(** Newest version index covered by a sync — the crash-survival promise. *)

val segment : writer -> int
(** Current segment number. *)

(** {1 Recovery} *)

type stop_reason =
  | Clean  (** the log ended exactly at a frame boundary *)
  | Stopped of { offset : int; reason : string }
      (** replay stopped at the first torn / truncated / checksum-corrupt /
          out-of-order frame — everything before it was recovered *)

type recovery = {
  rhistory : Fdb_txn.History.t;
      (** versions [base..upto], oldest first (version 0 of [rhistory] is
          version [base] of the original log) *)
  base : int;  (** version index the chosen checkpoint covers *)
  upto : int;  (** newest recovered version index *)
  segments : int;  (** segment files present in the store *)
  stop : stop_reason;
}

val recover : Store.t -> recovery
(** Rebuild the newest durable state by checkpoint + suffix replay.  Picks
    the newest segment whose head checkpoint frame is intact (a segment
    whose checkpoint was torn mid-write is skipped — its contents were
    never promised durable), rebuilds a differential on the base it names
    (skipping the segment if that base is not intact), then replays delta
    frames in version order.
    Emits [Wal_replay] / [Wal_recovered] trace events and [wal.*] metrics.
    @raise Fdb_wire.Wire.Corrupt if no segment holds an intact checkpoint,
    or if a checksum-valid frame is structurally invalid (real corruption,
    not a torn write), including a log written in frame format 1. *)

val resume :
  ?sync_every:int -> ?checkpoint_every:int -> store:Store.t -> recovery ->
  writer
(** Continue a recovered log: writes a fresh base segment at the
    recovered state (discarding any torn tail and every older segment,
    once the base is synced) and returns a writer whose next append is
    version [upto + 1]. *)

val pp_stop : Format.formatter -> stop_reason -> unit
