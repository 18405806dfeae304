(** The shared codec: one frame format for network and disk.

    {!Fdb_replica} ships version archives over the network and {!Fdb_wal}
    appends them to disk; both speak this format.  A {e frame} is a
    length-prefixed, CRC32c-checksummed record with a format version byte:

    {v
      +--------+-----+------+--------+===========+
      | len    | ver | kind | crc32c | payload   |
      | 4B LE  | 1B  | 1B   | 4B LE  | len bytes |
      +--------+-----+------+--------+===========+
    v}

    The checksum covers the version byte, the kind byte and the payload, so
    a bit flip anywhere past the length prefix is detected.  {!read_frame}
    never raises on torn input: a truncated header, short payload, unknown
    version/kind or checksum mismatch comes back as {!Torn}, which is what
    lets a log reader stop cleanly at the first damaged record instead of
    crashing.  Structural corruption {e inside} a checksum-valid payload —
    which a torn write cannot produce — raises {!Corrupt}.

    The version byte is 3.  Frames of an older version read as {!Torn}, so
    an old log is rejected, never misread: version 1 delta payloads carried
    whole relation bodies, and a version 2 reader, which knew no
    {!Differential} frames, would have skipped a differential segment head
    and recovered an older prefix.

    There is one relation codec: a single-version delta against a known
    predecessor (the WAL record), which carries only the key-level changes
    of the relations the version replaced, and an archive of a whole
    {!Fdb_txn.History.t}, which is version 0 in full followed by one such
    delta per later version. *)

open Fdb_relational

exception Corrupt of { offset : int; reason : string }
(** Structurally invalid input.  [offset] is the byte position in the
    string handed to the decoder where decoding failed. *)

val crc32c : string -> int32
(** CRC32c (Castagnoli) of the whole string; the frame checksum. *)

val crc32c_sub : ?table:bool -> string -> pos:int -> len:int -> int32
(** CRC32c of the [len] bytes of the string from [pos].  With [~table:true]
    it always takes the slicing-by-8 table loop, the fallback for hosts
    without SSE4.2, so the two paths can be checked against each other.
    @raise Invalid_argument if the range is not inside the string. *)

(** {1 Frames} *)

type kind =
  | Checkpoint  (** a segment head holding a database in full: a base *)
  | Differential
      (** a segment head holding the key-level changes since a base *)
  | Delta  (** one version's key-level changes against its predecessor *)

val frame : kind:kind -> string -> string
(** Wrap a payload in a framed record as diagrammed above. *)

val frame_overhead : int
(** Header bytes per frame (10). *)

type frame_result =
  | Frame of { kind : kind; payload : string; next : int }
      (** a whole, checksum-valid frame; [next] is the offset just past it *)
  | End_of_input  (** [pos] is exactly the end of the input — a clean end *)
  | Torn of { offset : int; reason : string }
      (** truncated, checksum-corrupt or unrecognized — never raises *)

val read_frame : string -> pos:int -> frame_result

val header_kind : string -> kind option
(** The kind of the frame whose header starts the string, if it holds a
    whole header of the current format version — for a store that must
    tell which frame an append begins. *)

(** {1 Encoding}

    Every payload is written by one encoder straight into fixed-size
    chunks of {!chunk_size} bytes: one capacity check per tuple, a small
    staging area for a value that crosses a chunk end, and a string
    longer than a chunk spread over as many chunks as it needs.  A frame's
    CRC32c is fed each chunk as it fills.  The chunks come from a
    per-domain pool that holds them weakly: the next payload encoded on
    the same domain rewrites them unless the GC has reclaimed them in
    between, so a megabyte checkpoint taken again and again allocates
    almost nothing, yet the pool keeps no frame's bytes alive. *)

type encoder
(** A payload being written. *)

val chunk_size : int
(** Bytes per chunk (65536). *)

val write_frame : kind:kind -> (encoder -> unit) -> (string -> unit) -> int
(** [write_frame ~kind write emit] is [emit (frame ~kind payload)] for the
    [payload] that [write] encodes, with no copy of the payload taken: a
    frame that fits one chunk reaches [emit] as one string, a longer one
    as its header, then each full chunk, then the partly filled last one,
    which is the only part copied.  Returns the frame's length.

    {b Ownership.}  A string handed to [emit] is valid only until [emit]
    returns: its bytes are pool chunks that a later payload rewrites.
    [emit] must consume (copy or write out) it before returning.  [write]
    and [emit] may themselves encode: a nested encoder takes fresh
    chunks. *)

val encode : (encoder -> unit) -> string
(** [encode write] is the payload [write] encodes, as one string. *)

val write_int : encoder -> int -> unit
(** The digits of [string_of_int n] then [';'], written with no
    intermediate allocation: the self-delimiting integer encoding the
    payload codecs use, exposed so layered formats (the WAL's version
    index ahead of each payload) stay in one codec. *)

(** {1 Archive payloads}

    {v
      archive := "FDBSNAP1" nversions ';' nrelations ';' (schema backend)*
                 body* delta*
      body    := ntuples ';' tuple*
    v}

    The header and version 0's relation bodies are followed by one
    {!encode_version} delta per later version, against the version before
    it.

    Multi-version archives only travel between replica nodes of one
    process; the only archive ever persisted is the WAL checkpoint's
    one-version archive, which has no deltas, so its bytes are those the
    earlier whole-relation layout wrote.  That is why the magic stays
    ["FDBSNAP1"] (the frame version byte moved to 3 only for the
    {!Differential} frame kind).  An archive of
    two or more versions in the earlier layout (each later version's
    changed relations as whole bodies) raises {!Corrupt} where a delta's
    first change tag is expected; only a re-sent body of an empty relation
    reads as a well-formed delta. *)

val encode_archive : Fdb_txn.History.t -> string
(** Version 0 in full, then each later version as its key-level delta
    against its predecessor. *)

val write_archive : encoder -> Fdb_txn.History.t -> unit
(** {!encode_archive} written into an encoder. *)

val decode_archive : string -> Fdb_txn.History.t
(** Inverse of {!encode_archive}, up to physical representation inside a
    relation: version 0's tuples are bulk-reloaded into the recorded
    backends, and each later version is its predecessor with its delta
    applied ({!decode_version_sub}), so consecutive decoded versions share
    every slot and page the delta leaves untouched.  Must consume the
    whole string.
    @raise Corrupt on invalid input or trailing bytes. *)

val decode_archive_sub : string -> pos:int -> Fdb_txn.History.t * int
(** [decode_archive_sub s ~pos] decodes one archive starting at [pos] and
    returns it with the offset just past the bytes it consumed — for
    embedding an archive inside a larger payload.
    @raise Corrupt on invalid input. *)

(** {1 Single-version deltas} *)

val encode_version : prev:Database.t -> Database.t -> string
(** The WAL record for one committed version: for each slot of [next] not
    physically shared with [prev] ({!Fdb_relational.Database.changed_slots}),
    its index and its key-level changes ({!Fdb_relational.Relation.diff}):
    a put of each inserted or rewritten tuple and a delete of each removed
    key, in key order.  A one-tuple update costs a few dozen bytes however
    large its relation.  [prev] and [next] must have the same relation set
    (the invariant {!Database} enforces).

    {v
      delta  := nslots ';' slot*
      slot   := index ';' nchanges ';' change*
      change := 'P' tuple | 'D' key-value
    v} *)

val write_version : encoder -> prev:Database.t -> Database.t -> unit
(** {!encode_version} written into an encoder. *)

val decode_version_sub :
  prev:Database.t -> string -> pos:int -> Database.t * int
(** Apply an encoded delta's key changes to [prev]
    ({!Fdb_relational.Relation.apply_diff}), returning the reconstructed
    version and the offset just past the bytes consumed.  Unchanged slots
    are physically shared with [prev]; a changed slot keeps [prev]'s
    backend.
    @raise Corrupt on invalid input. *)

val decode_version : prev:Database.t -> string -> Database.t
(** {!decode_version_sub} over the whole string.
    @raise Corrupt on invalid input or trailing bytes. *)

val delta_key_changes : string -> pos:int -> (int * int) list
(** [(slot index, key changes)] for each slot of the delta encoded at
    [pos], read without a base version — for inspecting a log.
    @raise Corrupt on invalid input. *)

(** {1 Integers} *)

val read_int : string -> pos:int -> int * int
(** [read_int s ~pos] is [(n, next)], the inverse of {!write_int}.
    @raise Corrupt on a malformed or unterminated integer. *)
