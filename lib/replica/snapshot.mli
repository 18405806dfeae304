(** Serialized checkpoints of the version archive.

    §3.3's "complete archives" are cheap in memory because consecutive
    versions share almost all structure.  The shared codec
    ({!Fdb_wire.Wire}) carries that property onto the wire: a
    {!Fdb_txn.History.t} is encoded as version 0 in full followed, per
    later version, by {e only its key-level changes} against its
    predecessor ({!Fdb_wire.Wire.encode_version}): a put for each inserted
    or rewritten tuple and a delete for each removed key, in the relations
    not physically shared with the version before.  An archive of
    hundreds of one-tuple commits costs barely more than one version.

    A snapshot is exactly one {!Fdb_wire.Wire.Checkpoint} frame —
    length-prefixed, CRC32c-checksummed, format-versioned — so the same
    bytes a backup receives over the network are what {!Fdb_wal} appends
    to disk.

    Decoding rebuilds the archive with the same cross-version sharing:
    each decoded version is its predecessor with its changes applied, so
    an unchanged relation is the same OCaml value in both decoded
    versions, and a changed one shares every page the change did not
    touch.

    The format assumes what {!Fdb_relational.Database} enforces: the
    relation set and schemas are fixed at version 0 and never change. *)

val encode : Fdb_txn.History.t -> string
(** Version 0 in full, later versions as key-level deltas. *)

val decode : string -> Fdb_txn.History.t
(** Inverse of {!val:encode} up to physical representation inside a
    relation (version 0's tuples are bulk-reloaded into the recorded
    backend; later versions apply their changes to it).
    Consumes exactly one frame and rejects anything left over.
    @raise Fdb_wire.Wire.Corrupt — carrying the byte offset and reason —
    on a corrupt, truncated or trailing-garbage snapshot. *)
