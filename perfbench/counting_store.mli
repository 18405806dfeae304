(** A {!Fdb_wal.Wal.Store.t} wrapper that counts what the log writes.

    The bytes left on disk at exit undercount the log's write volume,
    because every checkpoint deletes the segments it supersedes; counting
    at the store boundary sees every byte appended, checkpoints included,
    and every flush the writer asks for. *)

type counts = {
  mutable bytes : int;  (** bytes handed to [append] *)
  mutable syncs : int;  (** [sync] calls *)
  mutable sync_ns : int;  (** time inside [sync] *)
}

val wrap : clock:(unit -> int) -> Fdb_wal.Wal.Store.t -> Fdb_wal.Wal.Store.t * counts
(** [wrap ~clock store] forwards every call to [store] and counts it;
    [clock] is a nanosecond clock for the time spent in [sync]. *)

val reset : counts -> unit
