module Store = Fdb_wal.Wal.Store

type counts = {
  mutable bytes : int;
  mutable syncs : int;
  mutable sync_ns : int;
}

let reset c =
  c.bytes <- 0;
  c.syncs <- 0;
  c.sync_ns <- 0

let wrap ~clock (s : Store.t) =
  let c = { bytes = 0; syncs = 0; sync_ns = 0 } in
  let store =
    {
      s with
      Store.append =
        (fun file bytes ->
          c.bytes <- c.bytes + String.length bytes;
          s.Store.append file bytes);
      sync =
        (fun file ->
          let t0 = clock () in
          s.Store.sync file;
          c.sync_ns <- c.sync_ns + (clock () - t0);
          c.syncs <- c.syncs + 1);
    }
  in
  (store, c)
