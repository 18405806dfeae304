open Fdb_relational
module Ast = Fdb_query.Ast
module Merge = Fdb_merge.Merge
module Txn = Fdb_txn.Txn
module History = Fdb_txn.History
module Footprint = Fdb_repair.Footprint
module Metrics = Fdb_obs.Metrics
module Trace = Fdb_obs.Trace
module Event = Fdb_obs.Event

let m_local = Metrics.counter "shard.local_commits"
let m_bypass = Metrics.counter "shard.bypass"
let m_spine = Metrics.counter "shard.spine"
let m_conflict = Metrics.counter "shard.conflicts"
let h_epoch = Metrics.histogram "shard.epoch_len"

(* Placement must be stable across runs and processes (it is part of the
   simulated topology), so roll a tiny string hash instead of leaning on
   [Hashtbl.hash]. *)
let shard_of ~shards rel =
  if shards < 1 then invalid_arg "Shard.shard_of: shards < 1";
  let h =
    String.fold_left
      (fun h c -> ((h * 131) + Char.code c) land 0x3FFFFFFF)
      7 rel
  in
  h mod shards

let shards_of_query ~shards q =
  match
    List.sort_uniq Int.compare
      (List.map (shard_of ~shards) (Ast.relations_touched q))
  with
  | [] -> [ 0 ]
  | shs -> shs

let one_way ~schema_of ((wfp : Footprint.t), _wq) ((rfp : Footprint.t), rq) =
  match Footprint.overlap ~writer:wfp ~reader:rfp with
  | Footprint.No_overlap | Footprint.Key_disjoint -> true
  | Footprint.Overlapping -> Footprint.commutes ~schema_of wfp rq

(* Both directions: neither execution's reads may be invalidated by the
   other's writes.  Every write path reads the written key first (the
   existence check), so write-write collisions always surface as a read
   overlap in one of the directions. *)
let pair_commutes ~schema_of a b =
  one_way ~schema_of a b && one_way ~schema_of b a

type stats = {
  txns : int;
  local : int;
  bypassed : int;
  spine : int;
  conflicts : int;
  max_epoch : int;
}

let pp_stats ppf s =
  Fmt.pf ppf "txns=%d local=%d bypassed=%d spine=%d conflicts=%d max_epoch=%d"
    s.txns s.local s.bypassed s.spine s.conflicts s.max_epoch

type report = {
  shards : int;
  queries : Ast.query array;
  tags : int array;
  responses : Txn.response array;
  final : Database.t;
  shard_dbs : Database.t array;
  histories : History.t array;
  commit_log : int list array;
  local_queries : Ast.query list array;
  foreign_writes : bool array;
  versions : Database.t list;
  epochs : (int list * int option) list;
  stats : stats;
}

(* Slice the initial database: shard [s] owns exactly the relations that
   hash to it, physically sharing their slots with [initial]. *)
let slice ~shards initial =
  let names = Database.names initial in
  Array.init shards (fun s ->
      let mine = List.filter (fun r -> shard_of ~shards r = s) names in
      let schemas = List.filter_map (Database.schema_of initial) mine in
      List.fold_left
        (fun db r ->
          match Database.relation initial r with
          | Some slot -> Database.replace db r slot
          | None -> db)
        (Database.create schemas) mine)

let run_merged ~shards ~initial merged =
  if shards < 1 then invalid_arg "Shard.run_merged: shards < 1";
  let qs = Array.of_list (List.map (fun (m : _ Merge.tagged) -> m.Merge.item) merged) in
  let tags = Array.of_list (List.map (fun (m : _ Merge.tagged) -> m.Merge.tag) merged) in
  let n = Array.length qs in
  let traced = Trace.enabled () in
  let schema_of rel = Database.schema_of initial rel in
  let shard_dbs = slice ~shards initial in
  let histories = Array.map History.create shard_dbs in
  let commit_log = Array.make shards [] in
  let local_queries = Array.make shards [] in
  let foreign_writes = Array.make shards false in
  let pos = Array.make shards 0 in
  (* Per shard: everything committed there since the last global barrier,
     newest first — the open epoch the bypass analysis compares against. *)
  let windows = Array.make shards [] in
  let global = ref initial in
  let versions = ref [] in
  let responses = Array.make n (Txn.Failed "unexecuted") in
  let gsn = ref 0 in
  let epoch_members = ref [] in
  let epochs = ref [] in
  let epoch_len = ref 0 in
  let local = ref 0 and bypassed = ref 0 and spine = ref 0 in
  let conflicts = ref 0 and max_epoch = ref 0 in
  let commit_on i s =
    commit_log.(s) <- i :: commit_log.(s);
    if traced then
      Trace.emit_at ~ts:i ~site:s
        (Event.Shard_commit { shard = s; txn = i; pos = pos.(s) });
    pos.(s) <- pos.(s) + 1
  in
  let exec db q =
    let c = Footprint.collector () in
    let (resp, db') = Txn.translate ~tracker:(Footprint.tracker c) q db in
    (resp, db', Footprint.captured c)
  in
  (* Keep the assembled global view's slots in lockstep with a slice. *)
  let publish_global ~source_db rels =
    List.iter
      (fun rel ->
        match Database.relation source_db rel with
        | None -> ()
        | Some slot -> global := Database.replace !global rel slot)
      rels
  in
  (* Scatter a coordinator-built version back into the owning slices. *)
  let publish_slices ~source_db rels =
    List.iter
      (fun rel ->
        match Database.relation source_db rel with
        | None -> ()
        | Some slot ->
            let s = shard_of ~shards rel in
            shard_dbs.(s) <- Database.replace shard_dbs.(s) rel slot;
            foreign_writes.(s) <- true)
      rels
  in
  let advance_histories shs =
    List.iter
      (fun s ->
        if not (History.latest histories.(s) == shard_dbs.(s)) then
          histories.(s) <- History.append histories.(s) shard_dbs.(s))
      shs
  in
  for i = 0 to n - 1 do
    let q = qs.(i) in
    let shs = shards_of_query ~shards q in
    incr epoch_len;
    if !epoch_len > !max_epoch then max_epoch := !epoch_len;
    match shs with
    | [ s ] ->
        (* Shard-local work: the slice is the whole world.  Never touches
           the spine — this is the scale-out path. *)
        let (resp, db', fp) = exec shard_dbs.(s) q in
        responses.(i) <- resp;
        if not (db' == shard_dbs.(s)) then begin
          shard_dbs.(s) <- db';
          publish_global ~source_db:db' (List.map fst fp.Footprint.effects);
          histories.(s) <- History.append histories.(s) db';
          versions := !global :: !versions
        end;
        incr local;
        Metrics.incr m_local;
        commit_on i s;
        local_queries.(s) <- q :: local_queries.(s);
        windows.(s) <- (i, fp, q) :: windows.(s);
        epoch_members := i :: !epoch_members
    | shs ->
        (* Cross-shard: the coordinator assembles the involved slices —
           [!global]'s slots are maintained in lockstep with them. *)
        let (resp, db', fp) = exec !global q in
        responses.(i) <- resp;
        let conflict =
          List.find_map
            (fun s ->
              List.find_map
                (fun (j, wfp, wq) ->
                  if pair_commutes ~schema_of (wfp, wq) (fp, q) then None
                  else Some j)
                windows.(s))
            shs
        in
        let changed = not (db' == !global) in
        let wrote = List.map fst fp.Footprint.effects in
        (match conflict with
        | None ->
            (* Every in-epoch neighbour commutes: commit shard-locally,
               the spine never hears about it. *)
            incr bypassed;
            Metrics.incr m_bypass;
            if traced then
              Trace.emit
                (Event.Shard_bypass { txn = i; shards = List.length shs });
            if changed then begin
              global := db';
              publish_slices ~source_db:db' wrote;
              versions := !global :: !versions
            end;
            List.iter (commit_on i) shs;
            advance_histories shs;
            List.iter (fun s -> windows.(s) <- (i, fp, q) :: windows.(s)) shs;
            epoch_members := i :: !epoch_members
        | Some j ->
            (* Genuinely conflicting work rides the serial spine: a global
               sequence number, and a barrier closing the epoch on every
               shard. *)
            incr conflicts;
            Metrics.incr m_conflict;
            if traced then
              Trace.emit (Event.Shard_conflict { txn = i; against = j });
            incr spine;
            Metrics.incr m_spine;
            if traced then Trace.emit (Event.Shard_spine { txn = i; gsn = !gsn });
            incr gsn;
            if changed then begin
              global := db';
              publish_slices ~source_db:db' wrote;
              versions := !global :: !versions
            end;
            List.iter (commit_on i) shs;
            advance_histories shs;
            Array.fill windows 0 shards [];
            epochs := (List.rev !epoch_members, Some i) :: !epochs;
            epoch_members := [];
            Metrics.observe h_epoch !epoch_len;
            epoch_len := 0)
  done;
  if !epoch_members <> [] then
    epochs := (List.rev !epoch_members, None) :: !epochs;
  if !epoch_len > 0 then Metrics.observe h_epoch !epoch_len;
  {
    shards;
    queries = qs;
    tags;
    responses;
    final = !global;
    shard_dbs;
    histories;
    commit_log = Array.map List.rev commit_log;
    local_queries = Array.map List.rev local_queries;
    foreign_writes;
    versions = List.rev !versions;
    epochs = List.rev !epochs;
    stats =
      {
        txns = n;
        local = !local;
        bypassed = !bypassed;
        spine = !spine;
        conflicts = !conflicts;
        max_epoch = !max_epoch;
      };
  }

let run ?(policy = Merge.Arrival_order) ~shards ~initial streams =
  run_merged ~shards ~initial (Merge.merge policy streams)

(* The adversarial replay: within each epoch, commit shard-major (stable
   by lowest touched shard) instead of router order.  Every swapped pair
   either shares no shard or was checked by the analysis when the later
   one committed, so a sound bypass makes this schedule observationally
   identical to the original run. *)
let reorder_schedule r =
  let key i = List.hd (shards_of_query ~shards:r.shards r.queries.(i)) in
  let entry i = (i, r.tags.(i), r.queries.(i)) in
  List.concat_map
    (fun (members, closing) ->
      let sorted =
        List.stable_sort (fun a b -> Int.compare (key a) (key b)) members
      in
      List.map entry sorted
      @ match closing with Some i -> [ entry i ] | None -> [])
    r.epochs
