open Fdb_relational
module Txn = Fdb_txn.Txn
module History = Fdb_txn.History
module Pool = Fdb_par.Pool
module Metrics = Fdb_obs.Metrics
module Trace = Fdb_obs.Trace
module Event = Fdb_obs.Event

let m_spec = Metrics.counter "repair.spec_execs"
let m_hits = Metrics.counter "repair.spec_hits"
let m_redo = Metrics.counter "repair.reexecs"
let m_rounds = Metrics.counter "repair.rounds"
let m_disjoint = Metrics.counter "repair.bypass.disjoint"
let m_commute = Metrics.counter "repair.bypass.commute"
let m_adopt = Metrics.counter "repair.adopted_slots"
let h_rounds = Metrics.histogram "repair.rounds_per_batch"

type stats = {
  txns : int;
  rounds : int;
  spec_hits : int;
  reexecs : int;
  bypass_disjoint : int;
  bypass_commute : int;
  adopted_slots : int;
}

let zero_stats =
  {
    txns = 0;
    rounds = 0;
    spec_hits = 0;
    reexecs = 0;
    bypass_disjoint = 0;
    bypass_commute = 0;
    adopted_slots = 0;
  }

let add_stats a b =
  {
    txns = a.txns + b.txns;
    rounds = a.rounds + b.rounds;
    spec_hits = a.spec_hits + b.spec_hits;
    reexecs = a.reexecs + b.reexecs;
    bypass_disjoint = a.bypass_disjoint + b.bypass_disjoint;
    bypass_commute = a.bypass_commute + b.bypass_commute;
    adopted_slots = a.adopted_slots + b.adopted_slots;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "txns=%d rounds=%d spec_hits=%d reexecs=%d bypass=%d+%d adopted=%d" s.txns
    s.rounds s.spec_hits s.reexecs s.bypass_disjoint s.bypass_commute
    s.adopted_slots

type report = {
  responses : Txn.response list;
  history : History.t;
  final : Database.t;
  stats : stats;
}

(* One transaction's latest (speculative or repaired) execution. *)
type exec_result = {
  resp : Txn.response;
  db_after : Database.t;
  fp : Footprint.t;
  base_db : Database.t;  (** the version it executed against *)
  base : int;  (** how many batch predecessors that version finalises *)
  round : int;
}

module Ix = Fdb_index.Index

let exec_tracked ?index query db =
  let c = Footprint.collector () in
  let tracker = Footprint.tracker c in
  (* Speculative executions read the session's indexes (whose store tracks
     the committed prefix — exactly each round's base version) but never
     mutate them: maintenance happens once, at the serial commit point
     below. *)
  let index = Option.map (Ix.Session.use ~maintain:false) index in
  let (resp, db') = Txn.translate ~tracker ?index query db in
  (resp, db', Footprint.captured c)

let run_batch ?pool ?domains ?index ?(batch_id = 0) db0 queries =
  let go pool =
    let qs = Array.of_list queries in
    let n = Array.length qs in
    let schema_of rel = Database.schema_of db0 rel in
    let traced = Trace.enabled () in
    if traced then Trace.emit (Event.Repair_batch { batch = batch_id; size = n });
    let results = Array.make n None in
    let get j =
      match results.(j) with Some r -> r | None -> assert false
    in
    let reexecs = ref 0 in
    let execute ~round ~base ~base_db idxs =
      List.iter
        (fun j ->
          if round = 0 then Metrics.incr m_spec
          else begin
            incr reexecs;
            Metrics.incr m_redo
          end;
          if traced then
            Trace.emit
              (if round = 0 then Event.Repair_spec { batch = batch_id; txn = j }
               else Event.Repair_redo { batch = batch_id; txn = j; round });
          let run () =
            let (resp, db_after, fp) = exec_tracked ?index qs.(j) base_db in
            results.(j) <- Some { resp; db_after; fp; base_db; base; round }
          in
          (* The trace sink is a plain closure — not domain-safe — so traced
             runs execute inline on the coordinator. *)
          if traced then run () else Pool.submit pool ~site:j run)
        idxs;
      if not traced then Pool.wait pool
    in
    execute ~round:0 ~base:0 ~base_db:db0 (List.init n Fun.id);
    (* Conflict test: does earlier transaction [i]'s current publication
       invalidate later transaction [j]'s recorded reads? *)
    let disjoint = ref 0 and commute = ref 0 in
    let damages i j =
      match Footprint.overlap ~writer:(get i).fp ~reader:(get j).fp with
      | Footprint.No_overlap -> false
      | Footprint.Key_disjoint ->
          incr disjoint;
          Metrics.incr m_disjoint;
          false
      | Footprint.Overlapping ->
          if Footprint.commutes ~schema_of (get i).fp qs.(j) then begin
            incr commute;
            Metrics.incr m_commute;
            false
          end
          else true
    in
    let versions = Array.make n db0 in
    let current = ref db0 in
    let committed = ref 0 in
    let rounds = ref 0 in
    let spec_hits = ref 0 in
    let adopted = ref 0 in
    (* Replay [r]'s publication onto the running version.  When a touched
       relation slot is physically unchanged since [r]'s base version, the
       speculatively built slot *is* the serial result — adopt it O(1)
       instead of replaying tuple by tuple. *)
    let apply_effects v (r : exec_result) =
      List.fold_left
        (fun v (rel, (removed, added)) ->
          if
            Database.shares_relation ~old:r.base_db v rel
            && Option.is_some (Database.relation r.db_after rel)
          then begin
            incr adopted;
            Metrics.incr m_adopt;
            match Database.relation r.db_after rel with
            | Some slot -> Database.replace v rel slot
            | None -> v
          end
          else
            let v =
              List.fold_left
                (fun v t ->
                  match Database.delete v ~rel ~key:(Tuple.key t) with
                  | Ok (v', _) -> v'
                  | Error _ -> v)
                v removed
            in
            List.fold_left
              (fun v t ->
                match Database.insert v ~rel t with
                | Ok (v', _) -> v'
                | Error _ -> v)
              v added)
        v r.fp.Footprint.effects
    in
    let commit j =
      let r = get j in
      let v' = apply_effects !current r in
      versions.(j) <- v';
      current := v';
      (* Indexes advance at the serial commit point, in batch order, from
         the same effect list just replayed onto the base — so every index
         of a relation sees the same base size, in lockstep. *)
      (match index with
      | Some session -> Ix.Session.apply_effects session v' r.fp.Footprint.effects
      | None -> ());
      if r.round = 0 then begin
        incr spec_hits;
        Metrics.incr m_hits
      end;
      if traced then
        Trace.emit
          (Event.Repair_commit { batch = batch_id; txn = j; round = r.round })
    in
    let rec fix () =
      let damaged = ref [] in
      for j = n - 1 downto !committed do
        let b = (get j).base in
        let rec scan i = i < j && (damages i j || scan (i + 1)) in
        if scan (max b !committed) then damaged := j :: !damaged
      done;
      match !damaged with
      | [] -> for j = !committed to n - 1 do commit j done
      | m :: _ as ds ->
          incr rounds;
          Metrics.incr m_rounds;
          if traced then
            Trace.emit
              (Event.Repair_round
                 { batch = batch_id; round = !rounds; damaged = List.length ds });
          (* Everything before the first damaged transaction is final: its
             validity was checked against every (now final) predecessor. *)
          for j = !committed to m - 1 do commit j done;
          committed := m;
          execute ~round:!rounds ~base:m ~base_db:!current ds;
          fix ()
    in
    fix ();
    Metrics.observe h_rounds !rounds;
    let history =
      History.of_versions (List.rev (db0 :: Array.to_list versions))
    in
    {
      responses = List.init n (fun j -> (get j).resp);
      history;
      final = !current;
      stats =
        {
          txns = n;
          rounds = !rounds;
          spec_hits = !spec_hits;
          reexecs = !reexecs;
          bypass_disjoint = !disjoint;
          bypass_commute = !commute;
          adopted_slots = !adopted;
        };
    }
  in
  match pool with Some p -> go p | None -> Pool.with_pool ?domains go

let chunks k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n + 1 >= k then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs
