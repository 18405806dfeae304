open Fdb_relational
module Ast = Fdb_query.Ast
module Pred = Fdb_query.Pred
module Plan = Fdb_query.Plan

(* Plan-path hit rates: which access path the planner chose, per analyzed
   query.  Counters are always on; the event is traced only when a sink is
   installed. *)
let m_point = Fdb_obs.Metrics.counter "plan.path.point"
let m_range = Fdb_obs.Metrics.counter "plan.path.range"
let m_full = Fdb_obs.Metrics.counter "plan.path.full"

(* Aggregates answered at a range endpoint rather than by a fold
   ([key_endpoint]); each is also counted under its path above. *)
let m_endpoint = Fdb_obs.Metrics.counter "plan.path.endpoint"

let note_plan rel (plan : Plan.t) =
  (match plan.Plan.path with
  | Plan.Point_lookup _ -> Fdb_obs.Metrics.incr m_point
  | Plan.Range_scan _ -> Fdb_obs.Metrics.incr m_range
  | Plan.Full_scan -> Fdb_obs.Metrics.incr m_full);
  if Fdb_obs.Trace.enabled () then
    Fdb_obs.Trace.emit
      (Fdb_obs.Event.Plan_chosen { rel; path = Plan.to_string plan });
  plan

(* Indexed-planner decision counters.  [plan.scan_fallback] counts only the
   analyses made {e with a catalog in force} that still ended in a full
   scan — the miss rate of the catalog, not of the planner at large. *)
let m_ixprobe = Fdb_obs.Metrics.counter "plan.index_probe"
let m_ixonly = Fdb_obs.Metrics.counter "plan.index_only"
let m_ixagg = Fdb_obs.Metrics.counter "plan.index_aggregate"
let m_fallback = Fdb_obs.Metrics.counter "plan.scan_fallback"

let note_iplan rel (ip : Plan.iplan) =
  (match ip.Plan.ipath with
  | Plan.Primary (Plan.Point_lookup _) -> Fdb_obs.Metrics.incr m_point
  | Plan.Primary (Plan.Range_scan _) -> Fdb_obs.Metrics.incr m_range
  | Plan.Primary Plan.Full_scan ->
      Fdb_obs.Metrics.incr m_full;
      Fdb_obs.Metrics.incr m_fallback
  | Plan.Index_scan { only = true; _ } -> Fdb_obs.Metrics.incr m_ixonly
  | Plan.Index_scan { only = false; _ } -> Fdb_obs.Metrics.incr m_ixprobe
  | Plan.Index_group _ -> Fdb_obs.Metrics.incr m_ixagg);
  if Fdb_obs.Trace.enabled () then begin
    Fdb_obs.Trace.emit
      (Fdb_obs.Event.Plan_chosen { rel; path = Plan.iplan_to_string ip });
    match ip.Plan.ipath with
    | Plan.Primary _ -> ()
    | Plan.Index_scan { ix; _ } | Plan.Index_group { ix; _ } ->
        Fdb_obs.Trace.emit
          (Fdb_obs.Event.Index_probe
             {
               rel;
               index = ix.Plan.ix_name;
               kind = Plan.index_kind_name ix.Plan.ix_kind;
             })
  end;
  ip

module Ix = Fdb_index.Index
module Parser = Fdb_query.Parser

type response =
  | Inserted of bool
  | Found of Tuple.t option
  | Deleted of bool
  | Selected of Tuple.t list
  | Counted of int
  | Aggregated of Value.t option
  | Updated of int
  | Joined of Tuple.t list
  | Failed of string

let response_equal a b =
  match (a, b) with
  | (Inserted x, Inserted y) -> x = y
  | (Found x, Found y) -> Option.equal Tuple.equal x y
  | (Deleted x, Deleted y) -> x = y
  | (Selected x, Selected y) -> List.equal Tuple.equal x y
  | (Counted x, Counted y) -> x = y
  | (Aggregated x, Aggregated y) -> Option.equal Value.equal x y
  | (Updated x, Updated y) -> x = y
  | (Joined x, Joined y) -> List.equal Tuple.equal x y
  | (Failed x, Failed y) -> String.equal x y
  | ( ( Inserted _ | Found _ | Deleted _ | Selected _ | Counted _
      | Aggregated _ | Updated _ | Joined _ | Failed _ ),
      _ ) ->
      false

let pp_tuples ppf ts =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       Tuple.pp)
    ts

let pp_response ppf = function
  | Inserted b -> Format.fprintf ppf "inserted %b" b
  | Found None -> Format.fprintf ppf "found nothing"
  | Found (Some t) -> Format.fprintf ppf "found %a" Tuple.pp t
  | Deleted b -> Format.fprintf ppf "deleted %b" b
  | Selected ts -> Format.fprintf ppf "selected %a" pp_tuples ts
  | Counted n -> Format.fprintf ppf "counted %d" n
  | Aggregated None -> Format.fprintf ppf "aggregated nothing"
  | Aggregated (Some v) -> Format.fprintf ppf "aggregated %a" Value.pp v
  | Updated n -> Format.fprintf ppf "updated %d" n
  | Joined ts -> Format.fprintf ppf "joined %a" pp_tuples ts
  | Failed msg -> Format.fprintf ppf "failed: %s" msg

type t = Database.t -> response * Database.t

let fail db msg = (Failed msg, db)

let with_relation db rel k =
  match Database.relation db rel with
  | None -> fail db (Printf.sprintf "unknown relation %s" rel)
  | Some r -> k r

let resolve_columns schema cols =
  let rec go = function
    | [] -> Ok []
    | c :: rest -> (
        match Schema.column_index schema c with
        | None ->
            Error
              (Printf.sprintf "relation %s has no column %s"
                 (Schema.name schema) c)
        | Some i -> Result.map (fun is -> i :: is) (go rest))
  in
  go cols

let rel_bound = function
  | None -> None
  | Some { Plan.value; inclusive } ->
      Some
        (if inclusive then Relation.Inclusive value
         else Relation.Exclusive value)

(* Drive [step] over the tuples reachable through [plan]'s access path.
   Checking the residual predicate is the caller's responsibility; the
   absorbed key atoms are enforced by the path itself. *)
let fold_path r plan step acc =
  match plan.Plan.path with
  | Plan.Point_lookup key -> (
      match Relation.find_key r key with
      | Some tup -> step acc tup
      | None -> acc)
  | Plan.Range_scan { lo; hi } ->
      Relation.range_fold ?lo:(rel_bound lo) ?hi:(rel_bound hi) step acc r
  | Plan.Full_scan -> Relation.fold step acc r

(* MIN/MAX of the key column over a path that enforces the whole [where]
   (no residual) is the key of the range's first or last tuple: [Some
   found] for that tuple, [None] when the aggregate must fold.  The caller
   still records the whole range as read, because a write anywhere in it
   can change the answer. *)
let key_endpoint r agg col (plan : Plan.t) =
  let bounds =
    match plan.Plan.path with
    | Plan.Range_scan { lo; hi } -> Some (rel_bound lo, rel_bound hi)
    | Plan.Full_scan -> Some (None, None)
    | Plan.Point_lookup _ -> None
  in
  match
    (agg, plan.Plan.residual, bounds,
     Schema.column_index (Relation.schema r) col)
  with
  | (Ast.Min, Ast.True, Some (lo, hi), Some 0) ->
      Some (Relation.range_first ?lo ?hi r)
  | (Ast.Max, Ast.True, Some (lo, hi), Some 0) ->
      Some (Relation.range_last ?lo ?hi r)
  | _ -> None

type tracker = {
  read_key : rel:string -> Value.t -> unit;
  read_range :
    rel:string -> lo:Relation.bound option -> hi:Relation.bound option -> unit;
  read_all : rel:string -> unit;
  write : rel:string -> removed:Tuple.t list -> added:Tuple.t list -> unit;
}

(* Footprint recording is strictly observational: every tracker call below
   sits on a path the untracked transaction takes too, so the tracked and
   untracked transactions compute identical (response, database) pairs.
   [Failed] outcomes record nothing — a failed transaction's response is
   database-independent, so no concurrent write can damage it. *)
let translate ?tracker:tk ?index query : t =
  let read_key rel key =
    match tk with Some t -> t.read_key ~rel key | None -> ()
  in
  let read_all rel = match tk with Some t -> t.read_all ~rel | None -> () in
  (* The catalog (which indexes exist) is fixed at translate time; the
     store (their current contents) is read at execution time, because
     [run_queries] translates a whole stream upfront and the indexes
     advance with every write in between. *)
  let ix_descs rel =
    match index with
    | Some u -> Ix.Session.descs_for u.Ix.Session.session rel
    | None -> []
  in
  let ix_find name =
    match index with
    | None -> None
    | Some u -> Ix.Store.find (Ix.Session.store u.Ix.Session.session) name
  in
  let ix_maintains =
    match index with Some u -> u.Ix.Session.maintain | None -> false
  in
  let ix_write rel db' ~removed ~added =
    match index with
    | Some u when removed <> [] || added <> [] ->
        let base =
          match Database.relation db' rel with
          | Some r -> Relation.size r
          | None -> 0
        in
        Ix.Session.on_write u ~rel ~base ~removed ~added
    | Some _ | None -> ()
  in
  let read_path rel (plan : Plan.t) =
    match tk with
    | None -> ()
    | Some t -> (
        match plan.Plan.path with
        | Plan.Point_lookup key -> t.read_key ~rel key
        | Plan.Range_scan { lo; hi } ->
            t.read_range ~rel ~lo:(rel_bound lo) ~hi:(rel_bound hi)
        | Plan.Full_scan -> t.read_all ~rel)
  in
  let wrote rel ~removed ~added =
    match tk with Some t -> t.write ~rel ~removed ~added | None -> ()
  in
  match query with
  | Ast.Insert { rel; values } ->
      let tuple = Tuple.make values in
      fun db -> (
        match Database.insert db ~rel tuple with
        | Ok (db', added) ->
            (* An insert reads exactly one key: its own (to detect the
               duplicate); it writes the tuple only when actually added. *)
            read_key rel (Tuple.key tuple);
            if added then begin
              wrote rel ~removed:[] ~added:[ tuple ];
              ix_write rel db' ~removed:[] ~added:[ tuple ]
            end;
            (Inserted added, db')
        | Error e -> fail db e)
  | Ast.Find { rel; key } ->
      fun db -> (
        match Database.find db ~rel ~key with
        | Ok t ->
            read_key rel key;
            (Found t, db)
        | Error e -> fail db e)
  | Ast.Delete { rel; key } ->
      fun db -> (
        match Database.delete db ~rel ~key with
        | Ok (db', found) ->
            read_key rel key;
            (if found && (Option.is_some tk || ix_maintains) then
               (* [Database.delete] does not return the removed tuple; fetch
                  it from the pre-delete version for the effect record. *)
               match Database.find db ~rel ~key with
               | Ok (Some t) ->
                   wrote rel ~removed:[ t ] ~added:[];
                   ix_write rel db' ~removed:[ t ] ~added:[]
               | Ok None | Error _ -> ());
            (Deleted found, db')
        | Error e -> fail db e)
  | Ast.Select { rel; cols; where } ->
      fun db ->
        with_relation db rel (fun r ->
            let schema = Relation.schema r in
            (* Compiling only the residual is sound: absorbed atoms mention
               the key column alone, which every schema has. *)
            let run_plan plan =
              match Pred.compile schema plan.Plan.residual with
              | Error e -> fail db e
              | Ok residual -> (
                  let project =
                    match cols with
                    | None -> Ok None
                    | Some cs ->
                        Result.map Option.some (resolve_columns schema cs)
                  in
                  match project with
                  | Error e -> fail db e
                  | Ok idxs ->
                      read_path rel plan;
                      let emit =
                        match idxs with
                        | None -> fun acc tup -> tup :: acc
                        | Some is ->
                            fun acc tup ->
                              Array.of_list (List.map (Tuple.get tup) is)
                              :: acc
                      in
                      let step acc tup =
                        if residual tup then emit acc tup else acc
                      in
                      (Selected (List.rev (fold_path r plan step [])), db))
            in
            match ix_descs rel with
            | [] -> run_plan (note_plan rel (Plan.analyze schema where))
            | descs -> (
                let wanted =
                  match cols with
                  | None -> Plan.Want_all
                  | Some cs -> Plan.Want_cols cs
                in
                let ip =
                  note_iplan rel
                    (Plan.analyze_indexed schema ~indexes:descs ~wanted where)
                in
                match ip.Plan.ipath with
                | Plan.Primary path ->
                    run_plan { Plan.path; residual = ip.Plan.iresidual }
                | Plan.Index_group _ ->
                    fail db "select cannot use a derived index"
                | Plan.Index_scan { ix; ilo; ihi; only } -> (
                    match ix_find ix.Plan.ix_name with
                    | None ->
                        fail db
                          (Printf.sprintf "index %s is not built"
                             ix.Plan.ix_name)
                    | Some built when only -> (
                        (* Index-only: residual and projection both resolve
                           against the stored payload; results are re-sorted
                           into base key order, which range probes (ordered
                           by indexed value) do not deliver. *)
                        let ischema = Ix.stored_schema built in
                        match Pred.compile ischema ip.Plan.iresidual with
                        | Error e -> fail db e
                        | Ok residual -> (
                            let out_cols =
                              match cols with
                              | Some cs -> cs
                              | None ->
                                  List.map fst (Schema.columns schema)
                            in
                            match resolve_columns ischema out_cols with
                            | Error e -> fail db e
                            | Ok is ->
                                read_all rel;
                                let hits =
                                  Ix.probe_fold built ~ilo ~ihi
                                    (fun acc pk payload ->
                                      if residual payload then
                                        ( pk,
                                          Array.of_list
                                            (List.map (Tuple.get payload) is)
                                        )
                                        :: acc
                                      else acc)
                                    []
                                in
                                let sorted =
                                  List.sort
                                    (fun (a, _) (b, _) -> Value.compare a b)
                                    hits
                                in
                                (Selected (List.map snd sorted), db)))
                    | Some built -> (
                        (* Probe-then-fetch: entries give primary keys; the
                           base tuple carries the residual columns and the
                           projection. *)
                        match Pred.compile schema ip.Plan.iresidual with
                        | Error e -> fail db e
                        | Ok residual -> (
                            let project =
                              match cols with
                              | None -> Ok None
                              | Some cs ->
                                  Result.map Option.some
                                    (resolve_columns schema cs)
                            in
                            match project with
                            | Error e -> fail db e
                            | Ok idxs ->
                                read_all rel;
                                let emit tup =
                                  match idxs with
                                  | None -> tup
                                  | Some is ->
                                      Array.of_list
                                        (List.map (Tuple.get tup) is)
                                in
                                let hits =
                                  Ix.probe_fold built ~ilo ~ihi
                                    (fun acc pk _ ->
                                      match Relation.find_key r pk with
                                      | Some tup when residual tup ->
                                          (pk, emit tup) :: acc
                                      | Some _ | None -> acc)
                                    []
                                in
                                let sorted =
                                  List.sort
                                    (fun (a, _) (b, _) -> Value.compare a b)
                                    hits
                                in
                                (Selected (List.map snd sorted), db))))))
  | Ast.Count { rel; where } -> (
      match where with
      | Ast.True ->
          fun db ->
            with_relation db rel (fun r ->
                read_all rel;
                (Counted (Relation.size r), db))
      | _ ->
          fun db ->
            with_relation db rel (fun r ->
                let schema = Relation.schema r in
                let run_plan plan =
                  match Pred.compile schema plan.Plan.residual with
                  | Error e -> fail db e
                  | Ok residual ->
                      read_path rel plan;
                      let step acc tup =
                        if residual tup then acc + 1 else acc
                      in
                      (Counted (fold_path r plan step 0), db)
                in
                match ix_descs rel with
                | [] -> run_plan (note_plan rel (Plan.analyze schema where))
                | descs -> (
                    match
                      Plan.analyze_group schema ~indexes:descs ~target:`Count
                        where
                    with
                    | Some ({ Plan.ipath = Plan.Index_group { ix; group }; _ }
                            as ip) -> (
                        match ix_find ix.Plan.ix_name with
                        | None ->
                            fail db
                              (Printf.sprintf "index %s is not built"
                                 ix.Plan.ix_name)
                        | Some built ->
                            ignore (note_iplan rel ip);
                            read_all rel;
                            let n =
                              match Ix.group_lookup built group with
                              | Some stats -> stats.Ix.g_count
                              | None -> 0
                            in
                            (Counted n, db))
                    | Some _ | None -> (
                        let ip =
                          note_iplan rel
                            (Plan.analyze_indexed schema ~indexes:descs
                               ~wanted:(Plan.Want_cols []) where)
                        in
                        match ip.Plan.ipath with
                        | Plan.Primary path ->
                            run_plan
                              { Plan.path; residual = ip.Plan.iresidual }
                        | Plan.Index_group _ ->
                            fail db "count cannot use a derived index here"
                        | Plan.Index_scan { ix; ilo; ihi; only } -> (
                            match ix_find ix.Plan.ix_name with
                            | None ->
                                fail db
                                  (Printf.sprintf "index %s is not built"
                                     ix.Plan.ix_name)
                            | Some built when only -> (
                                match
                                  Pred.compile (Ix.stored_schema built)
                                    ip.Plan.iresidual
                                with
                                | Error e -> fail db e
                                | Ok residual ->
                                    read_all rel;
                                    let n =
                                      Ix.probe_fold built ~ilo ~ihi
                                        (fun acc _ payload ->
                                          if residual payload then acc + 1
                                          else acc)
                                        0
                                    in
                                    (Counted n, db))
                            | Some built -> (
                                match
                                  Pred.compile schema ip.Plan.iresidual
                                with
                                | Error e -> fail db e
                                | Ok residual ->
                                    read_all rel;
                                    let n =
                                      Ix.probe_fold built ~ilo ~ihi
                                        (fun acc pk _ ->
                                          match Relation.find_key r pk with
                                          | Some tup when residual tup ->
                                              acc + 1
                                          | Some _ | None -> acc)
                                        0
                                    in
                                    (Counted n, db)))))))
  | Ast.Aggregate { agg; rel; col; where } ->
      fun db ->
        with_relation db rel (fun r ->
            let schema = Relation.schema r in
            match Pred.compile_aggregate schema agg col where with
            | Error e -> fail db e
            | Ok (step, finish) -> (
                (* [step] tests the full [where] itself; the access path only
                   narrows which tuples are offered to it. *)
                let run_plan plan =
                  read_path rel plan;
                  let acc =
                    match key_endpoint r agg col plan with
                    | Some found ->
                        Fdb_obs.Metrics.incr m_endpoint;
                        Option.bind found (step None)
                    | None -> fold_path r plan step None
                  in
                  (Aggregated (finish acc), db)
                in
                match ix_descs rel with
                | [] -> run_plan (note_plan rel (Plan.analyze schema where))
                | descs -> (
                    match
                      Plan.analyze_group schema ~indexes:descs
                        ~target:(`Agg (agg, col)) where
                    with
                    | Some ({ Plan.ipath = Plan.Index_group { ix; group }; _ }
                            as ip) -> (
                        match ix_find ix.Plan.ix_name with
                        | None ->
                            fail db
                              (Printf.sprintf "index %s is not built"
                                 ix.Plan.ix_name)
                        | Some built ->
                            ignore (note_iplan rel ip);
                            read_all rel;
                            let answer =
                              match Ix.group_lookup built group with
                              | Some stats -> (
                                  match agg with
                                  | Ast.Sum -> Some stats.Ix.g_sum
                                  | Ast.Min -> Some stats.Ix.g_min
                                  | Ast.Max -> Some stats.Ix.g_max)
                              | None ->
                                  (* Empty group: exactly the compiled
                                     aggregate's empty answer (a typed zero
                                     for [Sum], [None] for min/max). *)
                                  finish None
                            in
                            (Aggregated answer, db))
                    | Some _ | None -> (
                        (* [Want_base]: [step] reads base column positions,
                           so an index can narrow the probe but never answer
                           from its payload alone — mixed indexed and
                           residual conjuncts split here instead of forcing
                           a full scan. *)
                        let ip =
                          note_iplan rel
                            (Plan.analyze_indexed schema ~indexes:descs
                               ~wanted:Plan.Want_base where)
                        in
                        match ip.Plan.ipath with
                        | Plan.Primary path ->
                            run_plan { Plan.path; residual = ip.Plan.iresidual }
                        | Plan.Index_group _ ->
                            fail db "aggregate cannot use this derived index"
                        | Plan.Index_scan { ix; ilo; ihi; only = _ } -> (
                            match ix_find ix.Plan.ix_name with
                            | None ->
                                fail db
                                  (Printf.sprintf "index %s is not built"
                                     ix.Plan.ix_name)
                            | Some built ->
                                read_all rel;
                                let acc =
                                  Ix.probe_fold built ~ilo ~ihi
                                    (fun acc pk _ ->
                                      match Relation.find_key r pk with
                                      | Some tup -> step acc tup
                                      | None -> acc)
                                    None
                                in
                                (Aggregated (finish acc), db))))))
  | Ast.Update { rel; col; value; where } ->
      fun db ->
        with_relation db rel (fun r ->
            let schema = Relation.schema r in
            match Pred.compile_update schema col value where with
            | Error e -> fail db e
            | Ok rewrite ->
                (* [rewrite] tests the full [where]; the plan's key bounds
                   let the single-traversal update skip subtrees that cannot
                   match. *)
                let plan = note_plan rel (Plan.analyze schema where) in
                let (lo, hi) =
                  match plan.Plan.path with
                  | Plan.Point_lookup key ->
                      let b = Some (Relation.Inclusive key) in
                      (b, b)
                  | Plan.Range_scan { lo; hi } -> (rel_bound lo, rel_bound hi)
                  | Plan.Full_scan -> (None, None)
                in
                read_path rel plan;
                let pairs =
                  if Option.is_some tk || ix_maintains then
                    (* Pre-collect the rewrite pairs over the same access
                       path so the effect record (and index maintenance)
                       lists exact removed/added tuples.  The key column
                       cannot change, so removed and added keys coincide. *)
                    fold_path r plan
                      (fun acc tup ->
                        match rewrite tup with
                        | Some tup' -> (tup, tup') :: acc
                        | None -> acc)
                      []
                  else []
                in
                if pairs <> [] then
                  wrote rel
                    ~removed:(List.rev_map fst pairs)
                    ~added:(List.rev_map snd pairs);
                let (r', changed) = Relation.update ?lo ?hi r rewrite in
                if changed = 0 then (Updated 0, db)
                else
                  let db' = Database.replace db rel r' in
                  ix_write rel db'
                    ~removed:(List.rev_map fst pairs)
                    ~added:(List.rev_map snd pairs);
                  (Updated changed, db'))
  | Ast.Join { left; right; on = (lc, rc) } ->
      fun db ->
        with_relation db left (fun lr ->
            with_relation db right (fun rr ->
                match
                  ( Schema.column_index (Relation.schema lr) lc,
                    Schema.column_index (Relation.schema rr) rc )
                with
                | (None, _) ->
                    fail db
                      (Printf.sprintf "relation %s has no column %s" left lc)
                | (_, None) ->
                    fail db
                      (Printf.sprintf "relation %s has no column %s" right rc)
                | (Some li, Some ri) ->
                    read_all left;
                    read_all right;
                    ( Joined
                        (Algebra.join ~left_col:li ~right_col:ri
                           (Relation.to_list lr) (Relation.to_list rr)),
                      db )))

let translate_string src = Result.map translate (Parser.parse src)

let apply_stream txns db0 =
  (* Tail recursive: transaction streams can be arbitrarily long. *)
  let rec go db resps dbs = function
    | [] -> (List.rev resps, List.rev dbs)
    | txn :: rest ->
        let (resp, db') = txn db in
        go db' (resp :: resps) (db' :: dbs) rest
  in
  go db0 [] [] txns

let run_queries db queries =
  let txns = List.rev (List.rev_map translate queries) in
  let rec go db resps = function
    | [] -> (List.rev resps, db)
    | txn :: rest ->
        let (resp, db') = txn db in
        go db' (resp :: resps) rest
  in
  go db [] txns
