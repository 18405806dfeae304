open Fdb_kernel
open Fdb_lenient
open Fdb_relational
open Fdb_rediflow
module Ast = Fdb_query.Ast
module Pred = Fdb_query.Pred
module Wal = Fdb_wal.Wal
module Ix = Fdb_index.Index

type semantics = Prepend | Ordered_unique

type mode = Ideal | On_machine of Machine.config

type response =
  | Inserted of bool
  | Found of Tuple.t list
  | Deleted of int
  | Selected of Tuple.t list
  | Counted of int
  | Aggregated of Value.t option
  | Updated of int
  | Joined of Tuple.t list
  | Failed of string

let response_equal a b =
  match (a, b) with
  | (Inserted x, Inserted y) -> x = y
  | (Found x, Found y) | (Selected x, Selected y) | (Joined x, Joined y) ->
      List.equal Tuple.equal x y
  | (Deleted x, Deleted y) | (Counted x, Counted y) | (Updated x, Updated y)
    ->
      x = y
  | (Aggregated x, Aggregated y) -> Option.equal Value.equal x y
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
  | Found ts -> Format.fprintf ppf "found %a" pp_tuples ts
  | Deleted n -> Format.fprintf ppf "deleted %d" n
  | Selected ts -> Format.fprintf ppf "selected %a" pp_tuples ts
  | Counted n -> Format.fprintf ppf "counted %d" n
  | Aggregated None -> Format.fprintf ppf "aggregated nothing"
  | Aggregated (Some v) -> Format.fprintf ppf "aggregated %a" Value.pp v
  | Updated n -> Format.fprintf ppf "updated %d" n
  | Joined ts -> Format.fprintf ppf "joined %a" pp_tuples ts
  | Failed msg -> Format.fprintf ppf "failed: %s" msg

type db_spec = {
  schemas : Schema.t list;
  initial : (string * Tuple.t list) list;
}

let db_spec_of_workload (w : Fdb_workload.Workload.t) =
  { schemas = w.Fdb_workload.Workload.schemas;
    initial = w.Fdb_workload.Workload.initial }

(* -- shared semantic plumbing (used identically by the lenient run and the
      sequential reference, so that error responses match exactly) -------- *)

let err_unknown_relation rel = Printf.sprintf "unknown relation %s" rel

let err_schema schema tuple =
  Format.asprintf "tuple %a does not match schema %a" Tuple.pp tuple Schema.pp
    schema

let err_no_column schema col =
  Printf.sprintf "relation %s has no column %s" (Schema.name schema) col

let key_eq key tuple = Value.equal (Tuple.key tuple) key

let key_past key tuple = Value.compare (Tuple.key tuple) key > 0

(* Initial relation contents under each semantics.  Prepend keeps load
   order; Ordered_unique sorts by key and keeps the first tuple per key. *)
let initial_state semantics spec =
  let prepare =
    match semantics with
    | Prepend -> Fun.id
    | Ordered_unique -> Tuple.sort_keep_first
  in
  List.map
    (fun schema ->
      let tuples = List.assoc_opt (Schema.name schema) spec.initial in
      (schema, prepare (Option.value tuples ~default:[])))
    spec.schemas

(* The durable image of [initial_state Ordered_unique], bulk-built per
   relation on btree-8: [Relation.of_tuples] keeps the first tuple per
   duplicate key, so a WAL genesis checkpoint written from this database
   matches what every ordered-unique executor starts from.  Ascending input
   builds in O(n): no re-sort, pages packed bottom-up. *)
let initial_database spec =
  match
    Database.of_tuples ~backend:(Relation.Btree_backend 8) spec.schemas
      spec.initial
  with
  | Ok db -> db
  | Error e -> invalid_arg ("Pipeline.initial_database: " ^ e)

(* The durable log stores relations as keyed sets ({!Fdb_relational}), so a
   Prepend run — a multiset that keeps duplicate keys — has no faithful
   image in it.  Refuse loudly rather than silently dropping tuples. *)
let require_ordered_unique ~who ~semantics wal =
  match (wal, semantics) with
  | (Some _, Prepend) ->
      invalid_arg
        (who
       ^ ": the wal sink requires Ordered_unique semantics (the durable \
          log stores relations as keyed sets)")
  | _ -> ()

(* Archive one changed relation into the next durable version, keeping the
   backend of the version before it. *)
let archive_replace db schema tuples =
  let name = Schema.name schema in
  let backend = Option.map Relation.backend (Database.relation db name) in
  match Relation.of_tuples ?backend schema tuples with
  | Ok rel -> Database.replace db name rel
  | Error e -> invalid_arg ("Pipeline: wal sink could not archive: " ^ e)

let resolve_columns schema cols =
  let rec go = function
    | [] -> Ok []
    | c :: rest -> (
        match Schema.column_index schema c with
        | None -> Error (err_no_column schema c)
        | Some i -> Result.map (fun is -> i :: is) (go rest))
  in
  go cols

(* Compile the read plan of a select: predicate test and projection. *)
let select_plan schema cols where =
  match Pred.compile schema where with
  | Error e -> Error e
  | Ok test -> (
      match cols with
      | None -> Ok (test, fun rows -> rows)
      | Some cs -> (
          match resolve_columns schema cs with
          | Error e -> Error e
          | Ok idxs -> Ok (test, fun rows -> Algebra.project idxs rows)))

let join_plan lschema rschema (lc, rc) =
  match
    (Schema.column_index lschema lc, Schema.column_index rschema rc)
  with
  | (None, _) -> Error (err_no_column lschema lc)
  | (_, None) -> Error (err_no_column rschema rc)
  | (Some li, Some ri) -> Ok (li, ri)

(* -- the lenient execution ------------------------------------------------ *)

type report = {
  responses : (int * response) list;
  stats : Engine.run_stats;
  machine : Machine.machine_stats option;
  speedup : float option;
  final_db : (string * Tuple.t list) list;
}

let responses_for ~tag report =
  List.filter_map
    (fun (t, r) -> if t = tag then Some r else None)
    report.responses

(* Lenient nested-loop join: scan the left relation; each left tuple floods
   a select over the right relation; a collector concatenates the per-tuple
   matches in left order. *)
let lenient_join eng ~label li ri left right result =
  let pred lt rt = Value.equal (Tuple.get lt li) (Tuple.get rt ri) in
  let rec scan l acc =
    Engine.await ~label l (function
      | Llist.Nil ->
          let rec collect acc_rows = function
            | [] -> Engine.put result (List.rev acc_rows)
            | matches :: rest ->
                Engine.await ~label matches (fun (lt, rows) ->
                    let pairs = List.map (fun rt -> Array.append lt rt) rows in
                    collect (List.rev_append pairs acc_rows) rest)
          in
          collect [] (List.rev acc)
      | Llist.Cons (lt, rest) ->
          let matches = Engine.ivar eng in
          let (_, strict) = Llist.select eng ~label (pred lt) right in
          Engine.await ~label strict (fun rows ->
              Engine.put matches (lt, rows));
          scan rest (matches :: acc))
  in
  scan left []

(* Shared setup for both entry points: engine + machine, placed initial
   database, and the transaction executor. *)
let prepare ~semantics ~mode ~trace spec =
  let (machine, eng) =
    match mode with
    | Ideal -> (None, Engine.create ~trace ())
    | On_machine cfg ->
        let m = Machine.create cfg in
        (Some m, Engine.create ~trace ~scheduler:(Machine.scheduler m) ())
  in
  let sites =
    match mode with
    | Ideal -> 1
    | On_machine cfg -> Fdb_net.Topology.size cfg.Machine.topo
  in
  let state = initial_state semantics spec in
  let schemas = Array.of_list (List.map fst state) in
  let nrels = Array.length schemas in
  let rel_index name =
    let rec go i =
      if i >= nrels then None
      else if String.equal (Schema.name schemas.(i)) name then Some i
      else go (i + 1)
    in
    go 0
  in
  (* Block-place the initial cells over the PEs: consecutive cells share a
     site so scans run locally and hop occasionally, and different regions
     (hence different relations) live on different PEs.  New versions
     inherit this layout because copier continuations execute at the old
     cells' sites. *)
  let total_cells =
    List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 state
  in
  let block = max 1 ((total_cells + sites - 1) / sites) in
  let offset = ref 0 in
  let db0 =
    Array.of_list
      (List.map
         (fun (_, tuples) ->
           let base = !offset in
           offset := base + List.length tuples;
           Llist.of_list eng ~place:(fun j -> (base + j) / block mod sites) tuples)
         state)
  in
  let cmp_key = Tuple.compare_key in
  (* One transaction: returns the next database version immediately;
     responses resolve as their cell-level work completes.  [answer]
     receives the response exactly once. *)
  let exec ~id:i ~answer q (db : Tuple.t Llist.t array) =
    let answer_later iv f = Engine.await iv (fun v -> answer (f v)) in
    let read_only = db in
    let label kind rel = Printf.sprintf "%s:%s#%d" kind rel i in
    match q with
    | Ast.Insert { rel; values } -> (
        let tuple = Tuple.make values in
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            if not (Schema.matches schemas.(r) tuple) then begin
              answer (Failed (err_schema schemas.(r) tuple));
              read_only
            end
            else begin
              match semantics with
              | Prepend ->
                  let db' = Array.copy db in
                  db'.(r) <- Llist.cons eng tuple db.(r);
                  answer (Inserted true);
                  db'
              | Ordered_unique ->
                  let (slot', ack) =
                    Llist.insert_unique eng ~label:(label "insert" rel)
                      ~cmp:cmp_key tuple db.(r)
                  in
                  let db' = Array.copy db in
                  db'.(r) <- slot';
                  answer_later ack (fun added -> Inserted added);
                  db'
            end)
    | Ast.Find { rel; key } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            (match semantics with
            | Prepend ->
                let (_, strict) =
                  Llist.select eng ~label:(label "find" rel) (key_eq key)
                    db.(r)
                in
                answer_later strict (fun rows -> Found rows)
            | Ordered_unique ->
                let found =
                  Llist.find_until eng ~label:(label "find" rel)
                    ~stop:(key_past key) (key_eq key) db.(r)
                in
                answer_later found (fun t -> Found (Option.to_list t)));
            read_only)
    | Ast.Delete { rel; key } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            let db' = Array.copy db in
            (match semantics with
            | Prepend ->
                let (slot', count) =
                  Llist.delete_all eng ~label:(label "delete" rel)
                    (key_eq key) db.(r)
                in
                db'.(r) <- slot';
                answer_later count (fun c -> Deleted c)
            | Ordered_unique ->
                let (slot', ack) =
                  Llist.delete_ordered eng ~label:(label "delete" rel)
                    ~cmp:cmp_key
                    (Tuple.make [ key ])
                    db.(r)
                in
                db'.(r) <- slot';
                answer_later ack (fun found -> Deleted (if found then 1 else 0)));
            db')
    | Ast.Select { rel; cols; where } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            (match select_plan schemas.(r) cols where with
            | Error e -> answer (Failed e)
            | Ok (test, project) ->
                let (_, strict) =
                  Llist.select eng ~label:(label "select" rel) test db.(r)
                in
                answer_later strict (fun rows -> Selected (project rows)));
            read_only)
    | Ast.Count { rel; where } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            (match where with
            | Ast.True ->
                let len = Llist.length eng ~label:(label "count" rel) db.(r) in
                answer_later len (fun c -> Counted c)
            | _ -> (
                match Pred.compile schemas.(r) where with
                | Error e -> answer (Failed e)
                | Ok test ->
                    let n =
                      Llist.count eng ~label:(label "count" rel) test db.(r)
                    in
                    answer_later n (fun c -> Counted c)));
            read_only)
    | Ast.Aggregate { agg; rel; col; where } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r ->
            (match Pred.compile_aggregate schemas.(r) agg col where with
            | Error e -> answer (Failed e)
            | Ok (step, finish) ->
                let acc =
                  Llist.fold eng ~label:(label "aggregate" rel) step None
                    db.(r)
                in
                answer_later acc (fun acc -> Aggregated (finish acc)));
            read_only)
    | Ast.Update { rel; col; value; where } -> (
        match rel_index rel with
        | None ->
            answer (Failed (err_unknown_relation rel));
            read_only
        | Some r -> (
            match Pred.compile_update schemas.(r) col value where with
            | Error e ->
                answer (Failed e);
                read_only
            | Ok rewrite ->
                let (slot', count) =
                  Llist.update_all eng ~label:(label "update" rel) rewrite
                    db.(r)
                in
                let db' = Array.copy db in
                db'.(r) <- slot';
                answer_later count (fun c -> Updated c);
                db'))
    | Ast.Join { left; right; on } -> (
        match (rel_index left, rel_index right) with
        | (None, _) ->
            answer (Failed (err_unknown_relation left));
            read_only
        | (_, None) ->
            answer (Failed (err_unknown_relation right));
            read_only
        | (Some lr, Some rr) ->
            (match join_plan schemas.(lr) schemas.(rr) on with
            | Error e -> answer (Failed e)
            | Ok (li, ri) ->
                let result = Engine.ivar eng in
                lenient_join eng ~label:(label "join" left) li ri db.(lr)
                  db.(rr) result;
                answer_later result (fun rows -> Joined rows));
            read_only)
  in
  (machine, eng, schemas, db0, exec)

(* Assemble the report once the engine has quiesced. *)
let finish ~mode ~machine ~schemas ~stats ~responses ~last_version =
  let machine_stats = Option.map Machine.machine_stats machine in
  let speedup =
    match mode with
    | Ideal -> None
    | On_machine _ ->
        Some
          (float_of_int stats.Engine.tasks /. float_of_int stats.Engine.cycles)
  in
  let final_db =
    Array.to_list
      (Array.mapi
         (fun r slot -> (Schema.name schemas.(r), Llist.prefix_now slot))
         last_version)
  in
  { responses; stats; machine = machine_stats; speedup; final_db }

(* Replay a lenient run's version chain into the durable log.  Each entry
   is the slot array a dispatch produced, oldest first; a slot that kept
   its physical identity kept its contents (single assignment), so only
   changed slots are materialized.  Runs after quiescence, when every cell
   is resolved, and skips versions whose materialized contents turn out
   unchanged (e.g. a rejected duplicate insert). *)
let log_lenient_versions w ~schemas ~db0 versions =
  let prev_slots = ref db0 in
  let prev_db = ref (Wal.latest w) in
  List.iter
    (fun slots ->
      let changed = ref [] in
      Array.iteri
        (fun r slot ->
          if not (slot == !prev_slots.(r)) then begin
            let tuples = Llist.prefix_now slot in
            let same =
              match Database.relation !prev_db (Schema.name schemas.(r)) with
              | Some rel -> List.equal Tuple.equal (Relation.to_list rel) tuples
              | None -> false
            in
            if not same then changed := (r, tuples) :: !changed
          end)
        slots;
      (match !changed with
      | [] -> ()
      | cs ->
          let db' =
            List.fold_left
              (fun db (r, tuples) -> archive_replace db schemas.(r) tuples)
              !prev_db cs
          in
          prev_db := db';
          Wal.append w db');
      prev_slots := slots)
    versions

let run ?(semantics = Prepend) ?(mode = Ideal) ?(trace = false) ?(primary = 0)
    ?wal spec tagged_queries =
  require_ordered_unique ~who:"Pipeline.run" ~semantics wal;
  let (machine, eng, schemas, db0, exec) = prepare ~semantics ~mode ~trace spec in
  let queries = Array.of_list tagged_queries in
  let n = Array.length queries in
  let resp = Array.init n (fun _ -> Engine.ivar eng) in
  (* The dispatch chain: the unfolding of apply-stream.  One task per
     transaction, homed at the primary site; version i+1 is produced the
     cycle after version i regardless of relation sizes. *)
  let last_version = ref db0 in
  let versions = ref [] in
  Engine.spawn eng ~site:primary (fun () ->
      let first = Engine.ivar eng in
      let rec chain i db_iv =
        if i < n then begin
          let next_iv = Engine.ivar eng in
          let (_, q) = queries.(i) in
          Engine.await
            ~label:(Printf.sprintf "dispatch#%d" i)
            db_iv
            (fun db ->
              if Fdb_obs.Trace.enabled () then
                Fdb_obs.Trace.emit_at ~ts:(Engine.now eng) ~site:primary
                  (Fdb_obs.Event.Dispatch_start
                     { txn = i; label = Printf.sprintf "dispatch#%d" i });
              let db' = exec ~id:i ~answer:(Engine.put resp.(i)) q db in
              if not (db' == db) then versions := db' :: !versions;
              if Fdb_obs.Trace.enabled () then
                Fdb_obs.Trace.emit_at ~ts:(Engine.now eng) ~site:primary
                  (Fdb_obs.Event.Dispatch_end
                     { txn = i; label = Printf.sprintf "dispatch#%d" i });
              (* The span covers only the dispatch step — the handoff of
                 version i+1 — not the flooded cell work, which overlaps
                 later dispatches by design. *)
              Engine.put next_iv db');
          chain (i + 1) next_iv
        end
        else
          Engine.await ~label:"final-version" db_iv (fun db ->
              last_version := db)
      in
      chain 0 first;
      Engine.put first db0);
  let stats = Engine.run eng in
  (match wal with
  | Some w ->
      log_lenient_versions w ~schemas ~db0 (List.rev !versions);
      Wal.sync w
  | None -> ());
  let responses =
    Array.to_list
      (Array.mapi
         (fun i iv ->
           match Engine.peek iv with
           | Some r -> (fst queries.(i), r)
           | None ->
               failwith
                 (Printf.sprintf
                    "Pipeline.run: response %d unresolved (%d orphans)" i
                    stats.Engine.orphans))
         resp)
  in
  finish ~mode ~machine ~schemas ~stats ~responses ~last_version:!last_version

(* Clients as lenient stream producers, merged by the engine arbiter, the
   dispatch chain chasing the merged stream — the whole Figure 2-1/2-3
   architecture as one task graph. *)
let run_streams ?(semantics = Prepend) ?(mode = Ideal) ?(trace = false)
    ?(primary = 0) ?wal spec (streams : Ast.query list list) =
  require_ordered_unique ~who:"Pipeline.run_streams" ~semantics wal;
  let (machine, eng, schemas, db0, exec) =
    prepare ~semantics ~mode ~trace spec
  in
  let inputs =
    List.mapi
      (fun tag qs ->
        Llist.produce eng ~label:(Printf.sprintf "client#%d" tag) qs)
      streams
  in
  let merged = Lmerge.merge eng inputs in
  let collected = ref [] (* (tag, query, response ivar), reverse order *) in
  let last_version = ref db0 in
  let versions = ref [] in
  Engine.spawn eng ~site:primary (fun () ->
      let rec chase i cell db_iv =
        Engine.await ~label:(Printf.sprintf "dispatch#%d" i) cell (function
          | Llist.Nil ->
              Engine.await ~label:"final-version" db_iv (fun db ->
                  last_version := db)
          | Llist.Cons ((tag, q), rest) ->
              let resp = Engine.ivar eng in
              collected := (tag, q, resp) :: !collected;
              let next_iv = Engine.ivar eng in
              Engine.await ~label:(Printf.sprintf "txn#%d" i) db_iv (fun db ->
                  if Fdb_obs.Trace.enabled () then
                    Fdb_obs.Trace.emit_at ~ts:(Engine.now eng) ~site:primary
                      (Fdb_obs.Event.Dispatch_start
                         { txn = i; label = Printf.sprintf "txn#%d" i });
                  let db' = exec ~id:i ~answer:(Engine.put resp) q db in
                  if not (db' == db) then versions := db' :: !versions;
                  if Fdb_obs.Trace.enabled () then
                    Fdb_obs.Trace.emit_at ~ts:(Engine.now eng) ~site:primary
                      (Fdb_obs.Event.Dispatch_end
                         { txn = i; label = Printf.sprintf "txn#%d" i });
                  Engine.put next_iv db');
              chase (i + 1) rest next_iv
        )
      in
      let first = Engine.ivar eng in
      chase 0 merged first;
      Engine.put first db0);
  let stats = Engine.run eng in
  (match wal with
  | Some w ->
      log_lenient_versions w ~schemas ~db0 (List.rev !versions);
      Wal.sync w
  | None -> ());
  let items = List.rev !collected in
  let responses =
    List.mapi
      (fun i (tag, _, iv) ->
        match Engine.peek iv with
        | Some r -> (tag, r)
        | None ->
            failwith
              (Printf.sprintf
                 "Pipeline.run_streams: response %d unresolved (%d orphans)" i
                 stats.Engine.orphans))
      items
  in
  let merged_order = List.map (fun (tag, q, _) -> (tag, q)) items in
  ( finish ~mode ~machine ~schemas ~stats ~responses
      ~last_version:!last_version,
    merged_order )

(* -- the sequential reference --------------------------------------------- *)

(* Mutable relation state for the sequential reference — deliberately its
   own interpreter, so it stays an independent oracle for every executor
   built on [Txn]. *)
let seq_state semantics spec =
  let state = initial_state semantics spec in
  let rels = Array.of_list (List.map (fun (s, ts) -> (s, ref ts)) state) in
  let nrels = Array.length rels in
  let rel_index name =
    let rec go i =
      if i >= nrels then None
      else if String.equal (Schema.name (fst rels.(i))) name then Some i
      else go (i + 1)
    in
    go 0
  in
  (rels, rel_index)

let seq_eval ~semantics rels rel_index q =
  let with_rel rel k =
    match rel_index rel with
    | None -> Failed (err_unknown_relation rel)
    | Some r -> k r
  in
    match q with
    | Ast.Insert { rel; values } ->
        let tuple = Tuple.make values in
        with_rel rel (fun r ->
            let (schema, contents) = rels.(r) in
            if not (Schema.matches schema tuple) then
              Failed (err_schema schema tuple)
            else begin
              match semantics with
              | Prepend ->
                  contents := tuple :: !contents;
                  Inserted true
              | Ordered_unique ->
                  if List.exists (key_eq (Tuple.key tuple)) !contents then
                    Inserted false
                  else begin
                    let rec ins = function
                      | [] -> [ tuple ]
                      | t :: rest ->
                          if Tuple.compare_key tuple t <= 0 then
                            tuple :: t :: rest
                          else t :: ins rest
                    in
                    contents := ins !contents;
                    Inserted true
                  end
            end)
    | Ast.Find { rel; key } ->
        with_rel rel (fun r ->
            let (_, contents) = rels.(r) in
            match semantics with
            | Prepend -> Found (List.filter (key_eq key) !contents)
            | Ordered_unique ->
                Found (Option.to_list (List.find_opt (key_eq key) !contents)))
    | Ast.Delete { rel; key } ->
        with_rel rel (fun r ->
            let (_, contents) = rels.(r) in
            match semantics with
            | Prepend ->
                let (gone, kept) = List.partition (key_eq key) !contents in
                contents := kept;
                Deleted (List.length gone)
            | Ordered_unique ->
                if List.exists (key_eq key) !contents then begin
                  let rec del = function
                    | [] -> []
                    | t :: rest -> if key_eq key t then rest else t :: del rest
                  in
                  contents := del !contents;
                  Deleted 1
                end
                else Deleted 0)
    | Ast.Select { rel; cols; where } ->
        with_rel rel (fun r ->
            let (schema, contents) = rels.(r) in
            match select_plan schema cols where with
            | Error e -> Failed e
            | Ok (test, project) ->
                Selected (project (List.filter test !contents)))
    | Ast.Count { rel; where } ->
        with_rel rel (fun r ->
            let (schema, contents) = rels.(r) in
            match where with
            | Ast.True -> Counted (List.length !contents)
            | _ -> (
                match Pred.compile schema where with
                | Error e -> Failed e
                | Ok test -> Counted (List.length (List.filter test !contents))))
    | Ast.Aggregate { agg; rel; col; where } ->
        with_rel rel (fun r ->
            let (schema, contents) = rels.(r) in
            match Pred.compile_aggregate schema agg col where with
            | Error e -> Failed e
            | Ok (step, finish) ->
                Aggregated (finish (List.fold_left step None !contents)))
    | Ast.Update { rel; col; value; where } ->
        with_rel rel (fun r ->
            let (schema, contents) = rels.(r) in
            match Pred.compile_update schema col value where with
            | Error e -> Failed e
            | Ok rewrite ->
                let changed = ref 0 in
                contents :=
                  List.map
                    (fun tup ->
                      match rewrite tup with
                      | Some tup' ->
                          incr changed;
                          tup'
                      | None -> tup)
                    !contents;
                Updated !changed)
    | Ast.Join { left; right; on } ->
        with_rel left (fun lr ->
            with_rel right (fun rr ->
                match join_plan (fst rels.(lr)) (fst rels.(rr)) on with
                | Error e -> Failed e
                | Ok (li, ri) ->
                    Joined
                      (Algebra.join ~left_col:li ~right_col:ri
                         !(snd rels.(lr))
                         !(snd rels.(rr)))))

let reference ?(semantics = Prepend) spec tagged_queries =
  let (rels, rel_index) = seq_state semantics spec in
  List.map
    (fun (tag, q) -> (tag, seq_eval ~semantics rels rel_index q))
    tagged_queries

let check_serializable ?semantics ?mode spec tagged_queries =
  let lenient = (run ?semantics ?mode spec tagged_queries).responses in
  let sequential = reference ?semantics spec tagged_queries in
  let rec compare_all i = function
    | ([], []) -> Ok true
    | ((t1, r1) :: rest1, (t2, r2) :: rest2) ->
        if t1 <> t2 then
          Error (Printf.sprintf "tag mismatch at %d: %d vs %d" i t1 t2)
        else if not (response_equal r1 r2) then
          Error
            (Format.asprintf
               "response mismatch at %d (tag %d): lenient %a, sequential %a" i
               t1 pp_response r1 pp_response r2)
        else compare_all (i + 1) (rest1, rest2)
    | _ -> Error "response count mismatch"
  in
  compare_all 0 (lenient, sequential)

(* -- the executors over Database.t ----------------------------------------- *)

module Pool = Fdb_par.Pool
module Txn = Fdb_txn.Txn
module Exec = Fdb_repair.Exec
module History = Fdb_txn.History

type executor =
  | Parallel of { pool : Pool.t; index : Ix.Session.t option }
  | Repair of { pool : Pool.t; batch : int; index : Ix.Session.t option }
  | Sharded of { shards : int }

type outcome = {
  responses : (int * Txn.response) list;
  final : Database.t;
  versions : int;
}

(* The parallel executor: a scheduler over [Txn.translate], one transaction
   per dispatch step.  A write runs inline and yields the next version
   (maintaining the indexes, if any); a version that differs from its
   predecessor is logged, so no-op writes — which [Txn] answers with the
   same database — are not.  A read becomes one pool task over the version
   current at its dispatch, with a frozen copy of the index store from the
   same moment: later writes never reach what it sees, so transaction i+1
   proceeds while transaction i's read is still in flight.  The trace sink
   is a plain closure — not domain-safe — so traced runs answer reads
   inline, as the repair executor does. *)
let run_dispatch ~pool ~index ~wal db0 tagged_queries =
  let traced = Fdb_obs.Trace.enabled () in
  let dispatch (site, db, versions) (tag, q) =
    if Ast.is_update q then begin
      let index = Option.map Ix.Session.use index in
      let (r, db') = Txn.translate ?index q db in
      let changed = db' != db in
      (match wal with Some w when changed -> Wal.append w db' | _ -> ());
      ( (site, db', if changed then versions + 1 else versions),
        (tag, Lcell.make r) )
    end
    else begin
      let index =
        Option.map
          (fun s -> Ix.Session.use ~maintain:false (Ix.Session.snapshot s))
          index
      in
      let txn = Txn.translate ?index q in
      let cell = Lcell.create () in
      let answer () = Lcell.put cell (fst (txn db)) in
      if traced then answer () else Pool.submit pool ~site answer;
      ((site + 1, db, versions), (tag, cell))
    end
  in
  let ((_, final, versions), answers) =
    List.fold_left_map dispatch (0, db0, 1) tagged_queries
  in
  Option.iter Wal.sync wal;
  Pool.wait pool;
  {
    responses = List.map (fun (tag, cell) -> (tag, Lcell.get cell)) answers;
    final;
    versions;
  }

(* Speculative repair, one [Exec.run_batch] per [batch] queries, each batch
   entered on the version the previous one left. *)
let run_batches ~pool ~batch ~index ~wal db0 tagged_queries =
  if batch < 1 then invalid_arg "Pipeline.execute: repair batch must be >= 1";
  let (tagged_rev, final, versions, _) =
    List.fold_left
      (fun (acc, db, versions, bid) chunk ->
        let r =
          Exec.run_batch ~pool ?index ~batch_id:bid db (List.map snd chunk)
        in
        (* The batch history archives reads and no-op writes too; only a
           version that is not its predecessor is a commit. *)
        let h = r.Exec.history in
        let changed = ref 0 in
        for i = 1 to History.length h - 1 do
          let v = History.version h i in
          if v != History.version h (i - 1) then begin
            Option.iter (fun w -> Wal.append w v) wal;
            incr changed
          end
        done;
        let tags = List.map fst chunk in
        ( List.rev_append (List.combine tags r.Exec.responses) acc,
          r.Exec.final,
          versions + !changed,
          bid + 1 ))
      ([], db0, 1, 0)
      (Exec.chunks batch tagged_queries)
  in
  Option.iter Wal.sync wal;
  { responses = List.rev tagged_rev; final; versions }

let run_shards ~shards ~wal db0 tagged_queries =
  let r =
    Fdb_shard.Shard.run_merged ~shards ~initial:db0
      (List.map
         (fun (tag, q) -> { Fdb_merge.Merge.tag; item = q })
         tagged_queries)
  in
  Option.iter
    (fun w ->
      List.iter (Wal.append w) r.Fdb_shard.Shard.versions;
      Wal.sync w)
    wal;
  {
    responses =
      List.combine (Array.to_list r.Fdb_shard.Shard.tags)
        (Array.to_list r.Fdb_shard.Shard.responses);
    final = r.Fdb_shard.Shard.final;
    versions = 1 + List.length r.Fdb_shard.Shard.versions;
  }

let execute ?wal executor db tagged_queries =
  match executor with
  | Parallel { pool; index } -> run_dispatch ~pool ~index ~wal db tagged_queries
  | Repair { pool; batch; index } ->
      run_batches ~pool ~batch ~index ~wal db tagged_queries
  | Sharded { shards } -> run_shards ~shards ~wal db tagged_queries

(* [Txn] answers in its own response type, shaped slightly differently
   (option/bool where the pipeline uses list/int).  Error strings are
   identical by construction: Txn and the pipeline share Pred and format
   unknown-relation / schema / column errors the same way. *)
let response_of_txn : Txn.response -> response = function
  | Txn.Inserted b -> Inserted b
  | Txn.Found t -> Found (Option.to_list t)
  | Txn.Deleted b -> Deleted (if b then 1 else 0)
  | Txn.Selected ts -> Selected ts
  | Txn.Counted n -> Counted n
  | Txn.Aggregated v -> Aggregated v
  | Txn.Updated n -> Updated n
  | Txn.Joined ts -> Joined ts
  | Txn.Failed e -> Failed e

let pipeline_responses o =
  List.map (fun (tag, r) -> (tag, response_of_txn r)) o.responses

(* -- db_spec wrappers ------------------------------------------------------ *)

type par_report = {
  par_responses : (int * response) list;
  par_final_db : (string * Tuple.t list) list;
}

type repair_report = {
  rep_responses : (int * response) list;
  rep_final_db : (string * Tuple.t list) list;
}

let with_spec_pool ?domains pool f =
  match pool with Some p -> f p | None -> Pool.with_pool ?domains f

let run_parallel ?(semantics = Ordered_unique) ?domains ?pool spec
    tagged_queries =
  if semantics = Prepend then
    invalid_arg
      "Pipeline.run_parallel: Prepend semantics is not supported (the \
       executor runs Txn over keyed sets)";
  with_spec_pool ?domains pool (fun pool ->
      let o =
        execute (Parallel { pool; index = None }) (initial_database spec)
          tagged_queries
      in
      {
        par_responses = pipeline_responses o;
        par_final_db = Database.contents o.final;
      })

let run_repair ~batch ?pool spec tagged_queries =
  with_spec_pool pool (fun pool ->
      let o =
        execute (Repair { pool; batch; index = None }) (initial_database spec)
          tagged_queries
      in
      {
        rep_responses = pipeline_responses o;
        rep_final_db = Database.contents o.final;
      })
