open Fdb_relational
module Ast = Fdb_query.Ast
module Pred = Fdb_query.Pred
module Txn = Fdb_txn.Txn

type span =
  | Keys of Value.t list
  | Range of Relation.bound option * Relation.bound option
  | All

type t = {
  reads : (string * span list) list;
  writes : (string * Value.t list) list;
  effects : (string * (Tuple.t list * Tuple.t list)) list;
}

let empty = { reads = []; writes = []; effects = [] }

(* Tiny association lists: a transaction touches a handful of relations. *)
let upsert rel v merge assoc =
  let rec go = function
    | [] -> [ (rel, v) ]
    | (name, v0) :: rest when String.equal name rel -> (name, merge v0 v) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

type collector = { mutable fp : t }

let collector () = { fp = empty }
let captured c = c.fp

let tracker c : Txn.tracker =
  let add_read rel span =
    c.fp <-
      { c.fp with reads = upsert rel [ span ] (fun old s -> s @ old) c.fp.reads }
  in
  {
    Txn.read_key = (fun ~rel key -> add_read rel (Keys [ key ]));
    read_range = (fun ~rel ~lo ~hi -> add_read rel (Range (lo, hi)));
    read_all = (fun ~rel -> add_read rel All);
    write =
      (fun ~rel ~removed ~added ->
        (* An update's removed and added keys coincide (the key column
           cannot change); dedup once here instead of at every overlap
           test. *)
        let keys =
          List.sort_uniq Value.compare
            (List.rev_append (List.rev_map Tuple.key removed)
               (List.map Tuple.key added))
        in
        c.fp <-
          {
            c.fp with
            writes = upsert rel keys (fun old ks -> old @ ks) c.fp.writes;
            effects =
              upsert rel (removed, added)
                (fun (r0, a0) (r1, a1) -> (r0 @ r1, a0 @ a1))
                c.fp.effects;
          });
  }

let below key = function
  | None -> true
  | Some (Relation.Inclusive v) -> Value.compare key v <= 0
  | Some (Relation.Exclusive v) -> Value.compare key v < 0

let above key = function
  | None -> true
  | Some (Relation.Inclusive v) -> Value.compare key v >= 0
  | Some (Relation.Exclusive v) -> Value.compare key v > 0

let key_in_span key = function
  | All -> true
  | Keys ks -> List.exists (Value.equal key) ks
  | Range (lo, hi) -> above key lo && below key hi

type verdict = No_overlap | Key_disjoint | Overlapping

let rec spans_of rel = function
  | [] -> None
  | (name, spans) :: rest ->
      if String.equal name rel then Some spans else spans_of rel rest

let overlap ~writer ~reader =
  (* the reader's spans on each relation the writer wrote keys of *)
  let shared =
    List.filter_map
      (fun (rel, keys) ->
        match keys with
        | [] -> None
        | _ :: _ -> Option.map (fun spans -> (keys, spans)) (spans_of rel reader.reads))
      writer.writes
  in
  match shared with
  | [] -> No_overlap
  | _ :: _ ->
      if
        List.exists
          (fun (keys, spans) ->
            List.exists (fun k -> List.exists (key_in_span k) spans) keys)
          shared
      then Overlapping
      else Key_disjoint

let commutes ~schema_of (writer : t) (reader_q : Ast.query) =
  (* Only queries whose response (and, for update, whose own effects) are a
     function of the set of tuples matching their full [where] predicate
     qualify: a writer whose affected tuples all fail the predicate leaves
     that matching set — hence the reader — untouched.  Find / insert /
     delete / join depend on more than a matching set, so they never
     bypass here (the key-disjoint test already covers their point
     accesses). *)
  let target =
    match reader_q with
    | Ast.Select { rel; where; _ } -> Some (rel, where)
    | Ast.Count { rel; where } -> Some (rel, where)
    | Ast.Aggregate { rel; where; _ } -> Some (rel, where)
    | Ast.Update { rel; where; _ } -> Some (rel, where)
    | Ast.Insert _ | Ast.Find _ | Ast.Delete _ | Ast.Join _ -> None
  in
  match target with
  | None -> false
  | Some (rel, where) -> (
      match schema_of rel with
      | None -> false
      | Some schema -> (
          match Pred.compile schema where with
          | Error _ -> false
          | Ok matches ->
              List.for_all
                (fun (wrel, (removed, added)) ->
                  (not (String.equal wrel rel))
                  || not
                       (List.exists matches removed || List.exists matches added))
                writer.effects))
