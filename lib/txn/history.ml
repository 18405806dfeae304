open Fdb_relational

type t = {
  versions : Database.t list; (* newest first, never empty *)
  count : int;
  (* Oldest-first snapshot of [versions], built on the first indexed
     access and reused until the archive is extended (extending returns a
     new [t] with a fresh empty cache, so cached arrays are never stale).
     Turns a length-n sweep of [version]/[changed_relations] calls from
     O(n^2) List.nth walks into one O(n) reversal plus O(1) lookups. *)
  indexed : Database.t array option ref;
}

exception Empty_history

let create db0 = { versions = [ db0 ]; count = 1; indexed = ref None }

let of_versions versions =
  match versions with
  | [] -> raise Empty_history
  | _ ->
      { versions; count = List.length versions; indexed = ref None }

let newest t =
  match t.versions with [] -> raise Empty_history | db :: _ -> db

let commit t txn =
  let (response, db') = txn (newest t) in
  ( { versions = db' :: t.versions; count = t.count + 1; indexed = ref None },
    response )

let commit_query t query = commit t (Txn.translate query)

let append t db =
  { versions = db :: t.versions; count = t.count + 1; indexed = ref None }

let of_queries db0 queries =
  let (t, rev_responses) =
    List.fold_left
      (fun (t, acc) query ->
        let (t', r) = commit_query t query in
        (t', r :: acc))
      (create db0, [])
      queries
  in
  (t, List.rev rev_responses)

let length t = t.count

let to_array t =
  match !(t.indexed) with
  | Some arr -> arr
  | None ->
      let arr = Array.make t.count (newest t) in
      List.iteri (fun i db -> arr.(t.count - 1 - i) <- db) t.versions;
      t.indexed := Some arr;
      arr

let version t i =
  if i < 0 || i >= t.count then invalid_arg "History.version: out of range";
  (to_array t).(i)

let latest = newest

let query_at t i query = fst (Txn.translate query (version t i))

let changed_relations t i =
  if i <= 0 then []
  else
    List.map
      (fun (_, name, _, _) -> name)
      (Database.changed_slots ~old:(version t (i - 1)) (version t i))

let sharing_ratio t =
  let n = length t in
  if n < 2 then 1.0
  else begin
    let changed = ref 0 in
    for i = 1 to n - 1 do
      changed :=
        !changed
        + List.length
            (Database.changed_slots ~old:(version t (i - 1)) (version t i))
    done;
    let total = (n - 1) * List.length (Database.names (latest t)) in
    float_of_int (total - !changed) /. float_of_int total
  end
