type t = { rels : (string * Relation.t) list }

let create ?backend schemas =
  let names = List.map Schema.name schemas in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Database.create: duplicate relation names";
  { rels = List.map (fun s -> (Schema.name s, Relation.create ?backend s)) schemas }

let names db = List.map fst db.rels

let slots db = db.rels

let contents db = List.map (fun (name, r) -> (name, Relation.to_list r)) db.rels

let relation db name = List.assoc_opt name db.rels

let schema_of db name = Option.map Relation.schema (relation db name)

let replace db name rel =
  if not (List.mem_assoc name db.rels) then
    invalid_arg ("Database.replace: unknown relation " ^ name);
  let rec go = function
    | [] -> []
    | ((n, _) as slot) :: rest ->
        if String.equal n name then (n, rel) :: rest else slot :: go rest
  in
  { rels = go db.rels }

let with_rel db name f =
  match relation db name with
  | None -> Error (Printf.sprintf "unknown relation %s" name)
  | Some rel -> f rel

let insert db ~rel tuple =
  with_rel db rel (fun r ->
      match Relation.insert r tuple with
      | Error e -> Error e
      | Ok (r', added) ->
          if added then Ok (replace db rel r', true) else Ok (db, false))

let delete db ~rel ~key =
  with_rel db rel (fun r ->
      let (r', found) = Relation.delete_key r key in
      if found then Ok (replace db rel r', true) else Ok (db, false))

let find db ~rel ~key = with_rel db rel (fun r -> Ok (Relation.find_key r key))

let total_tuples db =
  List.fold_left (fun acc (_, r) -> acc + Relation.size r) 0 db.rels

let load db ~rel tuples =
  List.fold_left
    (fun acc tup ->
      match acc with
      | Error _ as e -> e
      | Ok db -> Result.map fst (insert db ~rel tup))
    (Ok db) tuples

let of_tuples ?backend schemas initial =
  let rec go db = function
    | [] -> Ok db
    | schema :: rest -> (
        let name = Schema.name schema in
        match List.assoc_opt name initial with
        | None -> go db rest
        | Some tuples -> (
            match Relation.of_tuples ?backend schema tuples with
            | Ok rel -> go (replace db name rel) rest
            | Error _ as e -> e))
  in
  go (create ?backend schemas) schemas

let shares_relation ~old db name =
  match (relation old name, relation db name) with
  | (Some a, Some b) -> a == b
  | _ -> false

let changed_slots ~old db =
  let mismatch () = invalid_arg "Database.changed_slots: relation sets differ" in
  let rec go i acc a b =
    match (a, b) with
    | ([], []) -> List.rev acc
    | ((n, ra) :: a', (m, rb) :: b') ->
        if not (String.equal n m) then mismatch ();
        go (i + 1) (if ra == rb then acc else (i, n, ra, rb) :: acc) a' b'
    | _ -> mismatch ()
  in
  if old == db then [] else go 0 [] old.rels db.rels

let pp ppf db =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf (_, r) -> Relation.pp ppf r))
    db.rels
