module Slot_table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* The catalog is built once by [create] and shared by every version
   derived from it: the relation names in schema order and a name -> slot
   table that is never written after construction, so versions on other
   domains read it freely. *)
type catalog = {
  names : string array;
  name_list : string list;
  index : int Slot_table.t;
}

(* A version is the catalog plus one relation per slot, in schema order.
   [replace] copies the slot array and nothing else. *)
type t = { cat : catalog; rels : Relation.t array }

let create ?backend schemas =
  let name_list = List.map Schema.name schemas in
  let index = Slot_table.create (2 * List.length schemas) in
  List.iteri
    (fun i name ->
      if Slot_table.mem index name then
        invalid_arg "Database.create: duplicate relation names";
      Slot_table.add index name i)
    name_list;
  {
    cat = { names = Array.of_list name_list; name_list; index };
    rels = Array.of_list (List.map (Relation.create ?backend) schemas);
  }

let names db = db.cat.name_list

let slots db =
  List.init (Array.length db.rels) (fun i -> (db.cat.names.(i), db.rels.(i)))

let contents db =
  List.init (Array.length db.rels) (fun i ->
      (db.cat.names.(i), Relation.to_list db.rels.(i)))

let relation db name =
  match Slot_table.find_opt db.cat.index name with
  | Some i -> Some db.rels.(i)
  | None -> None

let schema_of db name = Option.map Relation.schema (relation db name)

let replace db name rel =
  match Slot_table.find_opt db.cat.index name with
  | None -> invalid_arg ("Database.replace: unknown relation " ^ name)
  | Some i ->
      let rels = Array.copy db.rels in
      rels.(i) <- rel;
      { db with rels }

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
  Array.fold_left (fun acc r -> acc + Relation.size r) 0 db.rels

let load db ~rel tuples =
  List.fold_left
    (fun acc tup ->
      match acc with
      | Error _ as e -> e
      | Ok db -> Result.map fst (insert db ~rel tup))
    (Ok db) tuples

let rec tuples_of name = function
  | [] -> None
  | (n, tuples) :: rest ->
      if String.equal n name then Some tuples else tuples_of name rest

let of_tuples ?backend schemas initial =
  let db = create ?backend schemas in
  let rels = Array.copy db.rels in
  let rec go i = function
    | [] -> Ok { db with rels }
    | schema :: rest -> (
        match tuples_of (Schema.name schema) initial with
        | None -> go (i + 1) rest
        | Some tuples -> (
            match Relation.of_tuples ?backend schema tuples with
            | Ok rel ->
                rels.(i) <- rel;
                go (i + 1) rest
            | Error _ as e -> e))
  in
  go 0 schemas

let shares_relation ~old db name =
  match (relation old name, relation db name) with
  | (Some a, Some b) -> a == b
  | _ -> false

(* Versions of one [create] share its catalog, so only versions built by
   separate [create] calls (a decoded checkpoint against the live writer,
   say) compare their names. *)
let same_relations a b =
  a.cat == b.cat
  || Array.length a.cat.names = Array.length b.cat.names
     && Array.for_all2 String.equal a.cat.names b.cat.names

let changed_slots ~old db =
  if old == db then []
  else begin
    if not (same_relations old db) then
      invalid_arg "Database.changed_slots: relation sets differ";
    let acc = ref [] in
    for i = Array.length db.rels - 1 downto 0 do
      let ra = old.rels.(i) and rb = db.rels.(i) in
      if ra != rb then acc := (i, db.cat.names.(i), ra, rb) :: !acc
    done;
    !acc
  end

let pp ppf db =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Relation.pp)
    (Array.to_list db.rels)
