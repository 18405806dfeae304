open Fdb_relational
module Ast = Fdb_query.Ast

type spec = {
  clients : int;
  relations : int;
  queries_per_client : int;
  initial_tuples : int;
  key_range : int;
  seed : int;
}

let default_spec =
  {
    clients = 3;
    relations = 2;
    queries_per_client = 6;
    initial_tuples = 6;
    key_range = 12;
    seed = 0;
  }

type scenario = {
  spec : spec;
  schemas : Schema.t list;
  initial : (string * Tuple.t list) list;
  streams : Ast.query list list;
}

let check spec =
  if spec.clients < 1 then invalid_arg "Gen: clients < 1";
  if spec.relations < 1 then invalid_arg "Gen: relations < 1";
  if spec.queries_per_client < 0 then invalid_arg "Gen: queries_per_client < 0";
  if spec.initial_tuples < 0 then invalid_arg "Gen: initial_tuples < 0";
  if spec.key_range < 1 then invalid_arg "Gen: key_range < 1"

(* Fixed pools keep generated values small and collision-prone: conflicts
   between clients are the whole point of the oracle. *)
let extra_col_pool = [| "a"; "b"; "c" |]
let string_pool = [| "x"; "y"; "z"; "w"; "v" |]

(* Exact binary fractions: sums are exact, so aggregate responses depend
   only on relation *contents*, never on arrival order. *)
let real_pool = [| 0.5; 1.0; 1.5; 2.5; -0.5 |]

let pick rand arr = arr.(Random.State.int rand (Array.length arr))

let random_ctype rand =
  match Random.State.int rand 4 with
  | 0 -> Schema.CInt
  | 1 -> Schema.CStr
  | 2 -> Schema.CBool
  | _ -> Schema.CReal

let random_value rand ~key_range = function
  | Schema.CInt -> Value.Int (Random.State.int rand (key_range + 2) - 1)
  | Schema.CStr -> Value.Str (pick rand string_pool)
  | Schema.CBool -> Value.Bool (Random.State.bool rand)
  | Schema.CReal -> Value.Real (pick rand real_pool)

let random_schema rand i =
  let extras = 1 + Random.State.int rand (Array.length extra_col_pool) in
  Schema.make
    ~name:(Printf.sprintf "R%d" (i + 1))
    ~cols:
      (("key", Schema.CInt)
      :: List.init extras (fun j -> (extra_col_pool.(j), random_ctype rand)))

let random_key rand spec = Random.State.int rand spec.key_range

let random_tuple rand spec schema key =
  Tuple.make
    (Value.Int key
    :: List.map
         (fun (_, ct) -> random_value rand ~key_range:spec.key_range ct)
         (List.tl (Schema.columns schema)))

let initial_for rand spec schema =
  (* A random subset of the key space, distinct keys. *)
  let keys = Array.init spec.key_range (fun i -> i) in
  for i = spec.key_range - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  let n = min spec.initial_tuples spec.key_range in
  List.init n (fun i -> random_tuple rand spec schema keys.(i))

let random_cmp rand =
  match Random.State.int rand 6 with
  | 0 -> Ast.Eq
  | 1 -> Ast.Ne
  | 2 -> Ast.Lt
  | 3 -> Ast.Le
  | 4 -> Ast.Gt
  | _ -> Ast.Ge

let rec random_pred rand spec schema depth =
  let leaf () =
    if Random.State.int rand 8 = 0 then Ast.True
    else
      let cols = Array.of_list (Schema.columns schema) in
      let (name, ct) = pick rand cols in
      Ast.Cmp (name, random_cmp rand, random_value rand ~key_range:spec.key_range ct)
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int rand 6 with
    | 0 ->
        Ast.And
          ( random_pred rand spec schema (depth - 1),
            random_pred rand spec schema (depth - 1) )
    | 1 ->
        Ast.Or
          ( random_pred rand spec schema (depth - 1),
            random_pred rand spec schema (depth - 1) )
    | 2 -> Ast.Not (random_pred rand spec schema (depth - 1))
    | _ -> leaf ()

let non_key_columns schema = List.tl (Schema.columns schema)

let numeric_columns schema =
  List.filter
    (fun (_, ct) -> match ct with Schema.CInt | Schema.CReal -> true | _ -> false)
    (Schema.columns schema)

let random_query rand spec schemas =
  let schemas = Array.of_list schemas in
  let schema = pick rand schemas in
  let rel =
    (* A sliver of unknown-relation probes keeps the Failed path honest. *)
    if Random.State.int rand 25 = 0 then "Zz" else Schema.name schema
  in
  let roll = Random.State.int rand 100 in
  if roll < 25 then
    Ast.Insert
      { rel;
        values = Array.to_list (random_tuple rand spec schema (random_key rand spec)) }
  else if roll < 45 then Ast.Find { rel; key = Value.Int (random_key rand spec) }
  else if roll < 55 then Ast.Delete { rel; key = Value.Int (random_key rand spec) }
  else if roll < 67 then
    let cols =
      let all = List.map fst (Schema.columns schema) in
      let subset = List.filter (fun _ -> Random.State.bool rand) all in
      if subset = [] then None else Some subset
    in
    Ast.Select { rel; cols; where = random_pred rand spec schema 2 }
  else if roll < 75 then
    Ast.Count { rel; where = random_pred rand spec schema 1 }
  else if roll < 85 then
    let agg =
      match Random.State.int rand 3 with 0 -> Ast.Sum | 1 -> Ast.Min | _ -> Ast.Max
    in
    let col =
      (* Prefer a numeric column; occasionally aggregate a non-numeric one
         to exercise the deterministic Failed response. *)
      match numeric_columns schema with
      | (c, _) :: _ when Random.State.int rand 4 > 0 -> c
      | _ -> fst (pick rand (Array.of_list (Schema.columns schema)))
    in
    Ast.Aggregate { agg; rel; col; where = random_pred rand spec schema 1 }
  else if roll < 95 then
    let (col, ct) = pick rand (Array.of_list (non_key_columns schema)) in
    Ast.Update
      { rel;
        col;
        value = random_value rand ~key_range:spec.key_range ct;
        where = random_pred rand spec schema 1 }
  else
    let right_schema = pick rand schemas in
    let (lc, lct) = pick rand (Array.of_list (Schema.columns schema)) in
    let rc =
      (* Prefer a type-compatible right column so joins sometimes match. *)
      match List.find_opt (fun (_, ct) -> ct = lct) (Schema.columns right_schema) with
      | Some (c, _) -> c
      | None -> fst (pick rand (Array.of_list (Schema.columns right_schema)))
    in
    Ast.Join { left = Schema.name schema; right = Schema.name right_schema; on = (lc, rc) }

let generate spec =
  check spec;
  let rand = Random.State.make [| spec.seed; 0x5eed |] in
  let schemas = List.init spec.relations (random_schema rand) in
  let initial =
    List.map (fun s -> (Schema.name s, initial_for rand spec s)) schemas
  in
  let streams =
    List.init spec.clients (fun _ ->
        List.init spec.queries_per_client (fun _ -> random_query rand spec schemas))
  in
  { spec; schemas; initial; streams }

let initial_db s =
  match Database.of_tuples s.schemas s.initial with
  | Ok db -> db
  | Error e -> invalid_arg ("Gen.initial_db: " ^ e)

let query_count s =
  List.fold_left (fun acc stream -> acc + List.length stream) 0 s.streams

let pp_streams ppf streams =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (tag, q) ->
         Format.fprintf ppf "client %d: %s" tag (Ast.to_string q)))
    (List.concat
       (List.mapi (fun tag stream -> List.map (fun q -> (tag, q)) stream) streams))

let pp_scenario ppf s =
  Format.fprintf ppf "@[<v>seed %d: %d clients x %d queries, %d relations@,%a@]"
    s.spec.seed s.spec.clients s.spec.queries_per_client s.spec.relations
    pp_streams s.streams
