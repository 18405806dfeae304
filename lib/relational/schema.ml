type ctype = CInt | CStr | CBool | CReal

type t = { name : string; cols : (string * ctype) list }

let make ~name ~cols =
  if cols = [] then invalid_arg "Schema.make: no columns";
  let names = List.map fst cols in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Schema.make: duplicate column names";
  { name; cols }

let name s = s.name
let columns s = s.cols
let arity s = List.length s.cols

let column_index s col =
  let rec go i = function
    | [] -> None
    | (c, _) :: rest -> if String.equal c col then Some i else go (i + 1) rest
  in
  go 0 s.cols

let type_ok ctype v =
  match (ctype, v) with
  | (CInt, Value.Int _)
  | (CStr, Value.Str _)
  | (CBool, Value.Bool _)
  | (CReal, Value.Real _) ->
      true
  | ((CInt | CStr | CBool | CReal), _) -> false

(* Columns and values walked together: no list is built per tuple. *)
let matches s tuple =
  let n = Array.length tuple in
  let rec go i = function
    | [] -> i = n
    | (_, ctype) :: rest -> i < n && type_ok ctype tuple.(i) && go (i + 1) rest
  in
  go 0 s.cols

let pp_ctype ppf = function
  | CInt -> Format.fprintf ppf "int"
  | CStr -> Format.fprintf ppf "string"
  | CBool -> Format.fprintf ppf "bool"
  | CReal -> Format.fprintf ppf "real"

let pp ppf s =
  let pp_col ppf (c, ty) = Format.fprintf ppf "%s:%a" c pp_ctype ty in
  Format.fprintf ppf "%s(%a)" s.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_col)
    s.cols
