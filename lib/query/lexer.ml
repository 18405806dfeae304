type token =
  | IDENT of string
  | INT of int
  | REAL of float
  | STRING of string
  | KW of string
  | LPAREN
  | RPAREN
  | COMMA
  | STAR
  | OP of string

exception Lex_error of string * int

let keywords =
  [ "insert"; "into"; "find"; "in"; "delete"; "from"; "select"; "where";
    "count"; "sum"; "min"; "max"; "update"; "set"; "join"; "and"; "or";
    "not"; "on"; "true"; "false" ]

module Words = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Each keyword maps to itself, so a [KW] token shares the table's string.
   Built once and never written after, so domains read it freely. *)
let keyword_table =
  let t = Words.create 64 in
  List.iter (fun k -> Words.replace t k k) keywords;
  t

let is_digit c = c >= '0' && c <= '9'
let is_upper c = c >= 'A' && c <= 'Z'
let is_alpha c = (c >= 'a' && c <= 'z') || is_upper c || c = '_'
let is_alnum c = is_alpha c || is_digit c

let tokens src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if c = '(' then go (i + 1) (LPAREN :: acc)
      else if c = ')' then go (i + 1) (RPAREN :: acc)
      else if c = ',' then go (i + 1) (COMMA :: acc)
      else if c = '*' then go (i + 1) (STAR :: acc)
      else if c = '=' then go (i + 1) (OP "=" :: acc)
      else if c = '!' then
        if i + 1 < n && src.[i + 1] = '=' then go (i + 2) (OP "!=" :: acc)
        else raise (Lex_error ("expected '=' after '!'", i))
      else if c = '<' then
        if i + 1 < n && src.[i + 1] = '=' then go (i + 2) (OP "<=" :: acc)
        else go (i + 1) (OP "<" :: acc)
      else if c = '>' then
        if i + 1 < n && src.[i + 1] = '=' then go (i + 2) (OP ">=" :: acc)
        else go (i + 1) (OP ">" :: acc)
      else if c = '"' || c = '\'' then begin
        let quote = c in
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then raise (Lex_error ("unterminated string", i))
          else if src.[j] = quote then j + 1
          else begin
            Buffer.add_char buf src.[j];
            str (j + 1)
          end
        in
        let i' = str (i + 1) in
        go i' (STRING (Buffer.contents buf) :: acc)
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit src.[i + 1])
      then begin
        let j = ref (if c = '-' then i + 1 else i) in
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        if !j < n && src.[!j] = '.' then begin
          incr j;
          while !j < n && is_digit src.[!j] do
            incr j
          done;
          let s = String.sub src i (!j - i) in
          go !j (REAL (float_of_string s) :: acc)
        end
        else
          let s = String.sub src i (!j - i) in
          match int_of_string_opt s with
          | Some k -> go !j (INT k :: acc)
          | None -> raise (Lex_error ("integer literal out of range", i))
      end
      else if is_alpha c then begin
        let j = ref i and upper = ref false in
        while !j < n && is_alnum src.[!j] do
          if is_upper src.[!j] then upper := true;
          incr j
        done;
        let word = String.sub src i (!j - i) in
        let lower = if !upper then String.lowercase_ascii word else word in
        match Words.find_opt keyword_table lower with
        | Some kw -> go !j (KW kw :: acc)
        | None -> go !j (IDENT word :: acc)
      end
      else raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
  in
  go 0 []

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT i -> Format.fprintf ppf "int %d" i
  | REAL f -> Format.fprintf ppf "real %g" f
  | STRING s -> Format.fprintf ppf "string %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | STAR -> Format.pp_print_string ppf "*"
  | OP s -> Format.fprintf ppf "op %s" s
