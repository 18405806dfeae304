type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW of string
  | LBRACKET | RBRACKET
  | LBRACE | RBRACE
  | LPAREN | RPAREN
  | COMMA
  | COLON
  | CARET
  | PARPAR
  | OP of string

exception Lex_error of string * int

let is_keyword = function
  | "if" | "then" | "else" | "RESULT" -> true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_alpha c || is_digit c || c = '?'

let tokens src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if c = ';' && i + 1 < n && src.[i + 1] = ';' then begin
        (* comment to end of line *)
        let j = ref i in
        while !j < n && src.[!j] <> '\n' do
          incr j
        done;
        go !j acc
      end
      else if c = '[' then go (i + 1) (LBRACKET :: acc)
      else if c = ']' then go (i + 1) (RBRACKET :: acc)
      else if c = '{' then go (i + 1) (LBRACE :: acc)
      else if c = '}' then go (i + 1) (RBRACE :: acc)
      else if c = '(' then go (i + 1) (LPAREN :: acc)
      else if c = ')' then go (i + 1) (RPAREN :: acc)
      else if c = ',' then go (i + 1) (COMMA :: acc)
      else if c = ':' then go (i + 1) (COLON :: acc)
      else if c = '^' then go (i + 1) (CARET :: acc)
      else if c = '|' then
        if i + 1 < n && src.[i + 1] = '|' then go (i + 2) (PARPAR :: acc)
        else raise (Lex_error ("expected '||'", i))
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
      else if c = '+' || c = '*' || c = '/' || c = '-' then
        go (i + 1) (OP (String.make 1 c) :: acc)
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then raise (Lex_error ("unterminated string", i))
          else if src.[j] = '"' then j + 1
          else begin
            Buffer.add_char buf src.[j];
            str (j + 1)
          end
        in
        let i' = str (i + 1) in
        go i' (STRING (Buffer.contents buf) :: acc)
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit src.[!j] do
          incr j
        done;
        match int_of_string_opt (String.sub src i (!j - i)) with
        | Some k -> go !j (INT k :: acc)
        | None -> raise (Lex_error ("integer literal out of range", i))
      end
      else if is_alpha c then begin
        (* identifier; interior '-' belongs to the name when followed by a
           letter (apply-stream), otherwise it is subtraction (x-1). *)
        let j = ref i in
        let continue = ref true in
        while !continue do
          if !j < n && is_ident_char src.[!j] then incr j
          else if
            !j + 1 < n && src.[!j] = '-' && is_alpha src.[!j + 1]
          then j := !j + 2
          else continue := false
        done;
        let word = String.sub src i (!j - i) in
        if is_keyword word then go !j (KW word :: acc)
        else go !j (IDENT word :: acc)
      end
      else raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
  in
  go 0 []

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT i -> Format.fprintf ppf "int %d" i
  | STRING s -> Format.fprintf ppf "string %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | LBRACKET -> Format.pp_print_string ppf "["
  | RBRACKET -> Format.pp_print_string ppf "]"
  | LBRACE -> Format.pp_print_string ppf "{"
  | RBRACE -> Format.pp_print_string ppf "}"
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | COLON -> Format.pp_print_string ppf ":"
  | CARET -> Format.pp_print_string ppf "^"
  | PARPAR -> Format.pp_print_string ppf "||"
  | OP s -> Format.fprintf ppf "op %s" s
