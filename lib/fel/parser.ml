exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { mutable toks : Lexer.token list }

let peek c = match c.toks with [] -> None | t :: _ -> Some t


let next c =
  match c.toks with
  | [] -> fail "unexpected end of program"
  | t :: r ->
      c.toks <- r;
      t

let expect c tok name =
  let t = next c in
  if t <> tok then fail "expected %s, got %a" name Lexer.pp_token t

let ident c =
  match next c with
  | Lexer.IDENT x -> x
  | t -> fail "expected identifier, got %a" Lexer.pp_token t

(* Does the cursor start with a destructuring pattern "[x, y, ...] ="? *)
let starts_tuple_pattern c =
  let rec scan = function
    | Lexer.IDENT _ :: Lexer.COMMA :: rest -> scan rest
    | Lexer.IDENT _ :: Lexer.RBRACKET :: Lexer.OP "=" :: _ -> true
    | _ -> false
  in
  match c.toks with Lexer.LBRACKET :: rest -> scan rest | _ -> false

let rec expr c =
  match peek c with
  | Some (Lexer.KW "if") ->
      ignore (next c);
      let cond = expr c in
      expect c (Lexer.KW "then") "'then'";
      let t = expr c in
      expect c (Lexer.KW "else") "'else'";
      let e = expr c in
      Ast.If (cond, t, e)
  | _ -> seq_expr c

(* e ^ s, right associative *)
and seq_expr c =
  let left = map_expr c in
  match peek c with
  | Some Lexer.CARET ->
      ignore (next c);
      Ast.Seq (left, seq_expr c)
  | _ -> left

(* f || s, left associative *)
and map_expr c =
  let rec go acc =
    match peek c with
    | Some Lexer.PARPAR ->
        ignore (next c);
        go (Ast.Map (acc, cmp_expr c))
    | _ -> acc
  in
  go (cmp_expr c)

(* comparisons, non-associative *)
and cmp_expr c =
  let left = add_expr c in
  match peek c with
  | Some (Lexer.OP (("=" | "!=" | "<" | "<=" | ">" | ">=") as op)) ->
      ignore (next c);
      Ast.Binop (op, left, add_expr c)
  | _ -> left

and add_expr c =
  let rec go acc =
    match peek c with
    | Some (Lexer.OP (("+" | "-") as op)) ->
        ignore (next c);
        go (Ast.Binop (op, acc, mul_expr c))
    | _ -> acc
  in
  go (mul_expr c)

and mul_expr c =
  let rec go acc =
    match peek c with
    | Some (Lexer.OP (("*" | "/") as op)) ->
        ignore (next c);
        go (Ast.Binop (op, acc, app_expr c))
    | _ -> acc
  in
  go (app_expr c)

(* f:x, left associative and tight *)
and app_expr c =
  let rec go acc =
    match peek c with
    | Some Lexer.COLON ->
        ignore (next c);
        go (Ast.App (acc, atom c))
    | _ -> acc
  in
  go (atom c)

and atom c =
  match next c with
  | Lexer.IDENT x -> Ast.Var x
  | Lexer.INT n -> Ast.Int_lit n
  | Lexer.STRING s -> Ast.Str_lit s
  | Lexer.LPAREN ->
      let e = expr c in
      expect c Lexer.RPAREN "')'";
      e
  | Lexer.LBRACKET -> (
      match peek c with
      | Some Lexer.RBRACKET ->
          ignore (next c);
          Ast.Nil_lit
      | _ ->
          let rec elements acc =
            let e = expr c in
            match next c with
            | Lexer.COMMA -> elements (e :: acc)
            | Lexer.RBRACKET -> List.rev (e :: acc)
            | t -> fail "expected ',' or ']', got %a" Lexer.pp_token t
          in
          Ast.List (elements []))
  | Lexer.LBRACE ->
      let (eqs, res) = block_body c in
      expect c Lexer.RBRACE "'}'";
      Ast.Block (eqs, res)
  | t -> fail "expected expression, got %a" Lexer.pp_token t

(* equations and RESULT, comma-separated *)
and block_body c =
  let rec go eqs =
    match peek c with
    | Some (Lexer.KW "RESULT") ->
        ignore (next c);
        let res = expr c in
        (List.rev eqs, res)
    | _ ->
        let eq = equation c in
        (match peek c with
        | Some Lexer.COMMA -> ignore (next c)
        | _ -> ());
        go (eq :: eqs)
  in
  go []

and equation c =
  if starts_tuple_pattern c then begin
    ignore (next c);
    (* LBRACKET *)
    let rec names acc =
      let x = ident c in
      match next c with
      | Lexer.COMMA -> names (x :: acc)
      | Lexer.RBRACKET -> List.rev (x :: acc)
      | t -> fail "expected ',' or ']', got %a" Lexer.pp_token t
    in
    let xs = names [] in
    expect c (Lexer.OP "=") "'='";
    Ast.Def_val (Ast.Ptuple xs, expr c)
  end
  else
    let name = ident c in
    match peek c with
    | Some Lexer.COLON ->
        ignore (next c);
        let pat =
          match next c with
          | Lexer.IDENT x -> Ast.Pvar x
          | Lexer.LBRACKET ->
              let rec names acc =
                let x = ident c in
                match next c with
                | Lexer.COMMA -> names (x :: acc)
                | Lexer.RBRACKET -> List.rev (x :: acc)
                | t -> fail "expected ',' or ']', got %a" Lexer.pp_token t
              in
              Ast.Ptuple (names [])
          | t -> fail "expected parameter pattern, got %a" Lexer.pp_token t
        in
        expect c (Lexer.OP "=") "'='";
        Ast.Def_fun (name, pat, expr c)
    | Some (Lexer.OP "=") ->
        ignore (next c);
        Ast.Def_val (Ast.Pvar name, expr c)
    | Some t -> fail "expected ':' or '=' in equation, got %a" Lexer.pp_token t
    | None -> fail "unexpected end of equation"

let wrap f src =
  match Lexer.tokens src with
  | exception Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lexical error at %d: %s" pos msg)
  | toks -> (
      let c = { toks } in
      match f c with
      | v -> (
          match c.toks with
          | [] -> Ok v
          | t :: _ ->
              Error (Format.asprintf "trailing input: %a" Lexer.pp_token t))
      | exception Parse_error msg -> Error msg)

let parse_expr src = wrap expr src

let parse_program src =
  wrap
    (fun c ->
      let (eqs, res) = block_body c in
      { Ast.equations = eqs; result = res })
    src

let parse_program_exn src =
  match parse_program src with Ok p -> p | Error e -> failwith e
