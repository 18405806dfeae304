open Fdb_relational

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* Token-list cursor. *)
type cursor = { mutable toks : Lexer.token list }

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let advance c =
  match c.toks with [] -> fail "unexpected end of query" | _ :: r -> c.toks <- r

let next c =
  match c.toks with
  | [] -> fail "unexpected end of query"
  | t :: r ->
      c.toks <- r;
      t

let expect_kw c kw =
  match next c with
  | Lexer.KW k when String.equal k kw -> ()
  | t -> fail "expected '%s', got %a" kw Lexer.pp_token t

let expect c tok name =
  let t = next c in
  if t <> tok then fail "expected %s, got %a" name Lexer.pp_token t

let ident c =
  match next c with
  | Lexer.IDENT s -> s
  | t -> fail "expected identifier, got %a" Lexer.pp_token t

let literal c =
  match next c with
  | Lexer.INT i -> Value.Int i
  | Lexer.REAL f -> Value.Real f
  | Lexer.STRING s -> Value.Str s
  | Lexer.KW "true" -> Value.Bool true
  | Lexer.KW "false" -> Value.Bool false
  | t -> fail "expected literal, got %a" Lexer.pp_token t

let tuple_literal c =
  expect c Lexer.LPAREN "'('";
  let rec go acc =
    let v = literal c in
    match next c with
    | Lexer.COMMA -> go (v :: acc)
    | Lexer.RPAREN -> List.rev (v :: acc)
    | t -> fail "expected ',' or ')', got %a" Lexer.pp_token t
  in
  go []

let comparison c =
  match next c with
  | Lexer.OP "=" -> Ast.Eq
  | Lexer.OP "!=" -> Ast.Ne
  | Lexer.OP "<" -> Ast.Lt
  | Lexer.OP "<=" -> Ast.Le
  | Lexer.OP ">" -> Ast.Gt
  | Lexer.OP ">=" -> Ast.Ge
  | t -> fail "expected comparison operator, got %a" Lexer.pp_token t

(* pred := conj (or conj)* ; conj := atom (and atom)* ;
   atom := not atom | ( pred ) | true | column cmp literal *)
let rec pred c =
  let left = conj c in
  match peek c with
  | Some (Lexer.KW "or") ->
      advance c;
      Ast.Or (left, pred c)
  | _ -> left

and conj c =
  let left = atom c in
  match peek c with
  | Some (Lexer.KW "and") ->
      advance c;
      Ast.And (left, conj c)
  | _ -> left

and atom c =
  match peek c with
  | Some (Lexer.KW "not") ->
      advance c;
      Ast.Not (atom c)
  | Some Lexer.LPAREN ->
      advance c;
      let p = pred c in
      expect c Lexer.RPAREN "')'";
      p
  | Some (Lexer.KW "true") ->
      advance c;
      Ast.True
  | Some (Lexer.IDENT col) ->
      advance c;
      let op = comparison c in
      let v = literal c in
      Ast.Cmp (col, op, v)
  | Some t -> fail "expected predicate, got %a" Lexer.pp_token t
  | None -> fail "expected predicate, got end of query"

let columns c =
  match peek c with
  | Some Lexer.STAR ->
      advance c;
      None
  | _ ->
      let rec go acc =
        let col = ident c in
        match peek c with
        | Some Lexer.COMMA ->
            advance c;
            go (col :: acc)
        | _ -> List.rev (col :: acc)
      in
      Some (go [])

let query c =
  match next c with
  | Lexer.KW "insert" ->
      let values = tuple_literal c in
      expect_kw c "into";
      let rel = ident c in
      Ast.Insert { rel; values }
  | Lexer.KW "find" ->
      let key = literal c in
      expect_kw c "in";
      let rel = ident c in
      Ast.Find { rel; key }
  | Lexer.KW "delete" ->
      let key = literal c in
      expect_kw c "from";
      let rel = ident c in
      Ast.Delete { rel; key }
  | Lexer.KW "select" ->
      let cols = columns c in
      expect_kw c "from";
      let rel = ident c in
      let where =
        match peek c with
        | Some (Lexer.KW "where") ->
            advance c;
            pred c
        | _ -> Ast.True
      in
      Ast.Select { rel; cols; where }
  | Lexer.KW "count" ->
      let rel = ident c in
      let where =
        match peek c with
        | Some (Lexer.KW "where") ->
            advance c;
            pred c
        | _ -> Ast.True
      in
      Ast.Count { rel; where }
  | Lexer.KW (("sum" | "min" | "max") as verb) ->
      let agg =
        match verb with
        | "sum" -> Ast.Sum
        | "min" -> Ast.Min
        | _ -> Ast.Max
      in
      let col = ident c in
      expect_kw c "from";
      let rel = ident c in
      let where =
        match peek c with
        | Some (Lexer.KW "where") ->
            advance c;
            pred c
        | _ -> Ast.True
      in
      Ast.Aggregate { agg; rel; col; where }
  | Lexer.KW "update" ->
      let rel = ident c in
      expect_kw c "set";
      let col = ident c in
      (match next c with
      | Lexer.OP "=" -> ()
      | t -> fail "expected '=', got %a" Lexer.pp_token t);
      let value = literal c in
      let where =
        match peek c with
        | Some (Lexer.KW "where") ->
            advance c;
            pred c
        | _ -> Ast.True
      in
      Ast.Update { rel; col; value; where }
  | Lexer.KW "join" ->
      let left = ident c in
      expect_kw c "and";
      let right = ident c in
      expect_kw c "on";
      let lc = ident c in
      (match next c with
      | Lexer.OP "=" -> ()
      | t -> fail "expected '=', got %a" Lexer.pp_token t);
      let rc = ident c in
      Ast.Join { left; right; on = (lc, rc) }
  | t -> fail "expected a query verb, got %a" Lexer.pp_token t

let parse src =
  match Lexer.tokens src with
  | exception Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lexical error at %d: %s" pos msg)
  | toks -> (
      let c = { toks } in
      match query c with
      | q -> (
          match c.toks with
          | [] -> Ok q
          | t :: _ ->
              Error
                (Format.asprintf "trailing input after query: %a"
                   Lexer.pp_token t))
      | exception Parse_error msg -> Error msg)

let parse_exn src =
  match parse src with Ok q -> q | Error e -> failwith e

let parse_script src =
  let lines =
    String.split_on_char '\n' src
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun l ->
           l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "--"))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match parse l with
        | Ok q -> go (q :: acc) rest
        | Error e -> Error (Printf.sprintf "in %S: %s" l e))
  in
  go [] lines
