open Fdb_relational

let cmp_fun = function
  | Ast.Eq -> fun c -> c = 0
  | Ast.Ne -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0

let no_column schema col =
  Error
    (Printf.sprintf "relation %s has no column %s" (Schema.name schema) col)

let compile schema pred =
  let rec go = function
    | Ast.True -> Ok (fun _ -> true)
    | Ast.Cmp (col, op, lit) -> (
        match Schema.column_index schema col with
        | None -> no_column schema col
        | Some i ->
            let test = cmp_fun op in
            Ok (fun tup -> test (Value.compare (Tuple.get tup i) lit)))
    | Ast.And (a, b) -> combine a b (fun fa fb tup -> fa tup && fb tup)
    | Ast.Or (a, b) -> combine a b (fun fa fb tup -> fa tup || fb tup)
    | Ast.Not p -> (
        match go p with Ok f -> Ok (fun tup -> not (f tup)) | e -> e)
  and combine a b op =
    match (go a, go b) with
    | (Ok fa, Ok fb) -> Ok (op fa fb)
    | ((Error _ as e), _) | (_, (Error _ as e)) -> e
  in
  go pred

let eval schema pred tuple =
  Result.map (fun f -> f tuple) (compile schema pred)

let compile_aggregate schema agg col where =
  match Schema.column_index schema col with
  | None -> no_column schema col
  | Some i -> (
      match (compile schema where, Schema.column_type schema i) with
      | (Error e, _) -> Error e
      | (Ok _, None) -> no_column schema col
      | (Ok test, Some ctype) -> (
          match (agg, ctype) with
          | (Ast.Sum, (Schema.CInt | Schema.CReal)) ->
              let add a b =
                match (a, b) with
                | (Value.Int x, Value.Int y) -> Value.Int (x + y)
                | (Value.Real x, Value.Real y) -> Value.Real (x +. y)
                | _ -> a (* unreachable: schema-checked *)
              in
              let step acc tup =
                if test tup then
                  match acc with
                  | None -> Some (Tuple.get tup i)
                  | Some a -> Some (add a (Tuple.get tup i))
                else acc
              in
              let finish = function
                | None ->
                    Some
                      (match ctype with
                      | Schema.CReal -> Value.Real 0.0
                      | _ -> Value.Int 0)
                | acc -> acc
              in
              Ok (step, finish)
          | (Ast.Sum, (Schema.CStr | Schema.CBool)) ->
              Error
                (Printf.sprintf "cannot sum non-numeric column %s of %s" col
                   (Schema.name schema))
          | ((Ast.Min | Ast.Max), _) ->
              let better =
                match agg with
                | Ast.Min -> fun c -> c < 0
                | _ -> fun c -> c > 0
              in
              let step acc tup =
                if test tup then
                  let v = Tuple.get tup i in
                  match acc with
                  | None -> Some v
                  | Some a -> if better (Value.compare v a) then Some v else acc
                else acc
              in
              Ok (step, fun acc -> acc)))

let compile_update schema col value where =
  match Schema.column_index schema col with
  | None -> no_column schema col
  | Some 0 ->
      Error
        (Printf.sprintf "cannot update the key column %s of %s" col
           (Schema.name schema))
  | Some i -> (
      let type_ok =
        match (Schema.column_type schema i, value) with
        | (Some Schema.CInt, Value.Int _)
        | (Some Schema.CStr, Value.Str _)
        | (Some Schema.CBool, Value.Bool _)
        | (Some Schema.CReal, Value.Real _) ->
            true
        | ( ( Some (Schema.CInt | Schema.CStr | Schema.CBool | Schema.CReal)
            | None ),
            _ ) ->
            false
      in
      if not type_ok then
        Error
          (Format.asprintf "value %a does not fit column %s of %s" Value.pp
             value col (Schema.name schema))
      else
        match compile schema where with
        | Error e -> Error e
        | Ok test ->
            Ok
              (fun tup ->
                if test tup && not (Value.equal (Tuple.get tup i) value)
                then Some (Tuple.set tup i value)
                else None))
