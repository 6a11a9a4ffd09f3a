module Value = Emma_value.Value

exception Parse_error of { line : int; message : string }
exception Unsupported of string

let parse_error line fmt = Printf.ksprintf (fun m -> raise (Parse_error { line; message = m })) fmt

type column_type = Cint | Cfloat | Cbool | Cstring | Cvector | Cblob

let type_name = function
  | Cint -> "int"
  | Cfloat -> "float"
  | Cbool -> "bool"
  | Cstring -> "string"
  | Cvector -> "vector"
  | Cblob -> "blob"

let type_of_name line = function
  | "int" -> Cint
  | "float" -> Cfloat
  | "bool" -> Cbool
  | "string" -> Cstring
  | "vector" -> Cvector
  | "blob" -> Cblob
  | t -> parse_error line "unknown column type %S" t

let column_type_of_value = function
  | Value.Int _ -> Cint
  | Value.Float _ -> Cfloat
  | Value.Bool _ -> Cbool
  | Value.String _ -> Cstring
  | Value.Vector _ -> Cvector
  | Value.Blob _ -> Cblob
  | v -> raise (Unsupported (Printf.sprintf "CSV cannot hold a %s field" (Value.type_name v)))

(* ---- field quoting ---------------------------------------------------- *)

let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let render_cell ty v =
  let raw =
    match (ty, v) with
    | Cint, Value.Int n -> string_of_int n
    | Cfloat, Value.Float f -> Printf.sprintf "%.17g" f
    | Cbool, Value.Bool b -> string_of_bool b
    | Cstring, Value.String s -> s
    | Cvector, Value.Vector a ->
        String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
    | Cblob, Value.Blob { bytes; tag } -> Printf.sprintf "%d;%d" bytes tag
    | ty, v ->
        raise
          (Unsupported
             (Printf.sprintf "column of type %s cannot hold a %s" (type_name ty)
                (Value.type_name v)))
  in
  if needs_quoting raw then quote raw else raw

let parse_cell line ty raw =
  let fail () = parse_error line "cannot parse %S as %s" raw (type_name ty) in
  match ty with
  | Cint -> ( match int_of_string_opt raw with Some n -> Value.Int n | None -> fail ())
  | Cfloat -> ( match float_of_string_opt raw with Some f -> Value.Float f | None -> fail ())
  | Cbool -> ( match bool_of_string_opt raw with Some b -> Value.Bool b | None -> fail ())
  | Cstring -> Value.String raw
  | Cvector ->
      if String.equal raw "" then Value.Vector [||]
      else
        let parts = String.split_on_char ';' raw in
        let comps =
          List.map
            (fun p -> match float_of_string_opt p with Some f -> f | None -> fail ())
            parts
        in
        Value.Vector (Array.of_list comps)
  | Cblob -> begin
      match String.split_on_char ';' raw with
      | [ b; t ] -> begin
          match (int_of_string_opt b, int_of_string_opt t) with
          | Some bytes, Some tag -> Value.blob ~bytes ~tag
          | _ -> fail ()
        end
      | _ -> fail ()
    end

(* ---- writing ----------------------------------------------------------- *)

let schema_of_first_row = function
  | Value.Record fields ->
      Array.to_list (Array.map (fun (n, v) -> (n, column_type_of_value v)) fields)
  | v -> raise (Unsupported (Printf.sprintf "CSV rows must be records, got %s" (Value.type_name v)))

let to_string rows =
  match rows with
  | [] -> raise (Unsupported "cannot infer a CSV schema from an empty table")
  | first :: _ ->
      let schema = schema_of_first_row first in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (String.concat "," (List.map (fun (n, t) -> n ^ ":" ^ type_name t) schema));
      Buffer.add_char buf '\n';
      List.iter
        (fun row ->
          let cells =
            List.map
              (fun (name, ty) ->
                let v =
                  try Value.field row name
                  with Value.Type_error m -> raise (Unsupported m)
                in
                render_cell ty v)
              schema
          in
          Buffer.add_string buf (String.concat "," cells);
          Buffer.add_char buf '\n')
        rows;
      Buffer.contents buf

(* ---- reading ----------------------------------------------------------- *)

(* Split one logical CSV record starting at [pos]; returns cells and the
   position after the record's newline. Quoted cells may contain embedded
   newlines. *)
let split_record s pos line =
  let n = String.length s in
  let cells = ref [] in
  let buf = Buffer.create 32 in
  let rec unquoted i =
    if i >= n then finish i
    else
      match s.[i] with
      | ',' ->
          cells := Buffer.contents buf :: !cells;
          Buffer.clear buf;
          unquoted (i + 1)
      | '\n' -> finish (i + 1)
      | '\r' when i + 1 < n && s.[i + 1] = '\n' -> finish (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          unquoted (i + 1)
  and quoted i =
    if i >= n then parse_error line "unterminated quoted cell"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> unquoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  and finish next =
    cells := Buffer.contents buf :: !cells;
    (List.rev !cells, next)
  in
  unquoted pos

let of_string s =
  let n = String.length s in
  if n = 0 then raise (Parse_error { line = 1; message = "empty input" });
  let header, pos = split_record s 0 1 in
  let schema =
    List.map
      (fun cell ->
        match String.index_opt cell ':' with
        | Some i ->
            ( String.sub cell 0 i,
              type_of_name 1 (String.sub cell (i + 1) (String.length cell - i - 1)) )
        | None -> parse_error 1 "header cell %S lacks a :type annotation" cell)
      header
  in
  let ncols = List.length schema in
  let rec rows pos line acc =
    if pos >= n then List.rev acc
    else begin
      let cells, pos' = split_record s pos line in
      if cells = [ "" ] then rows pos' (line + 1) acc (* trailing blank line *)
      else begin
        if List.length cells <> ncols then
          parse_error line "expected %d cells, found %d" ncols (List.length cells);
        let fields =
          List.map2 (fun (name, ty) raw -> (name, parse_cell line ty raw)) schema cells
        in
        rows pos' (line + 1) (Value.record fields :: acc)
      end
    end
  in
  rows pos 2 []

(* ---- files ------------------------------------------------------------- *)

let write_file path rows =
  (* temp-then-rename so a crash mid-write never leaves a torn CSV *)
  Emma_util.Wal.write_atomic path (to_string rows)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let write_tables ~dir tables =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter (fun (name, rows) -> write_file (Filename.concat dir (name ^ ".csv")) rows) tables

let table_files ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".csv" then
           Some (Filename.chop_suffix f ".csv", Filename.concat dir f)
         else None)
  |> List.sort compare

let read_tables ~dir = List.map (fun (name, path) -> (name, read_file path)) (table_files ~dir)
