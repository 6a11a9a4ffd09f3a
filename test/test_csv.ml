module Value = Emma_value.Value
module Csv = Emma_io.Csv
open Helpers

let sample_rows =
  [ Value.record
      [ ("id", Value.Int 1);
        ("name", Value.String "plain");
        ("score", Value.Float 1.5);
        ("ok", Value.Bool true);
        ("pos", Value.Vector [| 1.0; -2.5 |]);
        ("body", Value.blob ~bytes:1000 ~tag:7) ];
    Value.record
      [ ("id", Value.Int (-2));
        ("name", Value.String "with, comma and \"quotes\"\nand newline");
        ("score", Value.Float (-0.125));
        ("ok", Value.Bool false);
        ("pos", Value.Vector [||]);
        ("body", Value.blob ~bytes:0 ~tag:0) ] ]

let test_roundtrip () =
  let back = Csv.of_string (Csv.to_string sample_rows) in
  check_bag "round trip" sample_rows back

let test_header_format () =
  let s = Csv.to_string sample_rows in
  let header = List.hd (String.split_on_char '\n' s) in
  Alcotest.(check string) "typed header"
    "id:int,name:string,score:float,ok:bool,pos:vector,body:blob" header

let test_unsupported () =
  let expect_unsupported rows =
    match Csv.to_string rows with
    | exception Csv.Unsupported _ -> ()
    | _ -> Alcotest.fail "expected Unsupported"
  in
  expect_unsupported [];
  expect_unsupported [ Value.Int 1 ];
  expect_unsupported [ Value.record [ ("xs", Value.bag [ Value.Int 1 ]) ] ]

let test_parse_errors () =
  let expect_error s =
    match Csv.of_string s with
    | exception Csv.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  expect_error "";
  expect_error "a\n1\n";
  (* no :type *)
  expect_error "a:int\nnotanint\n";
  expect_error "a:int,b:int\n1\n";
  (* wrong arity *)
  expect_error "a:string\n\"unterminated\n"

let test_files_and_dirs () =
  let dir = Filename.temp_file "emma_csv" "" in
  Sys.remove dir;
  let t1 = [ Value.record [ ("k", Value.Int 1) ]; Value.record [ ("k", Value.Int 2) ] ] in
  let t2 = [ Value.record [ ("v", Value.Float 0.5) ] ] in
  Csv.write_tables ~dir [ ("alpha", t1); ("beta", t2) ];
  let tables = Csv.read_tables ~dir in
  Alcotest.(check (list string)) "table names" [ "alpha"; "beta" ] (List.map fst tables);
  check_bag "alpha" t1 (List.assoc "alpha" tables);
  check_bag "beta" t2 (List.assoc "beta" tables);
  (* cleanup *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_workload_roundtrip () =
  (* generated workloads survive the CSV round trip *)
  let cfg = Emma_workloads.Tpch_gen.of_scale_factor 0.0001 in
  let lineitem = Emma_workloads.Tpch_gen.lineitem ~seed:1 cfg in
  check_bag "tpch lineitem" lineitem (Csv.of_string (Csv.to_string lineitem));
  let emails =
    Emma_workloads.Email_gen.emails ~seed:1
      (Emma_workloads.Email_gen.paper_config ~physical_emails:20)
  in
  check_bag "emails (blob bodies)" emails (Csv.of_string (Csv.to_string emails))

let scalar_record_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (map2
         (fun i s ->
           Value.record
             [ ("i", Value.Int i);
               ("s", Value.String s);
               ("f", Value.Float (float_of_int i /. 3.0)) ])
         (int_range (-1000) 1000)
         (string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; 'z' ]) (int_bound 6))))

let prop_roundtrip =
  Helpers.qcheck_case "csv round trip on adversarial strings" ~count:100 scalar_record_gen
    (fun rows ->
      let back = Csv.of_string (Csv.to_string rows) in
      Value.equal (Value.bag rows) (Value.bag back))

(* Parser robustness: on any input, [of_string] returns rows or raises
   [Parse_error], and nothing else. The inputs are every prefix of a
   valid table with one column of each scalar type, and random byte edits
   of it. *)
let typed_table_gen =
  QCheck2.Gen.(
    let str = string_size ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; ';'; ' ' ]) (int_bound 6) in
    let row =
      map
        (fun (i, s, (f, ok, pos)) ->
          Value.record
            [ ("i", Value.Int i);
              ("s", Value.String s);
              ("f", Value.Float f);
              ("ok", Value.Bool ok);
              ("pos", Value.Vector (Array.of_list pos)) ])
        (triple int str (triple float bool (list_size (int_bound 3) float)))
    in
    map Csv.to_string (list_size (int_range 1 4) row))

let parses_or_parse_error s =
  match Csv.of_string s with
  | _ -> true
  | exception Csv.Parse_error _ -> true
  | exception e -> QCheck2.Test.fail_reportf "%S raised %s" s (Printexc.to_string e)

let prop_prefixes_fail_cleanly =
  Helpers.qcheck_case "every prefix parses or raises Parse_error" ~count:100 typed_table_gen
    (fun text ->
      List.for_all parses_or_parse_error
        (List.init (String.length text + 1) (fun n -> String.sub text 0 n)))

(* An edit replaces, inserts or deletes one byte at a position taken
   modulo the text's length. *)
let apply_edit text (kind, pos, c) =
  let n = String.length text in
  if n = 0 then String.make 1 c
  else
    let pos = pos mod n in
    let before = String.sub text 0 pos and from i = String.sub text i (n - i) in
    match kind with
    | 0 -> before ^ String.make 1 c ^ from (pos + 1)
    | 1 -> before ^ String.make 1 c ^ from pos
    | _ -> before ^ from (pos + 1)

let prop_edits_fail_cleanly =
  Helpers.qcheck_case "random byte edits parse or raise Parse_error" ~count:500
    QCheck2.Gen.(
      pair typed_table_gen
        (list_size (int_range 1 8)
           (triple (int_bound 2) nat
              (frequency
                 [ (3, oneofl [ ','; '"'; '\n'; ':'; ';'; '-'; '.'; 'e'; '0'; ' ' ]);
                   (1, char) ]))))
    (fun (text, edits) -> parses_or_parse_error (List.fold_left apply_edit text edits))

let suite =
  [ ( "csv",
      [ Alcotest.test_case "round trip" `Quick test_roundtrip;
        Alcotest.test_case "typed header" `Quick test_header_format;
        Alcotest.test_case "unsupported shapes" `Quick test_unsupported;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "files and directories" `Quick test_files_and_dirs;
        Alcotest.test_case "workload round trip" `Quick test_workload_roundtrip;
        prop_roundtrip;
        prop_prefixes_fail_cleanly;
        prop_edits_fail_cleanly ] ) ]
