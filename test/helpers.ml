(* Shared test utilities: value testables, semantic-equivalence checks, and
   qcheck generators for random pipelines over a base table. *)

module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module Eval = Emma_lang.Eval
module S = Emma_lang.Surface

(* The tier-1 suite routes engine partition work through the default domain
   pool; EMMA_TEST_DOMAINS sets its size (default 2, so every engine test
   also exercises the multicore path; set 1 to force sequential). Requests
   up to 8 are always honored — running 8 domains on fewer cores is exactly
   the oversubscribed preemption schedule the domain pool must
   tolerate — and anything above is clamped to the host's recommended
   domain count so a wild value cannot exhaust the runtime's domain limit.
   Results and cost-model metrics are identical at every size — that is
   itself what test_parallel.ml checks. *)
let test_domains =
  let ceiling = max 8 (Domain.recommended_domain_count ()) in
  match Option.bind (Sys.getenv_opt "EMMA_TEST_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> min n ceiling
  | _ -> 2

let () = Emma_util.Pool.set_default_domains test_domains

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal

let check_value = Alcotest.check value_testable

(* Bags compare order-insensitively through Value.compare already. *)
let check_bag msg expected actual =
  Alcotest.check value_testable msg (Value.bag expected) (Value.bag actual)

let ctx_with tables =
  let ctx = Eval.create_ctx () in
  List.iter (fun (name, rows) -> Eval.register_table ctx name rows) tables;
  ctx

let eval_expr ?(tables = []) e = Eval.eval_value (ctx_with tables) Eval.empty_env e

let run_program ?(tables = []) p = Eval.eval_program (ctx_with tables) p

(* Check that a rewrite preserved semantics on the given tables. *)
let assert_equiv ?(tables = []) msg e1 e2 =
  check_value msg (eval_expr ~tables e1) (eval_expr ~tables e2)

(* Outcome classification: a compiled or engine run must either produce
   the same value or raise the same classified error as the oracle. *)
type outcome = Val of Value.t | Err of string

let classify f =
  match f () with
  | v -> Val v
  | exception Eval.Eval_error m -> Err ("Eval_error: " ^ m)
  | exception Value.Type_error m -> Err ("Type_error: " ^ m)
  | exception Invalid_argument m -> Err ("Invalid_argument: " ^ m)

let outcome_testable : outcome Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | Val v -> Format.fprintf fmt "Val %a" Value.pp v
      | Err m -> Format.fprintf fmt "Err %s" m)
    (fun a b ->
      match (a, b) with
      | Val x, Val y -> Value.equal x y
      | Err x, Err y -> String.equal x y
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Random pipelines for property tests                                  *)
(* ------------------------------------------------------------------ *)

(* Rows of shape {a : int; b : int}. *)
let row a b = Value.record [ ("a", Value.Int a); ("b", Value.Int b) ]

let rows_gen =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (map2 (fun a b -> row a b) (int_range (-20) 20) (int_range 0 5)))

(* Two optimizer shapes over {a; b} tables "t1" and "t2". Matmul: an
   equi-join on b whose products are grouped by a tuple key and summed,
   which fold-group fusion turns into one aggBy. Triangles: an equi-join
   guarded by an exists whose predicate compares a field of each outer
   generator, so the guard unnests into a composite-key semi-join after
   the join. *)
let matmul_shape =
  S.(
    for_
      [ gen "g"
          (group_by
             (lam "p" (fun p -> tup [ field p "i"; field p "j" ]))
             (for_
                [ gen "x" (read "t1");
                  gen "y" (read "t2");
                  when_ (field (var "x") "b" = field (var "y") "b") ]
                ~yield:
                  (record
                     [ ("i", field (var "x") "a" mod int_ 3);
                       ("j", field (var "y") "a" mod int_ 2);
                       ("v", field (var "x") "a" * field (var "y") "a") ]))) ]
      ~yield:
        (record
           [ ("a", sum (map (lam "p" (fun p -> field p "v")) (field (var "g") "values")));
             ("b", proj (field (var "g") "key") 0) ]))

let triangle_shape =
  S.(
    for_
      [ gen "x" (read "t1");
        gen "y" (read "t2");
        when_ (field (var "x") "b" = field (var "y") "b");
        when_
          (exists
             (lam "z" (fun z ->
                  (field z "a" = field (var "x") "a") && (field z "b" = field (var "y") "a")))
             (read "t1")) ]
      ~yield:
        (record [ ("a", field (var "x") "a" * field (var "y") "a"); ("b", field (var "y") "a") ]))

(* A random chain of DataBag operators over the "rows" table, written
   against the desugared surface (exactly what user code looks like). *)
let pipeline_gen =
  let open QCheck2.Gen in
  let base = pure (S.read "rows") in
  let step e_gen =
    e_gen >>= fun e ->
    oneof
      [ (* map: project/transform the record *)
        pure
          (S.map
             (S.lam "x" (fun x ->
                  S.record [ ("a", S.(field x "a" + int_ 1)); ("b", S.field x "b") ]))
             e);
        (* filter on a *)
        (int_range (-10) 10 >|= fun k ->
         S.with_filter (S.lam "x" (fun x -> S.(field x "a" > int_ k))) e);
        (* flatMap duplicating the element *)
        pure (S.flat_map (S.lam "x" (fun x -> S.bag_of [ x; x ])) e);
        (* union with itself filtered *)
        pure (S.union e (S.with_filter (S.lam "x" (fun x -> S.(field x "b" = int_ 0))) e))
      ]
  in
  int_bound 4 >>= fun depth ->
  let rec build n acc = if n = 0 then acc else build (n - 1) (step acc) in
  build depth base

(* Optionally terminate the pipeline with an aggregate. *)
let terminated_pipeline_gen =
  let open QCheck2.Gen in
  pipeline_gen >>= fun e ->
  oneofl
    [ e;
      S.sum (S.map (S.lam "x" (fun x -> S.field x "a")) e);
      S.count e;
      S.exists (S.lam "x" (fun x -> S.(field x "a" > int_ 5))) e ]

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Cluster [c] at one simulated second per record: the cost model puts
   every non-empty stage far above [Exec.inline_work_s], so on a
   multi-domain pool every barrier with rows to process is dispatched.
   Differential tests that must exercise the pool, even on inputs of a
   dozen rows, run on such a cluster. *)
let dispatching (c : Emma_engine.Cluster.t) = { c with Emma_engine.Cluster.per_record_cpu = 1.0 }

(* ------------------------------------------------------------------ *)
(* Golden files                                                         *)
(* ------------------------------------------------------------------ *)

(* Golden files live in test/golden/. Regenerate after an intentional
   change with

     EMMA_UPDATE_GOLDEN=1 dune runtest --force

   which rewrites the files in the source tree and fails nothing. *)
let update_golden = Sys.getenv_opt "EMMA_UPDATE_GOLDEN" = Some "1"

let find_sub hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

(* Tests execute in _build/default/test; golden updates must land in the
   source tree (strip the "/_build/default" segment from the cwd) so they
   can be committed. Reads try the source tree first, then the sandbox
   copy dune stages via the (deps (glob_files golden/*.txt)) stanza. *)
let golden_dir_candidates () =
  let cwd = Sys.getcwd () in
  let seg = "/_build/default" in
  let src =
    match find_sub cwd seg with
    | Some i ->
        (* under dune runtest: cwd is _build/default/test *)
        [ Filename.concat
            (String.sub cwd 0 i
            ^ String.sub cwd
                (i + String.length seg)
                (String.length cwd - i - String.length seg))
            "golden" ]
    | None ->
        (* under dune exec from the project root *)
        [ Filename.concat cwd "test/golden" ]
  in
  src @ [ Filename.concat cwd "golden" ]

let golden_write_dirs () =
  match golden_dir_candidates () with
  | src :: rest ->
      (* source tree first so the update can be committed; also refresh
         the staged _build copy when it exists *)
      src :: List.filter (fun d -> Sys.file_exists d) rest
  | [] -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Compare [got] with golden/[file] (or rewrite it under
   EMMA_UPDATE_GOLDEN=1); [what] names the output in the failure. *)
let check_golden ~what file got =
  if update_golden then
    List.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        write_file (Filename.concat dir file) got)
      (golden_write_dirs ())
  else
    let dirs = golden_dir_candidates () in
    match List.find_opt (fun d -> Sys.file_exists (Filename.concat d file)) dirs with
    | None ->
        Alcotest.failf "golden file %s missing; run EMMA_UPDATE_GOLDEN=1 dune runtest"
          file
    | Some dir ->
        let expected = read_file (Filename.concat dir file) in
        if got <> expected then
          Alcotest.failf
            "%s drifted from golden/%s (if intentional, regenerate with \
             EMMA_UPDATE_GOLDEN=1 dune runtest).\n\
             --- expected ---\n\
             %s\n\
             --- got ---\n\
             %s"
            what file expected got
