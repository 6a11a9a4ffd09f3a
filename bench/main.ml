(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §3 for the experiment index).

     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe -- fig4    runs one experiment
                                 (fig4 | table1 | iterative | tpch | fig5 |
                                  ablation | micro | scaleup | faults | memory |
                                  udf | serve | overload | recovery)
     dune exec bench/main.exe -- --domains 4 tpch
                                         runs partition work on 4 OCaml
                                         domains (results and cost metrics
                                         are identical; wall clock varies)
     dune exec bench/main.exe -- --skew 1.6 scaleup
                                         Zipf exponent of the skewed
                                         scale-up sections (moves neither
                                         results nor cost metrics) *)

let experiments =
  [ ("table1", Exp_table1.run);
    ("fig4", Exp_fig4.run);
    ("iterative", Exp_iterative.run);
    ("tpch", Exp_tpch.run);
    ("fig5", Exp_fig5.run);
    ("ablation", Exp_ablation.run);
    ("crossover", Exp_crossover.run);
    ("micro", Exp_micro.run);
    ("scaleup", Exp_scaleup.run);
    ("faults", Exp_faults.run);
    ("memory", Exp_memory.run);
    ("udf", Exp_udf.run);
    ("serve", Exp_serve.run);
    ("overload", Exp_overload.run);
    ("recovery", Exp_recovery.run) ]

let () =
  let trace_file = ref None in
  let report_dir = ref None in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
        | Some d when d >= 1 -> Emma_util.Pool.set_default_domains d
        | _ ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" n;
            exit 1);
        parse acc rest
    | "--skew" :: a :: rest ->
        (match float_of_string_opt a with
        | Some alpha when alpha >= 0.0 -> Exp_scaleup.skew_exponent := alpha
        | _ ->
            Printf.eprintf "--skew expects a non-negative float, got %S\n" a;
            exit 1);
        parse acc rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse acc rest
    | "--report" :: dir :: rest ->
        report_dir := Some dir;
        parse acc rest
    | [ ("--domains" | "--skew" | "--trace" | "--report") ] ->
        Printf.eprintf "--domains/--skew/--trace/--report expect a value\n";
        exit 1
    | name :: rest -> parse (name :: acc) rest
    | [] -> List.rev acc
  in
  let args = parse [] args in
  let tracer =
    match !trace_file with
    | None -> Emma_util.Trace.disabled
    | Some _ ->
        let tr = Emma_util.Trace.create () in
        Emma_util.Trace.set_global tr;
        tr
  in
  let selected =
    match args with
    | [] -> List.map fst experiments
    | names -> names
  in
  print_endline "Emma reproduction — experiment harness";
  print_endline "(simulated 40-node cluster; times are cost-model seconds, not wall clock)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
          Exp_common.reset_runs ();
          run ();
          Option.iter (fun dir -> Exp_common.write_report ~dir name) !report_dir
      | None ->
          Printf.eprintf "unknown experiment %S (available: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    selected;
  match !trace_file with
  | Some path ->
      Emma_util.Trace.write_chrome_json tracer path;
      Printf.eprintf "trace written to %s (load in chrome://tracing)\n" path
  | None -> ()
