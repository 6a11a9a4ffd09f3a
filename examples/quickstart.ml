(* Quickstart: write a program against the Emma surface syntax, develop it
   with the native (host-language) DataBag semantics, then [parallelize] it
   and run it on a simulated distributed engine — nothing in the program
   itself mentions parallelism.

   The program is a small order-analytics query: join orders with customers,
   keep the large orders, and compute revenue per country.

     dune exec examples/quickstart.exe *)

module S = Emma.Surface
module Value = Emma.Value

(* -- a tiny dataset ---------------------------------------------------- *)

let customers =
  let c id name country =
    Value.record [ ("id", Value.int id); ("name", Value.string name); ("country", Value.string country) ]
  in
  [ c 1 "ada" "uk"; c 2 "grace" "us"; c 3 "alan" "uk"; c 4 "edsger" "nl" ]

let orders =
  let o id cust total =
    Value.record [ ("id", Value.int id); ("cust", Value.int cust); ("total", Value.float total) ]
  in
  [ o 100 1 25.0; o 101 1 125.0; o 102 2 80.0; o 103 3 220.0; o 104 4 14.0; o 105 2 310.0 ]

(* -- the Emma program --------------------------------------------------- *)

let program =
  let open S in
  (* for (o <- orders; c <- customers; if o.cust == c.id; if o.total > 50)
     yield {country = c.country; total = o.total}               -- a join!  *)
  let big_orders =
    for_
      [ gen "o" (read "orders");
        gen "c" (read "customers");
        when_ (field (var "o") "cust" = field (var "c") "id");
        when_ (field (var "o") "total" > float_ 50.0) ]
      ~yield:(record [ ("country", field (var "c") "country"); ("total", field (var "o") "total") ])
  in
  (* revenue per country: groupBy + fold, fused into an aggBy by the compiler *)
  let revenue =
    for_
      [ gen "g" (group_by (lam "x" (fun x -> field x "country")) big_orders) ]
      ~yield:
        (record
           [ ("country", field (var "g") "key");
             ("revenue", sum (map (lam "x" (fun x -> field x "total")) (field (var "g") "values"))) ])
  in
  program ~ret:(var "result") [ s_let "result" revenue; write "revenue" (var "result") ]

let () =
  let tables = [ ("orders", orders); ("customers", customers) ] in

  (* 1. develop & debug natively: plain host-language DataBag execution *)
  let algo = Emma.parallelize program in
  let native, _ = Emma.run_native algo ~tables in
  Format.printf "native result:   %a@." Value.pp native;

  (* 2. inspect what the compiler did *)
  let r = algo.Emma.report in
  Format.printf "optimizations:   eq-joins=%d, fused folds=%d@."
    r.Emma.Pipeline.translation.Emma_compiler.Translate.eq_joins
    r.Emma.Pipeline.fusion.Emma_compiler.Fusion.fused_folds;

  (* 3. run the same algorithm on a simulated 40-node Spark-like cluster *)
  let rt = Emma.spark ~cluster:(Emma.Cluster.paper_cluster ()) () in
  match Emma.run_on rt algo ~tables with
  | Emma.Finished { value; metrics; _ } ->
      Format.printf "engine result:   %a@." Value.pp value;
      Format.printf "simulated time:  %.2f s over %d dataflow(s)@."
        metrics.Emma.Metrics.sim_time_s metrics.Emma.Metrics.jobs;
      assert (Value.equal native value);
      print_endline "native and distributed execution agree."
  | Emma.Failed { reason; _ } -> failwith ("engine failed: " ^ reason)
  | Emma.Timed_out { at_s; _ } -> Printf.ksprintf failwith "engine timed out at %.0f s" at_s
  | Emma.Cancelled { at_s; reason; _ } ->
      Printf.ksprintf failwith "engine cancelled at %.0f s: %s" at_s reason
