(* Golden-file tests for the host allocation of each registry program.

   Wall-clock claims on a shared host need many alternating runs;
   allocation on one domain is exact, so a change in what the engine or
   the staged UDFs allocate shows up here as a golden diff in seconds.
   For each registry program on its fixed default inputs (the cluster and
   profile `emma run` uses by default), a warm run — the second in a row,
   after the first has filled every lazily built runtime structure — is
   measured on the calling domain: the minor-heap words it allocates and
   the words it allocates directly in the major heap (major words minus
   promoted words). The run always uses a one-domain pool, whatever
   EMMA_TEST_DOMAINS says, so every partition task runs on the calling
   domain and the counts do not depend on the test's pool size.

   The counts belong to the build profile `dune runtest` uses (a release
   build allocates slightly differently). Regenerate after an intentional
   allocation change with

     EMMA_UPDATE_GOLDEN=1 dune runtest --force

   and justify every diff in the change's notes. *)

module Cluster = Emma.Cluster
module Config = Emma_engine.Config
module Pool = Emma_util.Pool

type alloc = { minor_words : float; major_direct_words : float }

let measure f =
  Gc.minor ();
  let w0, p0, m0 = Gc.counters () in
  f ();
  Gc.minor ();
  let w1, p1, m1 = Gc.counters () in
  { minor_words = w1 -. w0; major_direct_words = m1 -. m0 -. (p1 -. p0) }

let warm_alloc (e : Registry.entry) =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let config = Config.(default |> with_pool (Some pool)) in
      let rt = Emma.spark ~cluster:(Cluster.paper_cluster ~table_scales:e.Registry.table_scales ()) () in
      let algo = Emma.parallelize e.Registry.program in
      let tables = e.Registry.tables () in
      let run () = ignore (Sys.opaque_identity (Emma.run_on_exn ~config rt algo ~tables)) in
      run ();
      measure run)

let render name a =
  Printf.sprintf "program %s\nminor_words %.0f\nmajor_direct_words %.0f\n" name a.minor_words
    a.major_direct_words

let alloc_test (e : Registry.entry) () =
  Helpers.check_golden
    ~what:(Printf.sprintf "allocation of %s" e.Registry.name)
    (Printf.sprintf "alloc_%s.txt" e.Registry.name)
    (render e.Registry.name (warm_alloc e))

let suite =
  [ ( "alloc_golden",
      List.map
        (fun (e : Registry.entry) -> Alcotest.test_case e.Registry.name `Quick (alloc_test e))
        Registry.all ) ]
