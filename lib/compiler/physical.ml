module P = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Strset = Emma_util.Strset

type report = { cached_vars : string list; partitioned_vars : string list }

(* ------------------------------------------------------------------ *)
(* Caching                                                              *)
(* ------------------------------------------------------------------ *)

(* A bag binding qualifies for caching when the total number of references
   (scans by later dataflows plus UDF broadcast captures) is at least two,
   or when any reference sits in a deeper loop than the definition. *)

let bag_binding = function
  | Cprog.CLet (x, r) | Cprog.CVar (x, r) -> begin
      match Cprog.plan_of_rhs r with
      | Some p when P.result_kind p = P.Rbag -> Some x
      | _ -> None
    end
  | _ -> None

let plan_refs p =
  (* Scan references and UDF captures, by name. Broadcast annotations are
     not filled in yet at this stage, so capture sets are recomputed. *)
  let scans = P.scanned_vars p in
  let p' = P.annotate_broadcasts ~bound:Strset.empty p in
  scans @ P.broadcast_vars p'

let collect_defs_and_refs prog =
  let defs = Hashtbl.create 16 in
  (* definition name -> loop depth *)
  let refs = Hashtbl.create 16 in
  (* name -> (count, max ref depth) *)
  let note_ref depth x =
    let count, d = Option.value (Hashtbl.find_opt refs x) ~default:(0, 0) in
    Hashtbl.replace refs x (count + 1, max d depth)
  in
  Cprog.iter_stmts_with_depth
    (fun depth s ->
      (match bag_binding s with
      | Some x -> if not (Hashtbl.mem defs x) then Hashtbl.add defs x depth
      | None -> ());
      let rhs_of = function
        | Cprog.CLet (_, r) | Cprog.CVar (_, r) | Cprog.CAssign (_, r) | Cprog.CWrite (_, r)
        | Cprog.CWhile (r, _) | Cprog.CIf (r, _, _) ->
            r
      in
      let r = rhs_of s in
      List.iter (fun (_, p) -> List.iter (note_ref depth) (plan_refs p)) r.Cprog.thunks)
    prog;
  (defs, refs)

let wrap_binding_plans names wrap prog =
  (* Rewrites the defining (and reassigning) statements of the given
     bindings, wrapping their bag-valued plan. *)
  let rewrite_for x r =
    if not (List.mem x names) then r
    else
      match Cprog.plan_of_rhs r with
      | Some p when P.result_kind p = P.Rbag ->
          Cprog.{ r with thunks = List.map (fun (n, _) -> (n, wrap x p)) r.thunks }
      | _ -> r
  in
  let rec go_stmt = function
    | Cprog.CLet (x, r) -> Cprog.CLet (x, rewrite_for x r)
    | Cprog.CVar (x, r) -> Cprog.CVar (x, rewrite_for x r)
    | Cprog.CAssign (x, r) -> Cprog.CAssign (x, rewrite_for x r)
    | Cprog.CWhile (c, b) -> Cprog.CWhile (c, List.map go_stmt b)
    | Cprog.CIf (c, t, e) -> Cprog.CIf (c, List.map go_stmt t, List.map go_stmt e)
    | Cprog.CWrite (t, r) -> Cprog.CWrite (t, r)
  in
  Cprog.{ prog with cbody = List.map go_stmt prog.cbody }

let insert_caching prog =
  let defs, refs = collect_defs_and_refs prog in
  let cached =
    Hashtbl.fold
      (fun x def_depth acc ->
        match Hashtbl.find_opt refs x with
        | Some (count, ref_depth) when count >= 2 || ref_depth > def_depth -> x :: acc
        | _ -> acc)
      defs []
  in
  let cached = List.sort String.compare cached in
  (wrap_binding_plans cached (fun _ p -> P.Cache p) prog, cached)

(* ------------------------------------------------------------------ *)
(* Partition pulling                                                    *)
(* ------------------------------------------------------------------ *)

(* Trace a consumer's key through element-preserving operators down to the
   producing scan. *)
let rec trace_to_scan plan =
  match plan with
  | P.Scan v -> Some v
  | P.Filter (_, p) | P.Cache p | P.Partition_by (_, p) -> trace_to_scan p
  | P.Join { kind = Semi | Anti; left; _ } -> trace_to_scan left
  | _ -> None

let key_is_pure (k : P.udf) =
  Strset.is_empty (Strset.remove k.param (Emma_lang.Expr.free_vars k.body))

let collect_desires prog =
  (* name -> list of (key udf, weight) *)
  let desires : (string, (P.udf * int) list) Hashtbl.t = Hashtbl.create 16 in
  let note v k weight =
    if key_is_pure k then begin
      let existing = Option.value (Hashtbl.find_opt desires v) ~default:[] in
      Hashtbl.replace desires v ((k, weight) :: existing)
    end
  in
  let weight_of depth = (4 * depth) + 1 in
  Cprog.iter_stmts_with_depth
    (fun depth s ->
      let rhs_of = function
        | Cprog.CLet (_, r) | Cprog.CVar (_, r) | Cprog.CAssign (_, r) | Cprog.CWrite (_, r)
        | Cprog.CWhile (r, _) | Cprog.CIf (r, _, _) ->
            r
      in
      let w = weight_of depth in
      List.iter
        (fun (_, plan) ->
          P.fold_plan
            (fun () node ->
              match node with
              | P.Join { lkey; rkey; left; right; _ } ->
                  Option.iter (fun v -> note v lkey w) (trace_to_scan left);
                  Option.iter (fun v -> note v rkey w) (trace_to_scan right)
              | P.Group_by (k, input) | P.Agg_by { key = k; input; _ } ->
                  Option.iter (fun v -> note v k w) (trace_to_scan input)
              | _ -> ())
            () plan)
        (rhs_of s).Cprog.thunks)
    prog;
  desires

let pick_key entries =
  (* Group alpha-equal keys; pick the highest cumulative weight. *)
  let rec add groups (k, w) =
    match groups with
    | [] -> [ (k, w) ]
    | (k', w') :: rest ->
        if P.udf_alpha_equal k k' then (k', w' + w) :: rest else (k', w') :: add rest (k, w)
  in
  match List.fold_left add [] entries with
  | [] -> None
  | groups ->
      let best = List.fold_left (fun (bk, bw) (k, w) -> if w > bw then (k, w) else (bk, bw))
                   (List.hd groups) (List.tl groups)
      in
      Some (fst best)

let partition_pulling prog =
  let desires = collect_desires prog in
  let chosen =
    Hashtbl.fold
      (fun v entries acc ->
        match pick_key entries with Some k -> (v, k) :: acc | None -> acc)
      desires []
  in
  (* Only pull partitionings onto loop-invariant producers: bindings
     defined at the top level and never reassigned. Enforcing a
     partitioning on a binding that is recomputed every iteration would be
     paid every iteration anyway (the paper's Fig. 4 discussion: without a
     reuse point, pulling has no effect). *)
  let eligible =
    let defined = ref [] and assigned = ref [] in
    Cprog.iter_stmts_with_depth
      (fun depth s ->
        (match bag_binding s with
        | Some x when depth = 0 -> defined := x :: !defined
        | Some _ | None -> ());
        match s with
        | Cprog.CAssign (x, _) -> assigned := x :: !assigned
        | _ -> ())
      prog;
    List.filter (fun x -> not (List.mem x !assigned)) !defined
  in
  let chosen = List.filter (fun (v, _) -> List.mem v eligible) chosen in
  let names = List.sort String.compare (List.map fst chosen) in
  let wrap v p =
    match List.assoc_opt v chosen with
    | Some k -> begin
        (* Keep Cache outermost: Cache (Partition_by (k, p)). *)
        match p with
        | P.Cache inner -> P.Cache (P.Partition_by (k, inner))
        | p -> P.Partition_by (k, p)
      end
    | None -> p
  in
  (wrap_binding_plans names wrap prog, names)

(* ------------------------------------------------------------------ *)

let annotate_broadcasts prog =
  Cprog.map_rhs
    (fun r ->
      Cprog.
        { r with
          thunks =
            List.map
              (fun (n, p) -> (n, P.annotate_broadcasts ~bound:Strset.empty p))
              r.thunks })
    prog

(* ------------------------------------------------------------------ *)

let udf_compile_stats prog =
  (* Counts the UDF sites the engine will stage through
     [Emma_lang.Compile]: reified unary/binary UDFs, fold algebras, and the
     subset of UDFs that capture no driver variables ("closed" — these
     compile to fully environment-free closures). Purely an analysis: the
     plans themselves are not changed. *)
  let udfs = ref 0 and udf2s = ref 0 and folds = ref 0 and closed = ref 0 in
  let udf (u : P.udf) =
    incr udfs;
    if u.P.broadcast = [] then incr closed
  in
  let udf2 (u : P.udf2) =
    incr udf2s;
    if u.P.broadcast2 = [] then incr closed
  in
  Cprog.iter_plans
    (fun plan ->
      P.fold_plan
        (fun () node ->
          match node with
          | P.Map (u, _) | P.Flat_map (u, _) | P.Filter (u, _)
          | P.Group_by (u, _) | P.Partition_by (u, _) ->
              udf u
          | P.Join { lkey; rkey; _ } ->
              udf lkey;
              udf rkey
          | P.Agg_by { key; _ } ->
              udf key;
              incr folds
          | P.Fold (_, _) -> incr folds
          | P.Stateful_create { key; _ } -> udf key
          | P.Stateful_update { udf = u; _ } -> udf u
          | P.Stateful_update_msgs { msg_key; udf = u; _ } ->
              udf msg_key;
              udf2 u
          | P.Read _ | P.Scan _ | P.Local _ | P.Cross _ | P.Union _ | P.Minus _
          | P.Distinct _ | P.Cache _ | P.Stateful_read _ ->
              ())
        () plan)
    prog;
  [ ("udfs", string_of_int !udfs);
    ("udf2s", string_of_int !udf2s);
    ("fold algebras", string_of_int !folds);
    ("closed", string_of_int !closed) ]
