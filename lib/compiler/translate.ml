open Emma_lang.Expr
module P = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog
module Strset = Emma_util.Strset

type stats = {
  mutable semi_joins : int;
  mutable anti_joins : int;
  mutable eq_joins : int;
  mutable crosses : int;
  mutable filters : int;
  mutable broadcast_filters : int;
}

let fresh_stats () =
  { semi_joins = 0; anti_joins = 0; eq_joins = 0; crosses = 0; filters = 0;
    broadcast_filters = 0 }

(* Work items during comprehension translation: generators whose source
   does not depend on earlier generators carry a plan; dependent generators
   and guards stay as expressions. *)
type titem =
  | TGen of string * P.t
  | TDep of string * expr
  | TGuard of expr

let titem_var = function TGen (x, _) | TDep (x, _) -> Some x | TGuard _ -> None

let bound_vars items =
  List.fold_left
    (fun acc it -> match titem_var it with Some x -> Strset.add x acc | None -> acc)
    Strset.empty items

let is_exists_guard = function
  | Comp { alg = Alg_fold { f_tag = Tag_exists; _ }; _ } -> true
  | _ -> false

(* a negated exists: the anti-join form (forall guards are rewritten to
   this shape by the normalizer via ¬∃¬) *)
let is_anti_guard = function
  | Prim (Emma_lang.Prim.Not, [ g ]) -> is_exists_guard g
  | _ -> false

let udf x body = P.udf_of_expr (Lam (x, body))

let rec conjuncts = function
  | Prim (Emma_lang.Prim.And, [ a; b ]) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let conj = function
  | [] -> Const (Emma_value.Value.Bool true)
  | p :: ps -> List.fold_left (fun acc q -> Prim (Emma_lang.Prim.And, [ acc; q ])) p ps

let tuple1 = function [ e ] -> e | es -> Tuple es

(* ------------------------------------------------------------------ *)

let rec to_plan ?(unnest = true) ?(stats = fresh_stats ()) e : P.t =
  let recur e = to_plan ~unnest ~stats e in
  match e with
  | Read (Src_table t) -> P.Read t
  | Var x -> P.Scan x
  | BagOf _ | Range _ | Const _ -> P.Local e
  | Union (a, b) -> P.Union (recur a, recur b)
  | Minus (a, b) -> P.Minus (recur a, recur b)
  | Distinct a -> P.Distinct (recur a)
  | GroupBy (k, xs) -> P.Group_by (P.udf_of_expr k, recur xs)
  | AggBy (k, fns, xs) -> P.Agg_by { key = P.udf_of_expr k; fold = fns; input = recur xs }
  | Fold (fns, xs) -> P.Fold (fns, recur xs)
  | Map (f, xs) -> P.Map (P.udf_of_expr f, recur xs)
  | FlatMap (f, xs) -> P.Flat_map (P.udf_of_expr f, recur xs)
  | Filter (p, xs) -> P.Filter (P.udf_of_expr p, recur xs)
  | Flatten inner ->
      let x = fresh "x" in
      P.Flat_map (udf x (Var x), recur inner)
  | Comp c -> translate_comp ~unnest ~stats c
  | Stateful_create { key; init } ->
      P.Stateful_create { key = P.udf_of_expr key; init = recur init }
  | Stateful_bag (Var s) -> P.Stateful_read s
  | Stateful_update { state = Var s; udf } ->
      P.Stateful_update { state = s; udf = P.udf_of_expr udf }
  | Stateful_update_msgs { state = Var s; msg_key; messages; udf } ->
      P.Stateful_update_msgs
        { state = s;
          msg_key = P.udf_of_expr msg_key;
          messages = recur messages;
          udf = P.udf2_of_expr udf }
  | Stateful_bag _ | Stateful_update _ | Stateful_update_msgs _ ->
      failwith "translate: stateful bags must be bound to driver variables"
  (* Anything else bag-valued is evaluated in the driver and parallelized
     on demand (e.g. an [If] choosing between two small local bags). *)
  | e -> P.Local e

(* ------------------------------------------------------------------ *)
(* The Fig. 3a state machine                                            *)
(* ------------------------------------------------------------------ *)

and translate_comp ~unnest ~stats { head; quals; alg } =
  let recur e = to_plan ~unnest ~stats e in
  (* Convert qualifiers, deciding generator independence left to right. *)
  let items =
    let rec convert bound = function
      | [] -> []
      | QGen (x, src) :: rest ->
          let it =
            if Strset.is_empty (Strset.inter (free_vars src) bound) then TGen (x, recur src)
            else TDep (x, src)
          in
          it :: convert (Strset.add x bound) rest
      | QGuard p :: rest -> TGuard p :: convert bound rest
    in
    convert Strset.empty quals
  in

  (* -- Pass A: push simple one-variable selections into their source -- *)
  let push_filters items =
    let bound = bound_vars items in
    let rec indep_gens = function
      | [] -> []
      | TGen (x, _) :: rest -> x :: indep_gens rest
      | _ :: rest -> indep_gens rest
    in
    let indep = indep_gens items in
    let try_push p items =
      let deps = Strset.elements (Strset.inter (free_vars p) bound) in
      match deps with
      | [ x ] when List.mem x indep ->
          let rec attach = function
            | [] -> None
            | TGen (y, pl) :: rest when String.equal y x ->
                stats.filters <- stats.filters + 1;
                Some (TGen (y, P.Filter (udf x p, pl)) :: rest)
            | it :: rest -> Option.map (fun r -> it :: r) (attach rest)
          in
          attach items
      | [] -> begin
          (* Driver-only predicate: filter the first independent generator. *)
          match items with
          | TGen (y, pl) :: rest ->
              stats.filters <- stats.filters + 1;
              Some (TGen (y, P.Filter (udf (fresh "_u") p, pl)) :: rest)
          | _ -> None
        end
      | _ -> None
    in
    let rec go acc = function
      | [] -> (List.rev acc, false)
      | TGuard p :: rest when not (is_exists_guard p || is_anti_guard p) -> begin
          match try_push p (List.rev_append acc rest) with
          | Some items' -> (items', true)
          | None -> go (TGuard p :: acc) rest
        end
      | it :: rest -> go (it :: acc) rest
    in
    let rec fix items =
      let items', changed = go [] items in
      if changed then fix items' else items'
    in
    fix items
  in
  let items = push_filters items in

  (* -- Pass B: exists guards become semi-joins, negated exists guards
     become anti-joins ---------------------------------------------------- *)
  let try_semi_join ~anti p items =
    match p with
    | Comp { head = pred; quals = iquals; alg = Alg_fold { f_tag = Tag_exists; _ } } -> begin
        let bound = bound_vars items in
        match iquals with
        | QGen (y, ysrc) :: irest
          when Strset.is_empty (Strset.inter (free_vars ysrc) bound)
               && List.for_all (function QGuard _ -> true | QGen _ -> false) irest -> begin
            let inner_guards =
              List.filter_map (function QGuard g -> Some g | QGen _ -> None) irest
            in
            let cs = List.concat_map conjuncts (pred :: inner_guards) in
            (* Classify conjuncts relative to the (unique) outer generator
               they touch. *)
            let outer_var_of c =
              Strset.elements (Strset.inter (free_vars c) bound)
            in
            let eqs = ref [] and y_only = ref [] and x_only = ref [] in
            let ok = ref true in
            let classify c =
              let fv = free_vars c in
              let outer = outer_var_of c in
              let refs_y = Strset.mem y fv in
              match (outer, refs_y, c) with
              | [], true, _ -> y_only := c :: !y_only
              | [], false, _ -> y_only := c :: !y_only (* driver-only: prefilter *)
              | [ x ], false, _ -> x_only := (x, c) :: !x_only
              | [ x ], true, Prim (Emma_lang.Prim.Eq, [ a; b ]) ->
                  let fa = free_vars a and fb = free_vars b in
                  if Strset.mem x fa && (not (Strset.mem y fa)) && Strset.mem y fb
                     && not (Strset.mem x fb)
                  then eqs := (x, a, b) :: !eqs
                  else if
                    Strset.mem y fa
                    && (not (Strset.mem x fa))
                    && Strset.mem x fb
                    && not (Strset.mem y fb)
                  then eqs := (x, b, a) :: !eqs
                  else ok := false
              | _ -> ok := false
            in
            List.iter classify cs;
            match !eqs with
            | [] -> None
            | (x0, _, _) :: _ when !ok && List.for_all (fun (x, _, _) -> String.equal x x0) !eqs
              -> begin
                (* All equality conjuncts link the same outer generator. *)
                let rec attach = function
                  | [] -> None
                  | TGen (x, pl) :: rest when String.equal x x0 ->
                      let lkeys = List.map (fun (_, a, _) -> a) !eqs in
                      let rkeys = List.map (fun (_, _, b) -> b) !eqs in
                      let right = recur ysrc in
                      let right =
                        match !y_only with
                        | [] -> right
                        | gs -> P.Filter (udf y (conj gs), right)
                      in
                      let joined =
                        P.Join
                          { kind = (if anti then P.Anti else P.Semi);
                            lkey = udf x (tuple1 lkeys);
                            rkey = udf y (tuple1 rkeys);
                            left = pl;
                            right }
                      in
                      if anti then begin
                        (* ¬∃(y, A(x) ∧ eq ∧ B(y)) does not factor through
                           x-only conjuncts: bail out if any are present *)
                        if !x_only <> [] then None
                        else begin
                          stats.anti_joins <- stats.anti_joins + 1;
                          Some (TGen (x, joined) :: rest)
                        end
                      end
                      else begin
                        (* Residual x-only conjuncts stay as a filter above. *)
                        let with_x =
                          match List.filter (fun (x, _) -> String.equal x x0) !x_only with
                          | [] -> joined
                          | gs -> P.Filter (udf x (conj (List.map snd gs)), joined)
                        in
                        if List.exists (fun (x, _) -> not (String.equal x x0)) !x_only then None
                        else begin
                          stats.semi_joins <- stats.semi_joins + 1;
                          Some (TGen (x, with_x) :: rest)
                        end
                      end
                  | it :: rest -> Option.map (fun r -> it :: r) (attach rest)
                in
                attach items
              end
            | _ -> None
          end
        | _ -> None
      end
    | _ -> None
  in
  let quantifier_pass items =
    if not unnest then items
    else begin
      let rec go acc = function
        | [] -> List.rev acc
        | TGuard p :: rest when is_exists_guard p -> begin
            match try_semi_join ~anti:false p (List.rev_append acc rest) with
            | Some items' ->
                (* The guard was consumed; restart on the rewritten list. *)
                let consumed_removed =
                  (* items' is the full list minus nothing: we rebuilt from
                     acc+rest which already excludes this guard. *)
                  items'
                in
                go [] consumed_removed
            | None -> go (TGuard p :: acc) rest
          end
        | TGuard (Prim (Emma_lang.Prim.Not, [ g ])) :: rest when is_exists_guard g -> begin
            match try_semi_join ~anti:true g (List.rev_append acc rest) with
            | Some items' -> go [] items'
            | None -> go (TGuard (Prim (Emma_lang.Prim.Not, [ g ])) :: acc) rest
          end
        | it :: rest -> go (it :: acc) rest
      in
      go [] items
    end
  in
  let items = quantifier_pass items in

  (* -- Pass C: equality guards become equi-joins ---------------------- *)
  let subst_items x repl items =
    List.map
      (function
        | TGen (y, pl) -> TGen (y, pl)
        | TDep (y, src) -> TDep (y, subst x repl src)
        | TGuard p -> TGuard (subst x repl p))
      items
  in
  let find_eq_pair items =
    (* A guard Eq(a, b) where each side references exactly one bound
       variable and the two are distinct independent generators. *)
    let indep =
      List.filter_map (function TGen (x, _) -> Some x | _ -> None) items
    in
    let bound = bound_vars items in
    let rec go acc = function
      | [] -> None
      | TGuard (Prim (Emma_lang.Prim.Eq, [ a; b ])) :: rest -> begin
          let fa = Strset.inter (free_vars a) bound in
          let fb = Strset.inter (free_vars b) bound in
          match (Strset.elements fa, Strset.elements fb) with
          | [ x ], [ y ]
            when (not (String.equal x y)) && List.mem x indep && List.mem y indep ->
              Some (List.rev acc, x, a, y, b, rest)
          | _ -> go (TGuard (Prim (Emma_lang.Prim.Eq, [ a; b ])) :: acc) rest
        end
      | it :: rest -> go (it :: acc) rest
    in
    go [] items
  in
  (* Substitutions for the head and algebra are accumulated here because
     the head is rewritten only once, at the end. *)
  let joined_heads : (string * string * string) list ref = ref [] in
  let rec join_pass items =
    match find_eq_pair items with
    | None -> items
    | Some (before, x, ka, y, kb, after) ->
        (* Gather every other eq guard linking the same pair. *)
        let extra_eqs = ref [] in
        let residue =
          List.filter
            (function
              | TGuard (Prim (Emma_lang.Prim.Eq, [ a; b ])) -> begin
                  let fva = free_vars a and fvb = free_vars b in
                  let only v e = Strset.mem v e && Strset.cardinal (Strset.inter e (bound_vars items)) = 1 in
                  if only x fva && only y fvb then begin
                    extra_eqs := (a, b) :: !extra_eqs;
                    false
                  end
                  else if only y fva && only x fvb then begin
                    extra_eqs := (b, a) :: !extra_eqs;
                    false
                  end
                  else true
                end
              | _ -> true)
            (before @ after)
        in
        let plan_of v =
          List.find_map
            (function TGen (w, pl) when String.equal w v -> Some pl | _ -> None)
            items
        in
        (match (plan_of x, plan_of y) with
        | Some plx, Some ply ->
            let all_eqs = (ka, kb) :: List.rev !extra_eqs in
            let lkeys = List.map fst all_eqs and rkeys = List.map snd all_eqs in
            let v = fresh "v" in
            let joined =
              P.Join
                { kind = P.Inner;
                  lkey = udf x (tuple1 lkeys);
                  rkey = udf y (tuple1 rkeys);
                  left = plx;
                  right = ply }
            in
            stats.eq_joins <- stats.eq_joins + 1;
            (* Replace the two generators: the joined generator takes the
               earlier position; occurrences rewrite to projections. *)
            let placed = ref false in
            let items' =
              List.filter_map
                (fun it ->
                  match it with
                  | TGen (w, _) when String.equal w x || String.equal w y ->
                      if !placed then None
                      else begin
                        placed := true;
                        Some (TGen (v, joined))
                      end
                  | it -> Some it)
                residue
            in
            let items' = subst_items x (Proj (Var v, 0)) items' in
            let items' = subst_items y (Proj (Var v, 1)) items' in
            joined_heads := (v, x, y) :: !joined_heads;
            join_pass items'
        | _ -> items)
  in
  let items = join_pass items in
  (* a quantifier whose equality conjuncts straddled two generators can be
     extracted now that the join merged them into one *)
  let items = quantifier_pass items in

  (* Count quantifier guards that survive to the residual UDF. *)
  List.iter
    (function
      | TGuard p when is_exists_guard p || is_anti_guard p ->
          stats.broadcast_filters <- stats.broadcast_filters + 1
      | _ -> ())
    items;

  (* -- Pass D: remaining independent pairs become cross products ------- *)
  let rec cross_pass items =
    let gens = List.filter_map (function TGen (x, p) -> Some (x, p) | _ -> None) items in
    match gens with
    | (x, plx) :: (y, ply) :: _ ->
        let v = fresh "v" in
        stats.crosses <- stats.crosses + 1;
        let placed = ref false in
        let items' =
          List.filter_map
            (fun it ->
              match it with
              | TGen (w, _) when String.equal w x || String.equal w y ->
                  if !placed then None
                  else begin
                    placed := true;
                    Some (TGen (v, P.Cross (plx, ply)))
                  end
              | it -> Some it)
            items
        in
        let items' = subst_items x (Proj (Var v, 0)) items' in
        let items' = subst_items y (Proj (Var v, 1)) items' in
        joined_heads := (v, x, y) :: !joined_heads;
        cross_pass items'
    | _ -> items
  in
  let items = cross_pass items in

  (* Apply the accumulated pair substitutions to head and algebra. *)
  let apply_pair_substs e =
    List.fold_left
      (fun e (v, x, y) -> subst y (Proj (Var v, 1)) (subst x (Proj (Var v, 0)) e))
      e (List.rev !joined_heads)
  in
  let head = apply_pair_substs head in
  let alg =
    match alg with
    | Alg_bag -> Alg_bag
    | Alg_fold fns ->
        Alg_fold
          { fns with
            f_empty = apply_pair_substs fns.f_empty;
            f_single = apply_pair_substs fns.f_single;
            f_union = apply_pair_substs fns.f_union }
  in

  (* -- Residual: one generator plus dependent tail --------------------- *)
  let finish_bag items =
    match items with
    | [] -> P.Local (BagOf [ head ])
    | TGen (x, pl) :: rest ->
        if rest = [] then
          match head with
          | Var x' when String.equal x x' -> pl
          | _ -> P.Map (udf x (beta_reduce head), pl)
        else
          let rest_quals =
            List.map
              (function
                | TDep (y, src) -> QGen (y, src)
                | TGuard p -> QGuard p
                | TGen (y, _) ->
                    (* Unreachable: cross_pass merged all independent
                       generators into one. *)
                    QGen (y, Var y))
              rest
          in
          let body = Comp { head; quals = rest_quals; alg = Alg_bag } in
          P.Flat_map (udf x (beta_reduce body), pl)
    | (TDep _ | TGuard _) :: _ ->
        (* No independent generator at the front: evaluate locally. *)
        P.Local (Comp { head; quals = List.map
                          (function
                            | TDep (y, src) -> QGen (y, src)
                            | TGuard p -> QGuard p
                            | TGen (y, _) -> QGen (y, Var y))
                          items;
                        alg = Alg_bag })
  in
  match alg with
  | Alg_bag -> finish_bag items
  | Alg_fold fns -> P.Fold (fns, finish_bag items)

(* ------------------------------------------------------------------ *)
(* Program translation: split statements into driver expr + thunks      *)
(* ------------------------------------------------------------------ *)

let translatable e =
  is_bag_op e
  ||
  match e with
  | Fold _ | Comp { alg = Alg_fold _; _ } | Stateful_create _ -> true
  | _ -> false

let split_rhs ~unnest ~stats e : Cprog.rhs =
  let thunks = ref [] in
  let rec go e =
    if translatable e then begin
      let p = to_plan ~unnest ~stats e in
      let n = fresh "$t" in
      thunks := (n, p) :: !thunks;
      Var n
    end
    else map_children go e
  in
  let expr = go e in
  { Cprog.expr; thunks = List.rev !thunks }

let program ?(unnest = true) ?(stats = fresh_stats ()) ({ body; ret } : program) : Cprog.t =
  let rec go_stmt s =
    match s with
    | SLet (x, e) -> Cprog.CLet (x, split_rhs ~unnest ~stats e)
    | SVar (x, e) -> Cprog.CVar (x, split_rhs ~unnest ~stats e)
    | SAssign (x, e) -> Cprog.CAssign (x, split_rhs ~unnest ~stats e)
    | SWhile (c, b) -> Cprog.CWhile (split_rhs ~unnest ~stats c, List.map go_stmt b)
    | SIf (c, t, e) ->
        Cprog.CIf (split_rhs ~unnest ~stats c, List.map go_stmt t, List.map go_stmt e)
    | SWrite (Snk_table t, e) -> Cprog.CWrite (t, split_rhs ~unnest ~stats e)
  in
  { Cprog.cbody = List.map go_stmt body; cret = split_rhs ~unnest ~stats ret }
