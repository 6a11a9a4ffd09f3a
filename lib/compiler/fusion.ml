open Emma_lang.Expr
module Strset = Emma_util.Strset
module Normalize = Emma_comp.Normalize

type stats = { mutable fused_groups : int; mutable fused_folds : int }

let fresh_stats () = { fused_groups = 0; fused_folds = 0 }

(* A candidate fold over the group values of [g]:
   [[ head | y <- g.values, guards... ]]^fold(fns). *)
type candidate = { c_var : string; c_guards : expr list; c_head : expr; c_fns : fold_fns }

(* Canonical form used to deduplicate structurally equal candidates. *)
let canon c =
  let r e = subst c.c_var (Var "$y") e in
  { c_var = "$y";
    c_guards = List.map r c.c_guards;
    c_head = r c.c_head;
    c_fns =
      { c.c_fns with
        f_empty = r c.c_fns.f_empty;
        f_single = r c.c_fns.f_single;
        f_union = r c.c_fns.f_union } }

let candidate_equal a b = canon a = canon b

(* Does a fold's union beta-reduce to a literal two-parameter lambda?
   The fused union applies it one argument at a time, which evaluation
   cannot do to any other function-valued expression (a [let] or an [if]
   of lambdas). *)
let curried_union fns =
  match fns.f_union with
  | Lam (_, Lam _) -> true
  | u -> ( match beta_reduce u with Lam (_, Lam _) -> true | _ -> false)

(* Does [e] match a fold comprehension over [g].values, with a curried
   union, whose only dependence on the outer comprehension scope is [g]
   itself? *)
let match_candidate g outer_bound e =
  match e with
  | Comp { head; quals = QGen (y, Field (Var g', "values")) :: rest; alg = Alg_fold fns }
    when String.equal g g' && curried_union fns ->
      let guards =
        List.filter_map (function QGuard p -> Some p | QGen _ -> None) rest
      in
      if List.length guards <> List.length rest then None
      else
        let c = { c_var = y; c_guards = guards; c_head = head; c_fns = fns } in
        let parts =
          (head :: guards) @ [ fns.f_empty; fns.f_single; fns.f_union ]
        in
        let fv =
          List.fold_left (fun acc p -> Strset.union acc (free_vars p)) Strset.empty parts
        in
        let fv = Strset.remove y fv in
        (* Must not capture [g] or any other outer generator. *)
        let illegal = Strset.inter fv (Strset.add g outer_bound) in
        if Strset.is_empty illegal then Some c else None
  | _ -> None

(* Replace candidate folds with placeholders [Proj (Field (Var g, "agg"), i)];
   returns the rewritten expression and the accumulated candidate list. *)
let harvest g outer_bound candidates e =
  let rec go e =
    match match_candidate g outer_bound e with
    | Some c ->
        let idx =
          match
            List.find_index (fun c' -> candidate_equal c c') !candidates
          with
          | Some i -> i
          | None ->
              candidates := !candidates @ [ c ];
              List.length !candidates - 1
        in
        Proj (Field (Var g, "agg"), idx)
    | None -> map_children go e
  in
  go e

let conj = function
  | [] -> Const (Emma_value.Value.Bool true)
  | p :: ps -> List.fold_left (fun acc q -> Prim (Emma_lang.Prim.And, [ acc; q ])) p ps

(* Banana split: build the single fused fold over n-tuples. Guarded
   candidates map non-matching elements to their unit, which is sound by
   the fold well-definedness conditions. *)
let fuse_folds candidates =
  let n = List.length candidates in
  assert (n > 0);
  let x = fresh "x" and a = fresh "a" and b = fresh "b" in
  let empties = List.map (fun c -> c.c_fns.f_empty) candidates in
  let singles =
    List.map
      (fun c ->
        let head' = subst c.c_var (Var x) c.c_head in
        let applied = beta_reduce (App (c.c_fns.f_single, head')) in
        match c.c_guards with
        | [] -> applied
        | gs ->
            let guard = subst c.c_var (Var x) (conj gs) in
            If (guard, applied, c.c_fns.f_empty))
      candidates
  in
  let unions =
    List.mapi
      (fun i c -> beta_reduce (App (App (c.c_fns.f_union, Proj (Var a, i)), Proj (Var b, i))))
      candidates
  in
  { f_empty = Tuple empties;
    f_single = Lam (x, Tuple singles);
    f_union = Lam (a, Lam (b, Tuple unions));
    f_tag = Tag_generic }

(* Try to fuse one groupBy generator of a comprehension. *)
let try_fuse stats { head; quals; alg } =
  let bound = comp_bound_vars quals in
  let rec split before = function
    | [] -> None
    | (QGen (g, GroupBy (k, xs)) as qg) :: after -> begin
        let outer_bound = Strset.remove g bound in
        let candidates = ref [] in
        let head' = harvest g outer_bound candidates head in
        let after' =
          List.map
            (function
              | QGen (y, src) -> QGen (y, harvest g outer_bound candidates src)
              | QGuard p -> QGuard (harvest g outer_bound candidates p))
            after
        in
        let alg' =
          match alg with
          | Alg_bag -> Alg_bag
          | Alg_fold fns ->
              Alg_fold
                { fns with
                  f_empty = harvest g outer_bound candidates fns.f_empty;
                  f_single = harvest g outer_bound candidates fns.f_single;
                  f_union = harvest g outer_bound candidates fns.f_union }
        in
        (* Residual uses of [g] must all be key accesses (or the agg
           projections the harvest itself just introduced). *)
        let strip_keys e =
          rewrite_fixpoint
            (function
              | Field (Var g', ("key" | "agg")) when String.equal g g' ->
                  Some (Const (Emma_value.Value.Unit))
              | _ -> None)
            e
        in
        let residual_exprs =
          (head' :: List.map (function QGen (_, s) -> s | QGuard p -> p) after')
          @
          match alg' with
          | Alg_bag -> []
          | Alg_fold fns -> [ fns.f_empty; fns.f_single; fns.f_union ]
        in
        let uses_g_raw =
          List.exists (fun e -> Normalize.occurrences g (strip_keys e) > 0) residual_exprs
        in
        if !candidates = [] || uses_g_raw then split (qg :: before) after
        else begin
          stats.fused_groups <- stats.fused_groups + 1;
          stats.fused_folds <- stats.fused_folds + List.length !candidates;
          let fused = fuse_folds !candidates in
          let gen' = QGen (g, AggBy (k, fused, xs)) in
          Some { head = head'; quals = List.rev_append before (gen' :: after'); alg = alg' }
        end
      end
    | q :: after -> split (q :: before) after
  in
  split [] quals

let expr ?(stats = fresh_stats ()) e =
  rewrite_fixpoint
    (function
      | Comp c -> Option.map (fun c' -> Comp c') (try_fuse stats c)
      | _ -> None)
    e

let program ?(stats = fresh_stats ()) p = map_program_exprs (expr ?stats:(Some stats)) p
