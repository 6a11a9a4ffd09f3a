open Emma_lang.Expr
module Strset = Emma_util.Strset

let has_stateful_effect e =
  (* [Stateful_bag] is a read of mutable state: moving or duplicating it
     across updates changes what it observes, so inliners must treat it
     like an effect too *)
  exists_expr
    (function
      | Stateful_update _ | Stateful_update_msgs _ | Stateful_create _ | Stateful_bag _ ->
          true
      | _ -> false)
    e

let rec occurrences x e =
  match e with
  | Var y -> if String.equal x y then 1 else 0
  | Const _ | Read _ -> 0
  | Lam (y, b) -> if String.equal x y then 0 else occurrences x b
  | Let (y, a, b) ->
      occurrences x a + if String.equal x y then 0 else occurrences x b
  | Comp { head; quals; alg } ->
      (* the fold algebra is evaluated outside the comprehension's scope *)
      let rec go = function
        | [] -> occurrences x head
        | QGen (y, src) :: rest ->
            occurrences x src + if String.equal y x then 0 else go rest
        | QGuard p :: rest -> occurrences x p + go rest
      in
      go quals
      +
      (match alg with
      | Alg_bag -> 0
      | Alg_fold fns ->
          occurrences x fns.f_empty + occurrences x fns.f_single + occurrences x fns.f_union)
  | Fold (fns, xs) ->
      occurrences x fns.f_empty + occurrences x fns.f_single + occurrences x fns.f_union
      + occurrences x xs
  | AggBy (k, fns, xs) ->
      occurrences x k + occurrences x fns.f_empty + occurrences x fns.f_single
      + occurrences x fns.f_union + occurrences x xs
  | e ->
      let n = ref 0 in
      ignore
        (map_children
           (fun c ->
             n := !n + occurrences x c;
             c)
           e);
      !n

(* ------------------------------------------------------------------ *)
(* Let inlining                                                         *)
(* ------------------------------------------------------------------ *)

let inline_rule = function
  | Let (x, a, b) when not (has_stateful_effect a) ->
      let n = occurrences x b in
      if n = 0 then Some b
      else if n = 1 || (match a with Var _ | Const _ -> true | _ -> false) then
        Some (subst x a b)
      else None
  | _ -> None

let inline_lets e = rewrite_fixpoint inline_rule e

(* ------------------------------------------------------------------ *)
(* Normalization rules                                                  *)
(* ------------------------------------------------------------------ *)

(* Fresh-rename the binders of spliced qualifiers so they cannot capture
   names used by the surrounding comprehension. *)
let avoid_set head quals alg =
  let quals_fv =
    List.fold_left
      (fun acc -> function
        | QGen (x, src) -> Strset.add x (Strset.union acc (free_vars src))
        | QGuard p -> Strset.union acc (free_vars p))
      Strset.empty quals
  in
  let alg_fv =
    match alg with
    | Alg_bag -> Strset.empty
    | Alg_fold fns ->
        Strset.union (free_vars fns.f_empty)
          (Strset.union (free_vars fns.f_single) (free_vars fns.f_union))
  in
  Strset.union (free_vars head) (Strset.union quals_fv alg_fv)

let subst_quals x repl quals =
  (* Substitution in a qualifier suffix: stop when x gets rebound. *)
  let rec go = function
    | [] -> []
    | QGuard p :: rest -> QGuard (subst x repl p) :: go rest
    | QGen (y, src) :: rest ->
        let src' = subst x repl src in
        if String.equal y x then QGen (y, src') :: rest else QGen (y, src') :: go rest
  in
  go quals

(* Rule 2: unnest a Bag comprehension bound by a generator. *)
let unnest_generator head quals alg =
  let rec split before = function
    | [] -> None
    | QGen (x, Comp { head = t'; quals = qs'; alg = Alg_bag }) :: after ->
        Some (List.rev before, x, t', qs', after)
    | q :: after -> split (q :: before) after
  in
  match split [] quals with
  | None -> None
  | Some (before, x, t', qs', after) ->
      let avoid =
        Strset.union
          (avoid_set head (before @ after) alg)
          (comp_bound_vars (before @ after))
      in
      let qs_renamed, t_renamed = rename_avoiding avoid qs' t' in
      let head' = subst x t_renamed head in
      let after' = subst_quals x t_renamed after in
      (* [alg] runs outside the comprehension: its [x], if any, is not
         the generator's *)
      Some { head = head'; quals = before @ qs_renamed @ after'; alg }

(* Canonical exists guard: head is the applied predicate, single is the
   identity. Combinator translation pattern-matches on this shape. *)
let is_identity_lam = function
  | Lam (x, Var y) -> String.equal x y
  | _ -> false

let canonicalize_quantifier = function
  | Comp { head; quals; alg = Alg_fold fns }
    when (fns.f_tag = Tag_exists || fns.f_tag = Tag_forall)
         && not (is_identity_lam fns.f_single) ->
      let head' = beta_reduce (App (fns.f_single, head)) in
      let x = fresh "x" in
      Some
        (Comp
           { head = head';
             quals;
             alg = Alg_fold { fns with f_single = Lam (x, Var x) } })
  | _ -> None

(* forall = ¬∃¬ : lets the combinator translation reuse the anti-join
   machinery for universally quantified guards. Fires on the canonical
   (identity-single) form only, so it composes with canonicalization. *)
let forall_to_not_exists = function
  | Comp { head; quals; alg = Alg_fold fns }
    when fns.f_tag = Tag_forall && is_identity_lam fns.f_single ->
      let x = fresh "x" in
      Some
        (Prim
           ( Emma_lang.Prim.Not,
             [ Comp
                 { head = Prim (Emma_lang.Prim.Not, [ head ]);
                   quals;
                   alg =
                     Alg_fold
                       { f_empty = Const (Emma_value.Value.Bool false);
                         f_single = Lam (x, Var x);
                         f_union =
                           Lam
                             ( "a",
                               Lam ("b", Prim (Emma_lang.Prim.Or, [ Var "a"; Var "b" ])) );
                         f_tag = Tag_exists } } ]))
  | _ -> None

let rule e =
  match e with
  (* Rule 1: flatten over a comprehension whose head is a Bag comprehension. *)
  | Flatten (Comp { head = Comp { head = h'; quals = qs'; alg = Alg_bag }; quals; alg = Alg_bag })
    ->
      Some (Comp { head = h'; quals = quals @ qs'; alg = Alg_bag })
  (* Rule 1b: flatten over a comprehension whose head is itself a flatten. *)
  | Flatten (Comp { head = Flatten (Comp inner); quals; alg = Alg_bag }) ->
      Some (Flatten (Comp { head = Comp inner; quals; alg = Alg_bag }))
  (* Flatten with an uncomprehended (but bag-valued) head becomes a
     dependent generator. *)
  | Flatten (Comp { head = h; quals; alg = Alg_bag }) ->
      let v = fresh "v" in
      Some (Comp { head = Var v; quals = quals @ [ QGen (v, h) ]; alg = Alg_bag })
  (* Flatten of an arbitrary bag-of-bags expression. *)
  | Flatten e' ->
      let w = fresh "w" and v = fresh "v" in
      Some (Comp { head = Var v; quals = [ QGen (w, e'); QGen (v, Var w) ]; alg = Alg_bag })
  (* Split conjunctive guards: helps filter pushdown and join detection. *)
  | Comp { head; quals; alg }
    when List.exists (function QGuard (Prim (Emma_lang.Prim.And, _)) -> true | _ -> false) quals
    ->
      let split_guard = function
        | QGuard (Prim (Emma_lang.Prim.And, [ p; q ])) -> [ QGuard p; QGuard q ]
        | q -> [ q ]
      in
      Some (Comp { head; quals = List.concat_map split_guard quals; alg })
  | Comp { head; quals; alg } -> begin
      (* Rule 3 (canonicalize quantifier algebras, forall = ¬∃¬),
         then rule 2. *)
      match canonicalize_quantifier e with
      | Some e' -> Some e'
      | None -> begin
          match forall_to_not_exists e with
          | Some e' -> Some e'
          | None -> Option.map (fun c -> Comp c) (unnest_generator head quals alg)
        end
    end
  | _ -> None

let normalize_expr e = rewrite_fixpoint rule e

let normalize e = normalize_expr (Resugar.expr (inline_lets e))

let program p = map_program_exprs normalize p
