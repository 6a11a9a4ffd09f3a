module Strset = Emma_util.Strset

type source = Src_table of string
type sink = Snk_table of string

type fold_tag =
  | Tag_generic
  | Tag_sum
  | Tag_count
  | Tag_exists
  | Tag_forall
  | Tag_min_by
  | Tag_max_by
  | Tag_is_empty

type expr =
  | Const of Emma_value.Value.t
  | Var of string
  | Lam of string * expr
  | App of expr * expr
  | Tuple of expr list
  | Proj of expr * int
  | Record of (string * expr) list
  | Field of expr * string
  | Prim of Prim.t * expr list
  | If of expr * expr * expr
  | Let of string * expr * expr
  | BagOf of expr list
  | Range of expr * expr
  | Read of source
  | Map of expr * expr
  | FlatMap of expr * expr
  | Filter of expr * expr
  | GroupBy of expr * expr
  | Fold of fold_fns * expr
  | AggBy of expr * fold_fns * expr
  | Union of expr * expr
  | Minus of expr * expr
  | Distinct of expr
  | Comp of comp
  | Flatten of expr
  | Stateful_create of { key : expr; init : expr }
  | Stateful_bag of expr
  | Stateful_update of { state : expr; udf : expr }
  | Stateful_update_msgs of { state : expr; msg_key : expr; messages : expr; udf : expr }

and comp = { head : expr; quals : qual list; alg : alg }
and qual = QGen of string * expr | QGuard of expr
and alg = Alg_bag | Alg_fold of fold_fns

and fold_fns = { f_empty : expr; f_single : expr; f_union : expr; f_tag : fold_tag }

type stmt =
  | SLet of string * expr
  | SVar of string * expr
  | SAssign of string * expr
  | SWhile of expr * stmt list
  | SIf of expr * stmt list * stmt list
  | SWrite of sink * expr

type program = { body : stmt list; ret : expr }

(* ------------------------------------------------------------------ *)
(* Generic traversal                                                    *)
(* ------------------------------------------------------------------ *)

let map_fold_fns f fns =
  { fns with f_empty = f fns.f_empty; f_single = f fns.f_single; f_union = f fns.f_union }

let map_qual f = function
  | QGen (x, e) -> QGen (x, f e)
  | QGuard e -> QGuard (f e)

let map_alg f = function
  | Alg_bag -> Alg_bag
  | Alg_fold fns -> Alg_fold (map_fold_fns f fns)

let map_children f e =
  match e with
  | Const _ | Var _ | Read _ -> e
  | Lam (x, b) -> Lam (x, f b)
  | App (a, b) -> App (f a, f b)
  | Tuple es -> Tuple (List.map f es)
  | Proj (a, i) -> Proj (f a, i)
  | Record fields -> Record (List.map (fun (n, x) -> (n, f x)) fields)
  | Field (a, n) -> Field (f a, n)
  | Prim (p, es) -> Prim (p, List.map f es)
  | If (c, t, el) -> If (f c, f t, f el)
  | Let (x, a, b) -> Let (x, f a, f b)
  | BagOf es -> BagOf (List.map f es)
  | Range (a, b) -> Range (f a, f b)
  | Map (fn, xs) -> Map (f fn, f xs)
  | FlatMap (fn, xs) -> FlatMap (f fn, f xs)
  | Filter (p, xs) -> Filter (f p, f xs)
  | GroupBy (k, xs) -> GroupBy (f k, f xs)
  | Fold (fns, xs) -> Fold (map_fold_fns f fns, f xs)
  | AggBy (k, fns, xs) -> AggBy (f k, map_fold_fns f fns, f xs)
  | Union (a, b) -> Union (f a, f b)
  | Minus (a, b) -> Minus (f a, f b)
  | Distinct a -> Distinct (f a)
  | Comp { head; quals; alg } ->
      Comp { head = f head; quals = List.map (map_qual f) quals; alg = map_alg f alg }
  | Flatten a -> Flatten (f a)
  | Stateful_create { key; init } -> Stateful_create { key = f key; init = f init }
  | Stateful_bag a -> Stateful_bag (f a)
  | Stateful_update { state; udf } -> Stateful_update { state = f state; udf = f udf }
  | Stateful_update_msgs { state; msg_key; messages; udf } ->
      Stateful_update_msgs
        { state = f state; msg_key = f msg_key; messages = f messages; udf = f udf }

let rec rewrite_bottom_up f e = f (map_children (rewrite_bottom_up f) e)

let rewrite_fixpoint rule e =
  (* Innermost-first pass; repeat whole passes until a fixpoint. The rule
     budget guards against non-terminating rule sets in development. *)
  let budget = ref 100_000 in
  let changed = ref true in
  let step e =
    match rule e with
    | Some e' ->
        changed := true;
        decr budget;
        if !budget <= 0 then failwith "rewrite_fixpoint: rule budget exceeded";
        e'
    | None -> e
  in
  let result = ref e in
  while !changed do
    changed := false;
    result := rewrite_bottom_up step !result
  done;
  !result

let iter_exprs visit e =
  let rec go e =
    visit e;
    ignore
      (map_children
         (fun c ->
           go c;
           c)
         e)
  in
  go e

let exists_expr pred e =
  let found = ref false in
  iter_exprs (fun x -> if pred x then found := true) e;
  !found

let map_program_exprs f { body; ret } =
  let rec map_stmt = function
    | SLet (x, e) -> SLet (x, f e)
    | SVar (x, e) -> SVar (x, f e)
    | SAssign (x, e) -> SAssign (x, f e)
    | SWhile (c, b) -> SWhile (f c, List.map map_stmt b)
    | SIf (c, t, e) -> SIf (f c, List.map map_stmt t, List.map map_stmt e)
    | SWrite (snk, e) -> SWrite (snk, f e)
  in
  { body = List.map map_stmt body; ret = f ret }

let iter_program_exprs visit p =
  ignore
    (map_program_exprs
       (fun e ->
         visit e;
         e)
       p)

(* ------------------------------------------------------------------ *)
(* Variables                                                            *)
(* ------------------------------------------------------------------ *)

let fv_fold_fns fv fns =
  Strset.union (fv fns.f_empty) (Strset.union (fv fns.f_single) (fv fns.f_union))

let rec free_vars e =
  match e with
  | Const _ | Read _ -> Strset.empty
  | Var x -> Strset.singleton x
  | Lam (x, b) -> Strset.remove x (free_vars b)
  | Let (x, a, b) -> Strset.union (free_vars a) (Strset.remove x (free_vars b))
  | Comp { head; quals; alg } ->
      (* Generators bind left to right: a generator's source sees earlier
         bindings removed only for names it does not rebind. The fold
         algebra is evaluated outside the comprehension, so no generator
         binds its variables. *)
      let rec go bound = function
        | [] -> Strset.diff (free_vars head) bound
        | QGen (x, src) :: rest ->
            Strset.union (Strset.diff (free_vars src) bound) (go (Strset.add x bound) rest)
        | QGuard p :: rest -> Strset.union (Strset.diff (free_vars p) bound) (go bound rest)
      in
      let alg_fv =
        match alg with Alg_bag -> Strset.empty | Alg_fold fns -> fv_fold_fns free_vars fns
      in
      Strset.union (go Strset.empty quals) alg_fv
  | _ ->
      let acc = ref Strset.empty in
      ignore
        (map_children
           (fun c ->
             acc := Strset.union !acc (free_vars c);
             c)
           e);
      (match e with
      | Fold (fns, _) -> acc := Strset.union !acc (fv_fold_fns free_vars fns)
      | AggBy (_, fns, _) -> acc := Strset.union !acc (fv_fold_fns free_vars fns)
      | _ -> ());
      !acc

let comp_bound_vars quals =
  List.fold_left
    (fun acc -> function QGen (x, _) -> Strset.add x acc | QGuard _ -> acc)
    Strset.empty quals

let fresh_counter = ref 0

let fresh hint =
  incr fresh_counter;
  Printf.sprintf "%s$%d" hint !fresh_counter

let with_fresh_reset f =
  let saved = !fresh_counter in
  fresh_counter := 0;
  Fun.protect ~finally:(fun () -> fresh_counter := saved) f

(* Capture-avoiding substitution. *)
let rec subst x replacement body =
  let fv_repl = free_vars replacement in
  match body with
  | Var y -> if String.equal x y then replacement else body
  | Const _ | Read _ -> body
  | Lam (y, b) ->
      if String.equal x y then body
      else if Strset.mem y fv_repl then begin
        let y' = fresh y in
        Lam (y', subst x replacement (subst y (Var y') b))
      end
      else Lam (y, subst x replacement b)
  | Let (y, a, b) ->
      let a' = subst x replacement a in
      if String.equal x y then Let (y, a', b)
      else if Strset.mem y fv_repl then begin
        let y' = fresh y in
        Let (y', a', subst x replacement (subst y (Var y') b))
      end
      else Let (y, a', subst x replacement b)
  | Comp c -> Comp (subst_comp x replacement c)
  | e -> map_children (subst x replacement) e

and subst_comp x replacement { head; quals; alg } =
  let fv_repl = free_vars replacement in
  (* Walk qualifiers left to right, stopping the substitution when [x] gets
     rebound, and renaming generators that would capture the replacement. *)
  let rec go quals head =
    match quals with
    | [] -> ([], subst x replacement head)
    | QGuard p :: rest ->
        let rest', head' = go rest head in
        (QGuard (subst x replacement p) :: rest', head')
    | QGen (y, src) :: rest ->
        let src' = subst x replacement src in
        if String.equal y x then (QGen (y, src') :: rest, head)
        else if Strset.mem y fv_repl then begin
          let y' = fresh y in
          let rename e = subst y (Var y') e in
          let rest', head' = go (List.map (map_qual rename) rest) (rename head) in
          (QGen (y', src') :: rest', head')
        end
        else
          let rest', head' = go rest head in
          (QGen (y, src') :: rest', head')
  in
  let quals', head' = go quals head in
  (* The fold algebra is evaluated outside the comprehension: no
     generator shadows [x] or captures the replacement there. *)
  let alg' =
    match alg with
    | Alg_bag -> Alg_bag
    | Alg_fold fns -> Alg_fold (map_fold_fns (subst x replacement) fns)
  in
  { head = head'; quals = quals'; alg = alg' }

let rename_avoiding avoid quals tail_expr =
  (* Renames every generator whose name clashes with [avoid] (or an earlier
     generator), rippling the renaming through later qualifiers and the
     tail expression. *)
  let rec go seen acc quals tail =
    match quals with
    | [] -> (List.rev acc, tail)
    | QGuard p :: rest -> go seen (QGuard p :: acc) rest tail
    | QGen (x, src) :: rest ->
        if Strset.mem x seen || Strset.mem x avoid then begin
          let x' = fresh x in
          let rename e = subst x (Var x') e in
          let rest' = List.map (map_qual rename) rest in
          go (Strset.add x' seen) (QGen (x', src) :: acc) rest' (rename tail)
        end
        else go (Strset.add x seen) (QGen (x, src) :: acc) rest tail
  in
  go Strset.empty [] quals tail_expr

let rec beta_reduce e =
  let e = map_children beta_reduce e in
  match e with
  | App (Lam (x, b), a) -> beta_reduce (subst x a b)
  | e -> e

let is_bag_op = function
  | BagOf _ | Range _ | Read _ | Map _ | FlatMap _ | Filter _ | GroupBy _ | AggBy _
  | Union _ | Minus _ | Distinct _ | Flatten _ | Stateful_bag _ | Stateful_update _
  | Stateful_update_msgs _ ->
      true
  | Comp { alg = Alg_bag; _ } -> true
  | Comp { alg = Alg_fold _; _ } -> false
  | Const _ | Var _ | Lam _ | App _ | Tuple _ | Proj _ | Record _ | Field _ | Prim _
  | If _ | Let _ | Fold _ | Stateful_create _ ->
      false

let equal a b = a = b

let size e =
  let n = ref 0 in
  iter_exprs (fun _ -> incr n) e;
  !n
