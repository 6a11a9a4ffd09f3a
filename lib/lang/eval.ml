module Value = Emma_value.Value
module Databag = Emma_databag.Databag
module Stateful_bag = Emma_databag.Stateful_bag
open Expr

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type ctx = { tables : (string, Value.t list) Hashtbl.t }

let create_ctx () = { tables = Hashtbl.create 16 }
let register_table ctx name rows = Hashtbl.replace ctx.tables name rows

let read_table ctx name =
  match Hashtbl.find_opt ctx.tables name with
  | Some rows -> rows
  | None -> fail "read: unknown table %S" name

type rvalue =
  | V of Value.t
  | Clo of closure
  | St of (Value.t, Value.t) Stateful_bag.t

and closure = { c_env : env; c_param : string; c_body : Expr.expr }
and env = (string * rvalue ref) list

let empty_env = []
let bind x v env = (x, ref v) :: env

let lookup env x =
  match List.assoc_opt x env with
  | Some r -> !r
  | None -> fail "unbound variable %s" x

let lookup_opt env x = Option.map ( ! ) (List.assoc_opt x env)

let lookup_ref env x =
  match List.assoc_opt x env with
  | Some r -> r
  | None -> fail "unbound variable %s" x

let as_value = function
  | V v -> v
  | Clo _ -> fail "expected a value, got a function"
  | St _ -> fail "expected a value, got a stateful bag"

let as_bag rv = Value.to_bag (as_value rv)

(* ------------------------------------------------------------------ *)

let rec eval ctx env e : rvalue =
  match e with
  | Const v -> V v
  | Var x -> lookup env x
  | Lam (x, b) -> Clo { c_env = env; c_param = x; c_body = b }
  | App (f, a) ->
      let fv = eval ctx env f in
      let av = eval_value ctx env a in
      V (apply_rv ctx fv av)
  | Tuple es -> V (Value.tuple (List.map (eval_value ctx env) es))
  | Proj (a, i) -> V (Value.proj (eval_value ctx env a) i)
  | Record fields -> V (Value.record (List.map (fun (n, x) -> (n, eval_value ctx env x)) fields))
  | Field (a, n) -> V (Value.field (eval_value ctx env a) n)
  | Prim (p, args) -> V (Prim.apply p (List.map (eval_value ctx env) args))
  | If (c, t, el) ->
      if Value.to_bool (eval_value ctx env c) then eval ctx env t else eval ctx env el
  | Let (x, a, b) ->
      let av = eval ctx env a in
      eval ctx (bind x av env) b
  | BagOf es -> V (Value.bag (List.map (eval_value ctx env) es))
  | Range (lo, hi) ->
      let lo = Value.to_int (eval_value ctx env lo) in
      let hi = Value.to_int (eval_value ctx env hi) in
      if hi < lo then V (Value.bag [])
      else V (Value.bag (List.init (hi - lo + 1) (fun i -> Value.Int (lo + i))))
  | Read (Src_table t) -> V (Value.bag (read_table ctx t))
  | Map (f, xs) ->
      let fv = eval ctx env f in
      let elems = as_bag (eval ctx env xs) in
      V (Value.bag (List.map (apply_rv ctx fv) elems))
  | FlatMap (f, xs) ->
      let fv = eval ctx env f in
      let elems = as_bag (eval ctx env xs) in
      V (Value.bag (List.concat_map (fun x -> Value.to_bag (apply_rv ctx fv x)) elems))
  | Filter (p, xs) ->
      let pv = eval ctx env p in
      let elems = as_bag (eval ctx env xs) in
      V (Value.bag (List.filter (fun x -> Value.to_bool (apply_rv ctx pv x)) elems))
  | GroupBy (k, xs) ->
      let kv = eval ctx env k in
      let elems = as_bag (eval ctx env xs) in
      let groups =
        Databag.group_by ~cmp:Value.compare (apply_rv ctx kv) (Databag.of_list elems)
      in
      let to_record (g : (_, _) Databag.grp) =
        Value.record [ ("key", g.key); ("values", Value.bag (Databag.to_list g.values)) ]
      in
      V (Value.bag (List.map to_record (Databag.to_list groups)))
  | Fold (fns, xs) ->
      let elems = as_bag (eval ctx env xs) in
      V (eval_fold ctx env fns elems)
  | AggBy (k, fns, xs) ->
      let kv = eval ctx env k in
      let elems = as_bag (eval ctx env xs) in
      let groups =
        Databag.group_by ~cmp:Value.compare (apply_rv ctx kv) (Databag.of_list elems)
      in
      let to_record (g : (_, _) Databag.grp) =
        Value.record
          [ ("key", g.key); ("agg", eval_fold ctx env fns (Databag.to_list g.values)) ]
      in
      V (Value.bag (List.map to_record (Databag.to_list groups)))
  | Union (a, b) -> V (Value.bag (as_bag (eval ctx env a) @ as_bag (eval ctx env b)))
  | Minus (a, b) ->
      let xs = Databag.of_list (as_bag (eval ctx env a)) in
      let ys = Databag.of_list (as_bag (eval ctx env b)) in
      V (Value.bag (Databag.to_list (Databag.minus ~cmp:Value.compare xs ys)))
  | Distinct a ->
      let xs = Databag.of_list (as_bag (eval ctx env a)) in
      V (Value.bag (Databag.to_list (Databag.distinct ~cmp:Value.compare xs)))
  | Comp c -> V (eval_comp ctx env c)
  | Flatten a ->
      let outer = as_bag (eval ctx env a) in
      V (Value.bag (List.concat_map Value.to_bag outer))
  | Stateful_create { key; init } ->
      let kv = eval ctx env key in
      let init_elems = as_bag (eval ctx env init) in
      St
        (Stateful_bag.create
           ~key:(apply_rv ctx kv)
           ~cmp:Value.compare
           (Databag.of_list init_elems))
  | Stateful_bag a -> begin
      match eval ctx env a with
      | St st -> V (Value.bag (Databag.to_list (Stateful_bag.bag st)))
      | _ -> fail "bag(): expected a stateful bag"
    end
  | Stateful_update { state; udf } -> begin
      match eval ctx env state with
      | St st ->
          let u = eval ctx env udf in
          let delta = Stateful_bag.update st (fun x -> Value.to_option (apply_rv ctx u x)) in
          V (Value.bag (Databag.to_list delta))
      | _ -> fail "update: expected a stateful bag"
    end
  | Stateful_update_msgs { state; msg_key; messages; udf } -> begin
      match eval ctx env state with
      | St st ->
          let kf = eval ctx env msg_key in
          let msgs = as_bag (eval ctx env messages) in
          let u = eval ctx env udf in
          let apply_udf x m =
            (* The binary UDF is curried in the embedded language. *)
            Value.to_option (apply2_rv ctx u x m)
          in
          let delta =
            Stateful_bag.update_with_messages st ~msg_key:(apply_rv ctx kf)
              (Databag.of_list msgs) apply_udf
          in
          V (Value.bag (Databag.to_list delta))
      | _ -> fail "update: expected a stateful bag"
    end

and eval_value ctx env e = as_value (eval ctx env e)

and apply_rv ctx fv arg =
  match fv with
  | Clo { c_env; c_param; c_body } -> eval_value ctx (bind c_param (V arg) c_env) c_body
  | V _ -> fail "cannot apply a non-function value"
  | St _ -> fail "cannot apply a stateful bag"

and apply2_rv ctx fv a b =
  match fv with
  | Clo { c_env; c_param; c_body } ->
      let inner = eval ctx (bind c_param (V a) c_env) c_body in
      apply_rv ctx inner b
  | _ -> fail "cannot apply a non-function value"

and eval_fold ctx env fns elems =
  let empty = eval_value ctx env fns.f_empty in
  let single = eval ctx env fns.f_single in
  let union = eval ctx env fns.f_union in
  Databag.fold ~empty
    ~single:(apply_rv ctx single)
    ~union:(fun a b -> apply2_rv ctx union a b)
    (Databag.of_list elems)

and eval_comp ctx env { head; quals; alg } =
  (* Nested-loop comprehension semantics; yields the multiset of head
     values, then interprets it under the comprehension's algebra. *)
  let results = ref [] in
  let rec go env = function
    | [] -> results := eval_value ctx env head :: !results
    | QGen (x, src) :: rest ->
        let elems = as_bag (eval ctx env src) in
        List.iter (fun v -> go (bind x (V v) env) rest) elems
    | QGuard p :: rest -> if Value.to_bool (eval_value ctx env p) then go env rest
  in
  go env quals;
  let produced = List.rev !results in
  match alg with
  | Alg_bag -> Value.bag produced
  | Alg_fold fns -> eval_fold ctx env fns produced

(* One application step without forcing the result: the staged compiler
   ({!Compile}) uses this to wrap captured interpreter closures, so a
   curried closure applied in two steps behaves exactly like
   [apply2_rv]. *)
let apply_step ctx fv arg =
  match fv with
  | Clo { c_env; c_param; c_body } -> eval ctx (bind c_param (V arg) c_env) c_body
  | V _ -> fail "cannot apply a non-function value"
  | St _ -> fail "cannot apply a stateful bag"

(* ------------------------------------------------------------------ *)
(* Driver programs                                                      *)
(* ------------------------------------------------------------------ *)

let eval_program ctx { body; ret } =
  (* The driver environment is a mutable stack of scopes: entering a block
     pushes, leaving restores — Scala-like lexical scoping for vals/vars. *)
  let rec exec_block env stmts = List.fold_left exec_stmt env stmts
  and exec_stmt env = function
    | SLet (x, e) | SVar (x, e) -> bind x (eval ctx env e) env
    | SAssign (x, e) ->
        let r = lookup_ref env x in
        r := eval ctx env e;
        env
    | SWhile (c, body) ->
        let rec loop () =
          if Value.to_bool (eval_value ctx env c) then begin
            (* Bindings made inside the body are scoped to the iteration. *)
            ignore (exec_block env body);
            loop ()
          end
        in
        loop ();
        env
    | SIf (c, t, e) ->
        ignore (exec_block env (if Value.to_bool (eval_value ctx env c) then t else e));
        env
    | SWrite (Snk_table name, e) ->
        Hashtbl.replace ctx.tables name (as_bag (eval ctx env e));
        env
  in
  let env = exec_block empty_env body in
  eval_value ctx env ret
