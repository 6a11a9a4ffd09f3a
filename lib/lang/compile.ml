(* Staged compilation of embedded-language terms: a partial-evaluation /
   normalization-by-evaluation pass that walks an [Expr] tree ONCE and
   produces an OCaml closure over [Value.t], so per-tuple evaluation pays
   neither tree dispatch nor string-keyed environment lookups.

   The interpreter ({!Eval}) remains the semantics: every case below mirrors
   the corresponding [Eval.eval] case, including its evaluation order and
   the exact classified errors it raises ([Eval_error], [Value.Type_error],
   [Invalid_argument]) — the differential test-suite holds the two modes to
   byte-identical behaviour.

   Two let-insertions happen while staging. Every binder gets a slot, by
   scope depth, in a flat per-call frame, so binding a value stores one
   word and allocates nothing. And a comprehension's head and guards have
   their maximal subterms that do not depend on its generators hoisted
   into frame cells, filled on first use in each entry to the
   comprehension.

   Arithmetic trees are staged a second time as float paths, which box
   only their root's result (see "Float paths"). *)

module Value = Emma_value.Value
module Databag = Emma_databag.Databag
module Stateful_bag = Emma_databag.Stateful_bag
module Strset = Emma_util.Strset
open Expr

let fail fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Semantic values                                                      *)
(* ------------------------------------------------------------------ *)

(* The compiled counterpart of [Eval.rvalue]: functions are host closures
   rather than (env, param, body) triples. *)
type sv =
  | Sval of Value.t
  | Sfun of (Value.t -> sv)
  | Sst of (Value.t, Value.t) Stateful_bag.t

(* Mirrors [Eval.as_value]. *)
let force = function
  | Sval v -> v
  | Sfun _ -> fail "expected a value, got a function"
  | Sst _ -> fail "expected a value, got a stateful bag"

(* Mirrors [Eval.apply_rv]: apply and force the result to a value. *)
let apply1 fv arg =
  match fv with
  | Sfun f -> force (f arg)
  | Sval _ -> fail "cannot apply a non-function value"
  | Sst _ -> fail "cannot apply a stateful bag"

(* Mirrors [Eval.apply2_rv]: the intermediate application step is not
   forced, so curried closures work, and anything else reports the same
   error [apply2_rv]'s catch-all does. *)
let apply2 fv a b =
  match fv with
  | Sfun f -> apply1 (f a) b
  | Sval _ | Sst _ -> fail "cannot apply a non-function value"

(* Imports an interpreter value captured from the driver environment.
   Closures stay interpreted — they run via [Eval.apply_step] — but the
   lookup that found them happened once, at compile time. *)
let rec of_rvalue ctx (rv : Eval.rvalue) : sv =
  match rv with
  | Eval.V v -> Sval v
  | Eval.St st -> Sst st
  | Eval.Clo _ -> Sfun (fun v -> of_rvalue ctx (Eval.apply_step ctx rv v))

(* ------------------------------------------------------------------ *)
(* Frames and staged code                                               *)
(* ------------------------------------------------------------------ *)

(* The runtime environment of one call of a staged body: a flat array.
   A binder (a parameter, [Let], generator, or the parameter of a nested
   lambda or fold algebra) takes the slot numbered by its scope depth, so
   binders in sibling scopes share slots and the frame is as long as the
   deepest nesting, plus one cell per hoisted subterm, counted from the
   end. Binders in scope at a point hold the slots below its depth, and
   everything evaluated there binds only at or above it. Frames are
   allocated per call by the entry points, never at staging time: serve
   lanes and pool domains share staged closures. Only first-class values
   live in slots; see the [Let] case for the rest. *)
type frame = Value.t array

let no_frame : frame = [||]
let read k (fr : frame) = fr.(k)

(* A block no computation returns: a hoisted cell holds it until it is
   filled in the current entry to its comprehension. *)
let unfilled = Value.Tuple (Array.make 0 Value.Unit)

(* A compiled expression either evaluated completely at compile time
   ([Static]) or is residual code over the runtime frame. Residual code
   whose result is statically known to be a first-class value is kept at
   the [Value.t] level ([Dynv]): chains of such nodes (all arithmetic,
   projections, bag operators, variables) call through to each other
   directly, paying neither an [Sval] box nor a [force] match per node. *)
type code =
  | Static of sv
  | Dyn of (frame -> sv)
  | Dynv of (frame -> Value.t)

let is_static = function Static _ -> true | Dyn _ | Dynv _ -> false

let stage = function
  | Static sv -> fun _ -> sv
  | Dyn f -> f
  | Dynv f -> fun fr -> Sval (f fr)

(* Stage to a first-class value; forcing a static non-value raises per
   evaluation, exactly when the interpreter would. *)
let vstage = function
  | Static (Sval v) -> fun _ -> v
  | Static sv -> fun _ -> force sv
  | Dyn f -> fun fr -> force (f fr)
  | Dynv f -> f

(* Stage a bag source: the value is forced first, then viewed as a bag, so
   the classified error order matches [Eval.as_bag]. *)
let bstage c =
  let g = vstage c in
  fun fr -> Value.to_bag (g fr)

(* [true] when evaluating the code can only produce a first-class value —
   the condition for staying at the [Dynv] level. *)
let valueish = function Static (Sval _) | Dynv _ -> true | Static _ | Dyn _ -> false

let classified = function
  | Eval.Eval_error _ | Value.Type_error _ | Invalid_argument _ -> true
  | _ -> false

(* Code that raises [exn] at every evaluation. It never returns, so it can
   stand at the value level. *)
let raiser exn = Dynv (fun _ -> raise exn)

(* Constant-fold [f], but turn a classified failure into residual code that
   re-raises at every evaluation — compiling never raises, and the error
   surfaces only if (and as often as) the interpreter would raise it. *)
let static_or_raiser f =
  match f () with sv -> Static sv | exception e when classified e -> raiser e

(* ------------------------------------------------------------------ *)
(* Staging state: slots and subterm facts                               *)
(* ------------------------------------------------------------------ *)

(* What the hoisting and fusion rules ask of a subterm: its free variables
   (with [Eval]'s scoping: a comprehension's algebra sees the outer scope,
   not its generators), and whether it is free of [Stateful_*] nodes. *)
type info = { fv : Strset.t; pure : bool }

module Phys = Hashtbl.Make (struct
  type t = Expr.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* One staging of one body: the deepest binder slot used so far, the
   cells allocated so far, and [info] for every subterm asked about,
   computed once per node, bottom up, on first demand. Bodies without a
   comprehension or a fusion candidate never ask. *)
type state = { mutable depth : int; mutable cells : int; infos : info Phys.t Lazy.t }

let new_state () = { depth = 0; cells = 0; infos = lazy (Phys.create 16) }

(* The frame length a staging needs. *)
let frame_size st = st.depth + st.cells

let rec info st e =
  let infos = Lazy.force st.infos in
  match Phys.find_opt infos e with
  | Some i -> i
  | None ->
      let i = analyse st e in
      Phys.replace infos e i;
      i

and analyse st e =
  let fv e = (info st e).fv and pure e = (info st e).pure in
  match e with
  | Const _ | Read _ -> { fv = Strset.empty; pure = true }
  | Var x -> { fv = Strset.singleton x; pure = true }
  | Lam (x, b) -> { fv = Strset.remove x (fv b); pure = pure b }
  | Let (x, a, b) -> { fv = Strset.union (fv a) (Strset.remove x (fv b)); pure = pure a && pure b }
  | Comp { head; quals; alg } ->
      let outer =
        match alg with
        | Alg_bag -> { fv = Strset.empty; pure = true }
        | Alg_fold fns ->
            List.fold_left
              (fun acc e -> { fv = Strset.union acc.fv (fv e); pure = acc.pure && pure e })
              { fv = Strset.empty; pure = true }
              [ fns.f_empty; fns.f_single; fns.f_union ]
      in
      let rec go bound = function
        | [] ->
            { fv = Strset.union (Strset.diff (fv head) bound) outer.fv;
              pure = pure head && outer.pure }
        | QGen (x, src) :: rest ->
            let r = go (Strset.add x bound) rest in
            { fv = Strset.union (Strset.diff (fv src) bound) r.fv; pure = pure src && r.pure }
        | QGuard p :: rest ->
            let r = go bound rest in
            { fv = Strset.union (Strset.diff (fv p) bound) r.fv; pure = pure p && r.pure }
      in
      go Strset.empty quals
  | Stateful_create _ | Stateful_bag _ | Stateful_update _ | Stateful_update_msgs _ ->
      { (children st e) with pure = false }
  | _ -> children st e

and children st e =
  let acc = ref { fv = Strset.empty; pure = true } in
  ignore
    (Expr.map_children
       (fun c ->
         let i = info st c in
         acc := { fv = Strset.union !acc.fv i.fv; pure = !acc.pure && i.pure };
         c)
       e);
  !acc

(* ------------------------------------------------------------------ *)
(* Scopes                                                               *)
(* ------------------------------------------------------------------ *)

(* Compile-time environment entries. [Cslot] entries live in a frame slot;
   [Cstatic] entries were evaluated at compile time and occupy none.
   [Cfused] is a fold union's binder [b] in a fused accumulate step (see
   [fused_step]): [slot] holds the row, and [b._i] compiles to component
   [i] of [single]'s tuple literal, with [single]'s binder [x] in [slot].
   [Clam] is a [Let]-bound literal lambda [lam = Lam (param, body)], with
   the entries in scope where it was bound: an application stages [body]
   in place, and any other use builds the closure there. *)
type centry =
  | Cslot of string * int
  | Cstatic of string * sv
  | Cfused of { b : string; slot : int; x : string; comps : Expr.expr array }
  | Clam of { f : string; param : string; body : Expr.expr; lam : Expr.expr; names : centry list }

(* A comprehension whose head, guards or later generator sources are being
   staged: [mark] is the scope depth on entering it, so a variable
   resolving to a slot below [mark] was bound outside it. [cells] are the
   cells of the subterms hoisted to it. *)
type region = { mark : int; mutable cells : int list }

type scope = {
  ctx : Eval.ctx;
  base : Eval.env;
  names : centry list;  (** innermost first *)
  depth : int;  (** the next binder's slot *)
  regions : region list;  (** enclosing comprehensions, innermost first *)
  st : state;
}

let top ctx base st = { ctx; base; names = []; depth = 0; regions = []; st }

(* The next binder slot, taken. *)
let deeper sc =
  let k = sc.depth in
  if k >= sc.st.depth then sc.st.depth <- k + 1;
  (k, { sc with depth = k + 1 })

(* [x] in the next binder slot. *)
let bind sc x =
  let k, sc = deeper sc in
  (k, { sc with names = Cslot (x, k) :: sc.names })

let entry_name = function
  | Cslot (x, _) | Cstatic (x, _) | Cfused { b = x; _ } | Clam { f = x; _ } -> x

let rec lookup names x =
  match names with
  | [] -> None
  | ce :: rest -> if String.equal (entry_name ce) x then Some ce else lookup rest x

(* The highest slot that the variables [fv] read, resolved in [names]
   (-1 for none); a [Let]-bound lambda reads what its free variables read
   where it was bound. *)
let rec reach st names fv =
  Strset.fold
    (fun x acc ->
      match lookup names x with
      | Some (Cslot (_, k)) | Some (Cfused { slot = k; _ }) -> max acc k
      | Some (Clam { lam; names; _ }) -> max acc (reach st names (info st lam).fv)
      | Some (Cstatic _) | None -> acc)
    fv (-1)

(* [e] is invariant to a region when every slot it reads here lies below
   the region's [mark]; compile-time constants and driver captures occupy
   no slot and are the same in every iteration. The hoisting target is the
   outermost region [e] is invariant to, returned with the regions outside
   it. Subterms with a [Stateful_*] node are never hoisted. *)
let hoist_target sc e =
  let i = info sc.st e in
  if not i.pure then None
  else
    let reach = reach sc.st sc.names i.fv in
    let rec outermost found = function
      | r :: outer when reach < r.mark -> outermost (Some (r, outer)) outer
      | _ -> found
    in
    outermost None sc.regions

(* [comp sc e] would hoist [e] into a cell. *)
let hoisted sc e = sc.regions <> [] && Option.is_some (hoist_target sc e)

(* A hoisted cell: [g] runs at most once per entry into the cell's
   comprehension, at the first evaluation that reaches it — where the
   interpreter evaluates it first, so a subterm under an empty generator,
   a false guard or an untaken branch is never run, and a classified error
   surfaces at the same point. Emma expressions are pure, so later
   evaluations would give the same value. Cell [c] is the [c]-th slot
   from the end of the frame. *)
let cell c g fr =
  let i = Array.length fr - 1 - c in
  let v = fr.(i) in
  if v != unfilled then v
  else begin
    let v = g fr in
    fr.(i) <- v;
    v
  end

let reset fr cells =
  let last = Array.length fr - 1 in
  for i = 0 to Array.length cells - 1 do
    fr.(last - cells.(i)) <- unfilled
  done

(* A compiled comprehension qualifier: generator sources stage straight to
   element lists bound one by one into the generator's slot, guards to
   (boolean) values. *)
type cqual = CGen of int * (frame -> Value.t list) | CGuard of (frame -> Value.t)

(* The qualifiers as one staged loop: [run fr acc] conses the head's value
   for every binding onto [acc], in the interpreter's nested-loop order. *)
let rec chain ghead = function
  | [] -> fun fr acc -> ghead fr :: acc
  | CGen (k, gsrc) :: rest ->
      let inner = chain ghead rest in
      fun fr acc -> each inner k fr acc (gsrc fr)
  | CGuard gp :: rest ->
      let inner = chain ghead rest in
      fun fr acc -> if Value.to_bool (gp fr) then inner fr acc else acc

and each inner k fr acc = function
  | [] -> acc
  | v :: vs ->
      fr.(k) <- v;
      each inner k fr (inner fr acc) vs

(* [Array.of_list (List.rev xs)], filled from the end without the
   reversed list. *)
let rec fill_down a i = function
  | [] -> a
  | v :: vs ->
      a.(i) <- v;
      fill_down a (i - 1) vs

let array_of_rev_list = function
  | [] -> [||]
  | x :: _ as xs ->
      let n = List.length xs in
      fill_down (Array.make n x) (n - 1) xs

(* ------------------------------------------------------------------ *)
(* Float paths                                                          *)
(* ------------------------------------------------------------------ *)

(* [p] applied to staged arguments of the right arity, folded when every
   argument is static: the generic code of a primitive. *)
let prim_static p gs =
  static_or_raiser (fun () -> Sval (Prim.apply p (List.map (fun g -> g no_frame) gs)))

let prim_dyn p = function
  | [ g ] -> fun fr -> Prim.apply1 p (g fr)
  | [ g1; g2 ] ->
      fun fr ->
        let a = g1 fr in
        let b = g2 fr in
        Prim.apply2 p a b
  | gs -> fun fr -> Prim.apply p (List.map (fun g -> g fr) gs)

(* The primitives a float path computes, applied to the right number of
   arguments. *)
let is_arith p args =
  (match p with
  | Prim.(Add | Sub | Mul | Div | Neg | Abs | Sqrt | Floor | To_float) -> true
  | _ -> false)
  && List.compare_length_with args (Prim.arity p) = 0

(* A float path computes an arithmetic tree on unboxed floats and boxes
   only its root. Without flambda, a float passed to or returned from a
   closure is boxed, so no closure here takes or returns one: each op
   writes its result into a slot of a flat [float array], the scratch,
   and each is specialised by the kind of its operands, with the operator
   matched inside ([op2], [op1]). An operand is a leaf, the value of a
   non-arithmetic subterm; a [Float] constant; or the slot an op below
   wrote. Where the generic code would not return a [Float] (an operand
   is no number, two [Int]s meet, an [Int] is under [neg] or [abs]), the
   path raises [Not_float] and the generic code runs instead; an [Int]
   beside a float converts, as in [Prim.num2].

   No float-valued [match] is bound to a name, which would box it: each
   leaf's constructor is matched around the op. And where both operands
   are NaNs, x86 keeps the payload of the one in the destination
   register. ocamlopt puts the left operand there, unless the left is
   read from memory and the right is not, when it swaps a commutative op.
   [Prim]'s operators read both from memory, so the left's payload wins;
   here a right operand that may be a NaN is read from memory too (a
   boxed leaf, a constant, or [op2s]'s slot), so the same one wins. *)
exception Not_float

(* An arithmetic subterm staged for a float path, or any other code, a
   leaf. A node's [gen] is its generic code, [run] its op, writing the
   slot its parent chose, and [size] the scratch length its ops need;
   [nested] says whether an operand is a node. *)
type farg =
  | Fcode of code
  | Fnode of { gen : frame -> Value.t; run : frame -> float array -> unit; size : int; nested : bool }

let[@inline] op2 p x y =
  match p with Prim.Add -> x +. y | Prim.Sub -> x -. y | Prim.Mul -> x *. y | _ -> x /. y

(* [op2] with the right operand read from slot [kb] in place. *)
let[@inline] op2s p x s kb =
  match p with
  | Prim.Add -> x +. Array.unsafe_get s kb
  | Prim.Sub -> x -. Array.unsafe_get s kb
  | Prim.Mul -> x *. Array.unsafe_get s kb
  | _ -> x /. Array.unsafe_get s kb

(* [op2] with the left or the right operand a leaf's value. *)
let[@inline] op2_vf p a y =
  match a with
  | Value.Float x -> op2 p x y
  | Value.Int i -> op2 p (float_of_int i) y
  | _ -> raise_notrace Not_float

let[@inline] op2_fv p x b =
  match b with
  | Value.Float y -> op2 p x y
  | Value.Int j -> op2 p x (float_of_int j)
  | _ -> raise_notrace Not_float

let[@inline] op1 p x =
  match p with
  | Prim.Neg -> -.x
  | Prim.Abs -> Float.abs x
  | Prim.Sqrt -> sqrt x
  | Prim.Floor -> Float.floor x
  | _ -> x

(* The op of a binary node writing slot [k], its operands staged as [xa]
   and [xb] with values [ga] and [gb]. They run left to right, as in
   [Eval]: a left node writes slot [k] and the right one slot [k + 1]
   when the left is a node too ([float_node]), so no op overwrites a slot
   still to be read. *)
let run2 p k xa ga xb gb =
  let kb = match xa with Fnode _ -> k + 1 | Fcode _ -> k in
  match (xa, xb) with
  | Fnode { run = ra; _ }, Fnode { run = rb; _ } ->
      fun fr s ->
        ra fr s;
        rb fr s;
        s.(k) <- op2s p (Array.unsafe_get s k) s kb
  | Fnode { run = ra; _ }, Fcode (Static (Sval (Value.Float y))) ->
      fun fr s ->
        ra fr s;
        s.(k) <- op2 p (Array.unsafe_get s k) y
  | Fnode { run = ra; _ }, Fcode _ ->
      fun fr s ->
        ra fr s;
        let b = gb fr in
        s.(k) <- op2_fv p (Array.unsafe_get s k) b
  | Fcode (Static (Sval (Value.Float x))), Fnode { run = rb; _ } ->
      fun fr s ->
        rb fr s;
        s.(k) <- op2s p x s kb
  | Fcode (Static (Sval (Value.Float x))), Fcode (Static (Sval (Value.Float y))) ->
      fun _ s -> s.(k) <- op2 p x y
  | Fcode (Static (Sval (Value.Float x))), Fcode _ -> fun fr s -> s.(k) <- op2_fv p x (gb fr)
  | Fcode _, Fnode { run = rb; _ } ->
      fun fr s ->
        let a = ga fr in
        rb fr s;
        s.(k) <-
          (match a with
          | Value.Float x -> op2s p x s kb
          | Value.Int i -> op2s p (float_of_int i) s kb
          | _ -> raise_notrace Not_float)
  | Fcode _, Fcode (Static (Sval (Value.Float y))) -> fun fr s -> s.(k) <- op2_vf p (ga fr) y
  | Fcode _, Fcode _ ->
      fun fr s ->
        let a = ga fr in
        let b = gb fr in
        s.(k) <-
          (match a with
          | Value.Float x -> op2_fv p x b
          | Value.Int i -> (
              match b with
              | Value.Float y -> op2 p (float_of_int i) y
              | _ -> raise_notrace Not_float)
          | _ -> raise_notrace Not_float)

(* The op of a unary node, as [Prim.apply1]: [neg] and [abs] keep an
   [Int] an [Int]; [sqrt], [floor] and [to_float] convert it. *)
let run1 p k xa ga =
  match xa with
  | Fnode { run; _ } ->
      fun fr s ->
        run fr s;
        s.(k) <- op1 p (Array.unsafe_get s k)
  | Fcode (Static (Sval (Value.Float x))) -> fun _ s -> s.(k) <- op1 p x
  | Fcode _ -> begin
      match p with
      | Prim.Neg | Prim.Abs ->
          fun fr s ->
            s.(k) <- (match ga fr with Value.Float x -> op1 p x | _ -> raise_notrace Not_float)
      | _ ->
          fun fr s ->
            s.(k) <-
              (match ga fr with
              | Value.Float x -> op1 p x
              | Value.Int i -> op1 p (float_of_int i)
              | _ -> raise_notrace Not_float)
    end

let farg_value = function Fnode { gen; _ } -> gen | Fcode c -> vstage c
let farg_size = function Fnode { size; _ } -> size | Fcode _ -> 0
let is_fnode = function Fnode _ -> true | Fcode _ -> false

let[@inline] float_result run gen fr s =
  match run fr s with () -> Value.Float s.(0) | exception Not_float -> gen fr

(* A root's code: its op on a fresh scratch, boxing the result; on
   [Not_float], its generic code. The common scratch lengths are array
   literals, allocated inline (see [fn]). *)
let float_root gen run size =
  match size with
  | 1 -> fun fr -> float_result run gen fr [| 0. |]
  | 2 -> fun fr -> float_result run gen fr [| 0.; 0. |]
  | n -> fun fr -> float_result run gen fr (Array.create_float n)

(* [x._i] stands for an arithmetic subterm: [x] is a fused binder ([Cfused])
   whose component [i] is one. Allocates nothing. *)
let rec fused_arith names x i =
  match names with
  | [] -> false
  | Cfused { b; comps; _ } :: _ when String.equal b x -> (
      i >= 0
      && i < Array.length comps
      && match comps.(i) with Prim (p, args) -> is_arith p args | _ -> false)
  | ce :: rest -> (not (String.equal (entry_name ce) x)) && fused_arith rest x i

let is_arith_arg sc = function
  | Prim (p, args) -> is_arith p args
  | Proj (Var x, i) -> fused_arith sc.names x i
  | _ -> false

let rec has_arith_arg sc = function
  | [] -> false
  | a :: rest -> is_arith_arg sc a || has_arith_arg sc rest

(* The scope a fused binder's [b._i] is staged in: [single]'s binder in
   [b]'s slot. *)
let fused_scope sc slot x = { sc with names = [ Cslot (x, slot) ]; regions = [] }

(* ------------------------------------------------------------------ *)
(* The compiler                                                         *)
(* ------------------------------------------------------------------ *)

(* NOTE on sequencing: OCaml evaluates function arguments right-to-left, so
   every residual body below [let]-binds its pieces explicitly to preserve
   the interpreter's evaluation (and error) order. [Union] is the one
   exception: [Eval] itself uses operator-argument order there, so the
   residual code uses the identical expression shape. *)

(* Inside a comprehension's region every non-atomic subterm is first
   checked for hoisting; a hoisted one is staged with the regions outside
   its target only, so its own subterms may still go further out. A
   subterm whose code is static needs no cell, and one that may evaluate
   to a function or a stateful bag cannot have one. *)
let rec comp sc (e : Expr.expr) : code =
  match (sc.regions, e) with
  | [], _ | _, (Const _ | Var _ | Lam _) -> comp_node sc e
  | _ -> begin
      match hoist_target sc e with
      | None -> comp_node sc e
      | Some (region, outer) -> begin
          match comp_node { sc with regions = outer } e with
          | Dynv g ->
              let c = sc.st.cells in
              sc.st.cells <- c + 1;
              region.cells <- c :: region.cells;
              Dynv (cell c g)
          | (Static _ | Dyn _) as code -> code
        end
    end

and comp_node sc (e : Expr.expr) : code =
  match e with
  | Const v -> Static (Sval v)
  | Var x -> begin
      match lookup sc.names x with
      | Some (Cslot (_, k)) -> Dynv (read k)
      | Some (Cstatic (_, sv)) -> Static sv
      | Some (Cfused _) ->
          (* The fusion rule guarantees a fused binder occurs only as
             [b._i]; were it used whole, this classified error sends the
             step to its unfused path. *)
          raiser (Invalid_argument "Compile: fused binder used whole")
      | Some (Clam { lam; names; _ }) -> comp_node { sc with names } lam
      | None -> begin
          match Eval.lookup_opt sc.base x with
          | Some rv -> Static (of_rvalue sc.ctx rv)
          | None -> raiser (Eval.Eval_error ("unbound variable " ^ x))
        end
    end
  | Lam (x, b) -> begin
      (* The body's subterms hoist only into its own comprehensions: a
         cell of an enclosing one would be filled in a call's private
         frame (below) and recomputed by the next call. *)
      let k, sc_b = bind { sc with regions = [] } x in
      match comp sc_b b with
      | Static sv_b -> Static (Sfun (fun _ -> sv_b))
      | (Dyn _ | Dynv _) as cb ->
          let fb = stage cb in
          (* The closure keeps a copy of the frame as it is now, so later
             bindings of the same slots (the next element of a generator)
             do not reach it, and each call binds [x] in a copy of that
             copy: a closure evaluated once may be called from several
             domains at once (a fold algebra the pool's partitions share). *)
          Dyn
            (fun fr ->
              let captured = Array.copy fr in
              Sfun
                (fun v ->
                  let own = Array.copy captured in
                  own.(k) <- v;
                  fb own))
    end
  | App (Lam (x, b), a) -> inline sc ~names:sc.names x b a
  | App ((Var y as f), a) -> begin
      match lookup sc.names y with
      | Some (Clam { param; body; names; _ }) -> inline sc ~names param body a
      | _ -> comp_app sc f a
    end
  | App (f, a) -> comp_app sc f a
  | Tuple es ->
      comp_nary sc es (fun vs -> Value.tuple vs) ~residual:(fun gs ->
          let n = Array.length gs in
          Dynv
            (fun fr ->
              let a = Array.make n (gs.(0) fr) in
              for i = 1 to n - 1 do
                a.(i) <- gs.(i) fr
              done;
              Value.Tuple a))
  | Proj (a, i) -> begin
      match fused_component sc a i with
      | Some c -> c
      | None -> begin
          match comp sc a with
          | Static _ as c ->
              let g = vstage c in
              static_or_raiser (fun () -> Sval (Value.proj (g no_frame) i))
          | (Dyn _ | Dynv _) as c ->
              let g = vstage c in
              Dynv (fun fr -> Value.proj (g fr) i)
        end
    end
  | Record fields ->
      let names = List.map fst fields in
      let anames = Array.of_list names in
      comp_nary sc (List.map snd fields)
        (fun vs -> Value.record (List.combine names vs))
        ~residual:(fun gs ->
          let n = Array.length gs in
          Dynv
            (fun fr ->
              let a = Array.make n (anames.(0), gs.(0) fr) in
              for i = 1 to n - 1 do
                a.(i) <- (anames.(i), gs.(i) fr)
              done;
              Value.Record a))
  | Field (a, n) -> begin
      match comp sc a with
      | Static _ as c ->
          let g = vstage c in
          static_or_raiser (fun () -> Sval (Value.field (g no_frame) n))
      | (Dyn _ | Dynv _) as c ->
          let g = vstage c in
          (* one slot hint per access site; see [Value.field_hinted] *)
          let hint = ref 0 in
          Dynv (fun fr -> Value.field_hinted hint (g fr) n)
    end
  | Prim (p, args) when is_arith p args && has_arith_arg sc args -> begin
      match float_node sc 0 p args with
      | Fcode c -> c
      | Fnode { gen; run; size; nested } -> Dynv (if nested then float_root gen run size else gen)
    end
  | Prim (p, args) ->
      let cs = List.map (comp sc) args in
      let gs = List.map vstage cs in
      if List.length args <> Prim.arity p then
        (* [Eval] evaluates the arguments before [Prim.apply] checks the
           arity, so argument errors take precedence here too. *)
        let msg =
          Printf.sprintf "prim %s: arity %d expected, got %d" (Prim.name p)
            (Prim.arity p) (List.length args)
        in
        Dynv
          (fun fr ->
            let _ = List.map (fun g -> g fr) gs in
            invalid_arg msg)
      else if List.for_all is_static cs then prim_static p gs
      else Dynv (prim_dyn p gs)
  | If (c, t, el) -> begin
      match comp sc c with
      | Static _ as cc -> begin
          let gc = vstage cc in
          match Value.to_bool (gc no_frame) with
          | b -> comp sc (if b then t else el)
          | exception exn when classified exn -> raiser exn
        end
      | (Dyn _ | Dynv _) as cc ->
          let gc = vstage cc in
          let ct = comp sc t in
          let ce = comp sc el in
          if valueish ct && valueish ce then
            let gt = vstage ct and ge = vstage ce in
            Dynv (fun fr -> if Value.to_bool (gc fr) then gt fr else ge fr)
          else
            let gt = stage ct and ge = stage ce in
            Dyn (fun fr -> if Value.to_bool (gc fr) then gt fr else ge fr)
    end
  | Let (f, (Lam (param, body) as lam), b) ->
      (* Evaluating a lambda cannot fail, so the binding costs nothing at
         runtime: each use stages [lam] where it occurs. *)
      comp { sc with names = Clam { f; param; body; lam; names = sc.names } :: sc.names } b
  | Let (x, a, b) -> begin
      match comp sc a with
      | Static sv ->
          (* The binding is a pure compile-time value: inline it and spend
             no runtime slot. *)
          comp { sc with names = Cstatic (x, sv) :: sc.names } b
      | Dynv ga ->
          let k, sc_b = bind sc x in
          let cb = comp sc_b b in
          if valueish cb then
            let gb = vstage cb in
            Dynv
              (fun fr ->
                fr.(k) <- ga fr;
                gb fr)
          else
            let gb = stage cb in
            Dyn
              (fun fr ->
                fr.(k) <- ga fr;
                gb fr)
      | Dyn ga ->
          (* [a] may evaluate to a function (not a literal lambda: an
             [If] choosing one, say) or a stateful bag, which no slot
             holds: a value takes the slot, anything else is bound by
             staging [b] again ([restage]). *)
          let k, sc_b = bind sc x in
          let gb = stage (comp sc_b b) in
          Dyn
            (fun fr ->
              match ga fr with
              | Sval v ->
                  fr.(k) <- v;
                  gb fr
              | sv -> restage sc x sv b fr)
    end
  | BagOf es ->
      comp_nary sc es (fun vs -> Value.bag vs) ~residual:(fun gs ->
          let gs = Array.to_list gs in
          Dynv (fun fr -> Value.bag (List.map (fun g -> g fr) gs)))
  | Range (lo, hi) ->
      let clo = comp sc lo in
      let chi = comp sc hi in
      let glo = vstage clo in
      let ghi = vstage chi in
      let run fr =
        let lo = Value.to_int (glo fr) in
        let hi = Value.to_int (ghi fr) in
        if hi < lo then Value.bag []
        else Value.bag (List.init (hi - lo + 1) (fun i -> Value.Int (lo + i)))
      in
      if is_static clo && is_static chi then static_or_raiser (fun () -> Sval (run no_frame))
      else Dynv run
  | Read (Src_table t) ->
      (* Tables are mutated by [SWrite] between evaluations, so reads stay
         residual. *)
      let ctx = sc.ctx in
      Dynv (fun _ -> Value.bag (Eval.read_table ctx t))
  | Map (f, xs) ->
      let gf = stage (comp sc f) in
      let gxs = bstage (comp sc xs) in
      Dynv
        (fun fr ->
          let fv = gf fr in
          let elems = gxs fr in
          Value.bag (List.map (fun x -> apply1 fv x) elems))
  | FlatMap (f, xs) ->
      let gf = stage (comp sc f) in
      let gxs = bstage (comp sc xs) in
      Dynv
        (fun fr ->
          let fv = gf fr in
          let elems = gxs fr in
          Value.bag (List.concat_map (fun x -> Value.to_bag (apply1 fv x)) elems))
  | Filter (p, xs) ->
      let gp = stage (comp sc p) in
      let gxs = bstage (comp sc xs) in
      Dynv
        (fun fr ->
          let pv = gp fr in
          let elems = gxs fr in
          Value.bag (List.filter (fun x -> Value.to_bool (apply1 pv x)) elems))
  | GroupBy (k, xs) ->
      let gk = stage (comp sc k) in
      let gxs = bstage (comp sc xs) in
      Dynv
        (fun fr ->
          let kv = gk fr in
          let elems = gxs fr in
          let groups =
            Databag.group_by ~cmp:Value.compare
              (fun x -> apply1 kv x)
              (Databag.of_list elems)
          in
          let to_record (g : (_, _) Databag.grp) =
            Value.record
              [ ("key", g.key); ("values", Value.bag (Databag.to_list g.values)) ]
          in
          Value.bag (List.map to_record (Databag.to_list groups)))
  | Fold (fns, xs) ->
      let gxs = bstage (comp sc xs) in
      let run_fold = comp_fold sc fns in
      Dynv
        (fun fr ->
          let elems = gxs fr in
          run_fold fr (Array.of_list elems))
  | AggBy (k, fns, xs) ->
      let gk = stage (comp sc k) in
      let gxs = bstage (comp sc xs) in
      let run_fold = comp_fold sc fns in
      Dynv
        (fun fr ->
          let kv = gk fr in
          let elems = gxs fr in
          let groups =
            Databag.group_by ~cmp:Value.compare
              (fun x -> apply1 kv x)
              (Databag.of_list elems)
          in
          let to_record (g : (_, _) Databag.grp) =
            Value.record
              [ ("key", g.key); ("agg", run_fold fr (Databag.to_array g.values)) ]
          in
          Value.bag (List.map to_record (Databag.to_list groups)))
  | Union (a, b) ->
      let ga = bstage (comp sc a) in
      let gb = bstage (comp sc b) in
      Dynv (fun fr -> Value.bag (ga fr @ gb fr))
  | Minus (a, b) ->
      let ga = bstage (comp sc a) in
      let gb = bstage (comp sc b) in
      Dynv
        (fun fr ->
          let xs = Databag.of_list (ga fr) in
          let ys = Databag.of_list (gb fr) in
          Value.bag (Databag.to_list (Databag.minus ~cmp:Value.compare xs ys)))
  | Distinct a ->
      let ga = bstage (comp sc a) in
      Dynv
        (fun fr ->
          let xs = Databag.of_list (ga fr) in
          Value.bag (Databag.to_list (Databag.distinct ~cmp:Value.compare xs)))
  | Comp { head; quals; alg } ->
      let region = { mark = sc.depth; cells = [] } in
      let cquals, sc_head = comp_quals (Some sc) { sc with regions = region :: sc.regions } quals in
      let run = chain (vstage (comp sc_head head)) cquals in
      let cells = Array.of_list region.cells in
      (* [run] produces the head values last first. *)
      let run_alg =
        match alg with
        | Alg_bag -> fun _fr rev_produced -> Value.bag (List.rev rev_produced)
        | Alg_fold fns ->
            (* The algebra evaluates in the comprehension's outer scope. *)
            let run_fold = comp_fold sc fns in
            fun fr rev_produced -> run_fold fr (array_of_rev_list rev_produced)
      in
      Dynv
        (fun fr ->
          reset fr cells;
          run_alg fr (run fr []))
  | Flatten a ->
      let ga = bstage (comp sc a) in
      Dynv
        (fun fr ->
          let outer = ga fr in
          Value.bag (List.concat_map Value.to_bag outer))
  | Stateful_create { key; init } ->
      let gkey = stage (comp sc key) in
      let ginit = bstage (comp sc init) in
      Dyn
        (fun fr ->
          let kv = gkey fr in
          let init_elems = ginit fr in
          Sst
            (Stateful_bag.create
               ~key:(fun x -> apply1 kv x)
               ~cmp:Value.compare
               (Databag.of_list init_elems)))
  | Stateful_bag a ->
      let ga = stage (comp sc a) in
      Dynv
        (fun fr ->
          match ga fr with
          | Sst st -> Value.bag (Databag.to_list (Stateful_bag.bag st))
          | _ -> fail "bag(): expected a stateful bag")
  | Stateful_update { state; udf } ->
      let gstate = stage (comp sc state) in
      let gudf = stage (comp sc udf) in
      Dynv
        (fun fr ->
          match gstate fr with
          | Sst st ->
              let u = gudf fr in
              let delta =
                Stateful_bag.update st (fun x -> Value.to_option (apply1 u x))
              in
              Value.bag (Databag.to_list delta)
          | _ -> fail "update: expected a stateful bag")
  | Stateful_update_msgs { state; msg_key; messages; udf } ->
      let gstate = stage (comp sc state) in
      let gkey = stage (comp sc msg_key) in
      let gmsgs = bstage (comp sc messages) in
      let gudf = stage (comp sc udf) in
      Dynv
        (fun fr ->
          match gstate fr with
          | Sst st ->
              let kf = gkey fr in
              let msgs = gmsgs fr in
              let u = gudf fr in
              let delta =
                Stateful_bag.update_with_messages st
                  ~msg_key:(fun m -> apply1 kf m)
                  (Databag.of_list msgs)
                  (fun x m -> Value.to_option (apply2 u x m))
              in
              Value.bag (Databag.to_list delta)
          | _ -> fail "update: expected a stateful bag")

(* A [Let] whose value is a function or a stateful bag: [b] is staged now
   with the binding as a compile-time value, as a static [Let]'s body is,
   and run on a new frame holding the binders in scope, so its writes
   (cells included) stay off the caller's frame. The new staging hoists
   only into its own comprehensions. [b] is staged again on every
   evaluation, so this path is slow (about 140 words per row for [let f =
   if c then (y => ..) else (y => ..) in f(1) + f(2)]); no registry
   program takes it. *)
and restage sc x sv b fr =
  let st = new_state () in
  st.depth <- sc.depth;
  let g = stage (comp { sc with names = Cstatic (x, sv) :: sc.names; regions = []; st } b) in
  let own = Array.make (frame_size st) Value.Unit in
  Array.blit fr 0 own 0 sc.depth;
  g own

(* A lambda applied on the spot, [App (Lam (x, b), a)] with [b] resolving
   its free variables in [names]. Evaluating the lambda cannot fail, so the
   interpreter's order is the argument, then the body with [x] bound —
   here in [x]'s slot, with no closure built. [x] takes the next slot at
   the application, above everything live there. *)
and inline sc ~names x b a =
  let ga = vstage (comp sc a) in
  let k, sc_b = bind { sc with names } x in
  let gb = vstage (comp sc_b b) in
  Dynv
    (fun fr ->
      fr.(k) <- ga fr;
      gb fr)

(* An arithmetic root with an arithmetic argument is staged once, both
   ways: every subterm below it that is not arithmetic, a leaf, is staged
   by [comp], as the generic code would stage it, and shared by the two
   paths. An arithmetic subterm that [comp] would hoist stays a leaf. *)
and float_arg sc k e =
  match e with
  | Prim (p, args) when is_arith p args && not (hoisted sc e) -> float_node sc k p args
  | Proj (Var y, i) when fused_arith sc.names y i && not (hoisted sc e) -> begin
      match lookup sc.names y with
      | Some (Cfused { slot; x; comps; _ }) -> begin
          match comps.(i) with
          | Prim (p, args) -> float_node (fused_scope sc slot x) k p args
          | c -> Fcode (comp (fused_scope sc slot x) c)
        end
      | _ -> Fcode (comp sc e)
    end
  | _ -> Fcode (comp sc e)

(* A node of arity 1 or 2 ([is_arith]) writing slot [k]; folded, as the
   generic code is, when every operand is static. *)
and float_node sc k p args =
  match args with
  | [ a ] -> begin
      match float_arg sc k a with
      | Fcode c when is_static c -> Fcode (prim_static p [ vstage c ])
      | xa ->
          let ga = farg_value xa in
          Fnode
            { gen = prim_dyn p [ ga ];
              run = run1 p k xa ga;
              size = max (k + 1) (farg_size xa);
              nested = is_fnode xa }
    end
  | [ a; b ] -> begin
      let xa = float_arg sc k a in
      let xb = float_arg sc (if is_fnode xa then k + 1 else k) b in
      let ga = farg_value xa and gb = farg_value xb in
      match (xa, xb) with
      | Fcode ca, Fcode cb when is_static ca && is_static cb -> Fcode (prim_static p [ ga; gb ])
      | _ ->
          Fnode
            { gen = prim_dyn p [ ga; gb ];
              run = run2 p k xa ga xb gb;
              size = max (k + 1) (max (farg_size xa) (farg_size xb));
              nested = is_fnode xa || is_fnode xb }
    end
  | _ -> assert false (* [is_arith] *)

(* Never folded: folding applications of self-applying closures could
   diverge at compile time; the interpreter only pays when it runs. The
   result is forced ([apply1]), so the node is value-typed. *)
and comp_app sc f a =
  let gf = stage (comp sc f) in
  let ga = vstage (comp sc a) in
  Dynv
    (fun fr ->
      let fv = gf fr in
      let av = ga fr in
      apply1 fv av)

(* A comprehension's qualifiers: the first generator's source is evaluated
   once per entry, so it is staged outside the comprehension's region
   ([outer]); later sources and every guard are in it ([sc]). *)
and comp_quals outer sc = function
  | [] -> ([], sc)
  | QGen (x, src) :: rest ->
      (* The source is evaluated before the binder is in scope. *)
      let gsrc = bstage (comp (Option.value outer ~default:sc) src) in
      let k, sc_x = bind sc x in
      let qs, sc_end = comp_quals None sc_x rest in
      (CGen (k, gsrc) :: qs, sc_end)
  | QGuard p :: rest ->
      let gp = vstage (comp sc p) in
      let qs, sc_end = comp_quals outer sc rest in
      (CGuard gp :: qs, sc_end)

(* n-ary value constructors (tuples, records, bag literals): fold with
   [build] when every piece is static, otherwise [residual] builds the value
   from the staged pieces, which it must run left to right, in [Eval]'s
   [List.map] order. A residual has at least one piece; tuples and records
   seed their array with the first, so a 1-element literal stores nothing
   after allocation. *)
and comp_nary sc es build ~residual =
  let cs = List.map (comp sc) es in
  let gs = List.map vstage cs in
  if List.for_all is_static cs then
    static_or_raiser (fun () -> Sval (build (List.map (fun g -> g no_frame) gs)))
  else residual (Array.of_list gs)

(* [b._i] for a fused binder [b] ([Cfused]): component [i] of [single],
   staged here, where it is used (the fusion rule makes that exactly
   once), with [single]'s binder in [b]'s slot. *)
and fused_component sc a i =
  match a with
  | Var y -> begin
      match lookup sc.names y with
      | Some (Cfused { slot; x; comps; _ }) when i >= 0 && i < Array.length comps ->
          Some (comp (fused_scope sc slot x) comps.(i))
      | _ -> None
    end
  | _ -> None

(* A fold algebra's [single] and [union]. A literal [Lam (x, s)] stages
   [s] with [x] in a slot and a literal [Lam (a, Lam (b, u))] stages [u]
   with [a] and [b] in slots ([b] shadowing [a], as in [fn2]), so applying
   them allocates no [Sfun] closure; the interpreter's evaluation of such
   a lambda cannot fail, so skipping it is unobservable. Any other form is
   evaluated per run and applied like [Eval.apply_rv] / [Eval.apply2_rv]. *)
and comp_single sc = function
  | Lam (x, s) ->
      let k, sc_s = bind sc x in
      let g = vstage (comp sc_s s) in
      fun fr v ->
        fr.(k) <- v;
        g fr
  | f ->
      let gf = stage (comp sc f) in
      fun fr ->
        let fv = gf fr in
        fun v -> apply1 fv v

and comp_union sc = function
  | Lam (a, Lam (b, u)) ->
      let ka, sc_a = bind sc a in
      let kb, sc_u = bind sc_a b in
      let g = vstage (comp sc_u u) in
      fun fr x y ->
        fr.(ka) <- x;
        fr.(kb) <- y;
        g fr
  | f ->
      let gf = stage (comp sc f) in
      fun fr ->
        let fv = gf fr in
        fun x y -> apply2 fv x y

(* Fold algebras re-evaluate [empty]/[single]/[union] per run (and [AggBy]
   per group), exactly like [Eval.eval_fold], and keep the association
   and call order of [Databag.fold]'s tree without building it
   ([Databag.fold_array]), so float association and the first error
   raised do not change. A slot body binds its arguments in the running
   frame: the fold calls [single] and [union] one at a time. *)
and comp_fold sc (fns : Expr.fold_fns) =
  let vempty = vstage (comp sc fns.f_empty) in
  let gsingle = comp_single sc fns.f_single in
  let gunion = comp_union sc fns.f_union in
  fun fr elems ->
    let empty = vempty fr in
    let single = gsingle fr in
    let union = gunion fr in
    Databag.fold_array ~empty ~single ~union elems

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(* Each entry point stages its body into a fresh [state] and allocates one
   frame per call, of the staging's final slot count, filled with the
   first argument, whose slot is 0 (every other slot is written before it
   is read, and each comprehension resets its cells on entry). A static
   body needs no frame. The common frames — one slot for a unary body,
   two for a binary one — are array literals, allocated inline:
   [Array.make] is a call into the C runtime, which made a one-slot
   filter about 7 ns (30%) slower per row in a microbenchmark. *)
let fn ctx base ~param body =
  let st = new_state () in
  let _, sc = bind (top ctx base st) param in
  let c = comp sc body in
  let g = vstage c in
  if is_static c then fun _ -> g no_frame
  else
    match frame_size st with
    | 1 -> fun v -> g [| v |]
    | n -> fun v -> g (Array.make n v)

(* A two-argument entry: the first argument in slot 0, the second in
   slot [kb]. *)
let entry2 st kb c =
  let g = vstage c in
  if is_static c then fun _ _ -> g no_frame
  else
    match frame_size st with
    | 2 when kb = 1 -> fun a b -> g [| a; b |]
    | n ->
        fun a b ->
          let fr = Array.make n a in
          fr.(kb) <- b;
          g fr

let fn2 ctx base ~param1 ~param2 body =
  (* [param2] is the inner binder, so it shadows [param1] when the names
     coincide — matching the interpreter's bind order. *)
  let st = new_state () in
  let _, sc = bind (top ctx base st) param1 in
  let k2, sc = bind sc param2 in
  entry2 st k2 (comp sc body)

type algebra = {
  empty : Value.t;
  single : Value.t -> Value.t;
  union : Value.t -> Value.t -> Value.t;
  step : Value.t -> Value.t -> Value.t;
}

type owned = {
  algebra : algebra;
  merge : Value.t -> Value.t -> Value.t;
  absorb : Value.t -> Value.t -> Value.t;
}

(* [p] holds for every child of [e]; stops at the first that fails. *)
let for_all_children p e =
  let ok = ref true in
  ignore
    (Expr.map_children
       (fun c ->
         if !ok && not (p c) then ok := false;
         c)
       e);
  !ok

(* The fusion rule for [step]: every free occurrence of [b] in [u] is a
   projection [b._i] with [i < n], each [i] occurs exactly once, and each
   occurrence is evaluated exactly once whenever [u] is. A subterm under a
   lambda, an [If] branch, a comprehension or an [AggBy] (whose algebra
   runs per group) may run zero or many times, so [b] must not occur
   there. *)
let fusable st b n u =
  let uses = Array.make n 0 in
  let mentions e = Strset.mem b (info st e).fv in
  let rec strict e =
    match e with
    | Proj (Var y, i) when String.equal y b ->
        i >= 0 && i < n
        && begin
             uses.(i) <- uses.(i) + 1;
             true
           end
    | Var y -> not (String.equal y b)
    | Lam _ | Comp _ | AggBy _ -> not (mentions e)
    | If (c, t, el) -> strict c && (not (mentions t)) && not (mentions el)
    | Let (y, a, body) -> strict a && (String.equal y b || strict body)
    | e -> for_all_children strict e
  in
  strict u && Array.for_all (fun c -> c = 1) uses

(* [union acc (single v)] as one body, when [single] is a tuple literal and
   [union]'s [b] passes [fusable]: [b._i] becomes [single]'s component [i]
   (the [Cfused] entry), so no intermediate tuple is built. [stage] gets
   the body with its state, scope and the slot of the row: the frame
   holds [acc] in [a]'s slot 0 and the row in [b]'s. *)
let fused_step ctx base (fns : Expr.fold_fns) stage =
  match (fns.f_single, fns.f_union) with
  | Lam (x, Tuple cs), Lam (a, Lam (b, u)) ->
      let st = new_state () in
      if not (fusable st b (List.length cs) u) then None
      else begin
        let _, sc = bind (top ctx base st) a in
        let kb, sc = deeper sc in
        let fused = Cfused { b; slot = kb; x; comps = Array.of_list cs } in
        stage st { sc with names = fused :: sc.names } kb u
      end
  | _ -> None

(* In-place stores, for [owned_fns]. The body [u] of a union
   [(a, b) => u] may be stored into its accumulator [a]'s own array when
   [u] is a tuple literal in which [a] occurs only as [a._i]: then no
   component's value holds [a]'s array (a value holds no closure), and
   every read of [a] is over before the first store. *)
let storable a = function
  | Tuple (_ :: _ as us) ->
      let rec ok = function
        | Proj (Var y, _) when String.equal y a -> true
        | Var y -> not (String.equal y a)
        | e -> for_all_children ok e
      in
      if List.for_all ok us then Some us else None
  | _ -> None

(* Components [gs.(i) ..] run in order, each value held on the stack
   until the last has run, then stored into [arr] last to first: a
   component that raises leaves [arr] untouched. *)
let rec store_from gs i =
  if i = Array.length gs then fun _ _ -> ()
  else
    let g = gs.(i) and rest = store_from gs (i + 1) in
    fun fr arr ->
      let v = g fr in
      rest fr arr;
      arr.(i) <- v

(* A tuple body [us] in store form: [fresh a b] stores the components
   into a new tuple, [into a b] into [a]'s array when [a] has their arity
   (and is otherwise [fresh]). The frame holds [a] in slot 0 and [b] in
   slot [kb], as in [entry2]. *)
let stored st sc kb us =
  let cs = List.map (comp sc) us in
  let store = store_from (Array.of_list (List.map vstage cs)) 0 in
  let n = List.length us in
  let run =
    if List.for_all is_static cs then fun arr _ _ -> store no_frame arr
    else
      match frame_size st with
      | 2 when kb = 1 -> fun arr a b -> store [| a; b |] arr
      | size ->
          fun arr a b ->
            let fr = Array.make size a in
            fr.(kb) <- b;
            store fr arr
  in
  let fresh a b =
    let arr = Array.make n Value.Unit in
    run arr a b;
    Value.Tuple arr
  in
  let into a b =
    match a with
    | Value.Tuple arr when Array.length arr = n ->
        run arr a b;
        a
    | _ -> fresh a b
  in
  (fresh, into)

(* [e] staged and run once, on a frame of its own. *)
let eager ctx base e =
  let st = new_state () in
  let g = stage (comp (top ctx base st) e) in
  g (Array.make (frame_size st) Value.Unit)

(* Emma expressions are pure, and on success a fused body evaluates the
   same subterms on the same values as [unfused]; on a classified error,
   re-running [unfused] raises the interpreter's error, in its order. *)
let or_unfused fused unfused =
  let step acc v = try fused acc v with e when classified e -> unfused acc v in
  step

(* Evaluated eagerly, like the engine's interpreted fold runtime; a
   literal lambda's evaluation cannot fail, so it is staged instead. *)
let eval_empty ctx base (fns : Expr.fold_fns) = force (eager ctx base fns.f_empty)

let stage_single ctx base (fns : Expr.fold_fns) =
  match fns.f_single with
  | Lam (param, s) -> fn ctx base ~param s
  | f ->
      let fv = eager ctx base f in
      fun v -> apply1 fv v

let fold_fns ctx base (fns : Expr.fold_fns) =
  let empty = eval_empty ctx base fns in
  let single = stage_single ctx base fns in
  let union =
    match fns.f_union with
    | Lam (param1, Lam (param2, u)) -> fn2 ctx base ~param1 ~param2 u
    | f ->
        let fv = eager ctx base f in
        fun x y -> apply2 fv x y
  in
  let unfused acc v = union acc (single v) in
  let step =
    match fused_step ctx base fns (fun st sc kb u -> Some (entry2 st kb (comp sc u))) with
    | None -> unfused
    | Some fused -> or_unfused fused unfused
  in
  { empty; single; union; step }

let owned_fns ctx base (fns : Expr.fold_fns) =
  let in_place_union =
    match fns.f_union with
    | Lam (param1, Lam (param2, u)) -> (
        match storable param1 u with
        | None -> None
        | Some us ->
            let st = new_state () in
            let _, sc = bind (top ctx base st) param1 in
            let k2, sc = bind sc param2 in
            Some (stored st sc k2 us))
    | _ -> None
  in
  match in_place_union with
  | None ->
      let algebra = fold_fns ctx base fns in
      { algebra; merge = algebra.step; absorb = algebra.union }
  | Some (union, absorb) ->
      let empty = eval_empty ctx base fns in
      let single = stage_single ctx base fns in
      (* every tuple [union] returns is a new one, and so is every one
         [step] returns: the fused body is the same tuple literal *)
      let unfused acc v = union acc (single v) in
      let step, merge =
        match
          fused_step ctx base fns (fun st sc kb u ->
              match u with Tuple us -> Some (stored st sc kb us) | _ -> None)
        with
        | None -> (unfused, fun acc v -> absorb acc (single v))
        | Some (fresh, into) -> (or_unfused fresh unfused, or_unfused into unfused)
      in
      { algebra = { empty; single; union; step }; merge; absorb }

let value ctx base e = force (eager ctx base e)
