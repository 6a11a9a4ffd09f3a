module Expr = Emma_lang.Expr
module Strset = Emma_util.Strset

type udf = { param : string; body : Expr.expr; broadcast : string list }
type udf2 = { param1 : string; param2 : string; body2 : Expr.expr; broadcast2 : string list }

type join_kind = Inner | Semi | Anti

type t =
  | Read of string
  | Scan of string
  | Local of Expr.expr
  | Map of udf * t
  | Flat_map of udf * t
  | Filter of udf * t
  | Join of { kind : join_kind; lkey : udf; rkey : udf; left : t; right : t }
  | Cross of t * t
  | Group_by of udf * t
  | Agg_by of { key : udf; fold : Expr.fold_fns; input : t }
  | Fold of Expr.fold_fns * t
  | Union of t * t
  | Minus of t * t
  | Distinct of t
  | Cache of t
  | Partition_by of udf * t
  | Stateful_create of { key : udf; init : t }
  | Stateful_read of string
  | Stateful_update of { state : string; udf : udf }
  | Stateful_update_msgs of { state : string; msg_key : udf; messages : t; udf : udf2 }

type result_kind = Rbag | Rscalar | Rstateful

let rec result_kind = function
  | Fold _ -> Rscalar
  | Stateful_create _ -> Rstateful
  | Cache p | Partition_by (_, p) -> result_kind p
  | Read _ | Scan _ | Local _ | Map _ | Flat_map _ | Filter _ | Join _ | Cross _ | Group_by _
  | Agg_by _ | Union _ | Minus _ | Distinct _
  | Stateful_read _ | Stateful_update _ | Stateful_update_msgs _ ->
      Rbag

let udf_of_expr e =
  match e with
  | Expr.Lam (x, body) -> { param = x; body; broadcast = [] }
  | e ->
      let x = Expr.fresh "x" in
      { param = x; body = Expr.App (e, Expr.Var x); broadcast = [] }

let udf2_of_expr e =
  match e with
  | Expr.Lam (x, Expr.Lam (y, body)) -> { param1 = x; param2 = y; body2 = body; broadcast2 = [] }
  | e ->
      let x = Expr.fresh "x" and y = Expr.fresh "y" in
      { param1 = x; param2 = y; body2 = Expr.App (Expr.App (e, Expr.Var x), Expr.Var y); broadcast2 = [] }

let udf_alpha_equal a b =
  let canon u = Expr.subst u.param (Expr.Var "$p") u.body in
  Expr.equal (canon a) (canon b)

let children = function
  | Read _ | Scan _ | Local _ | Stateful_read _ | Stateful_update _ -> []
  | Map (_, p) | Flat_map (_, p) | Filter (_, p) | Group_by (_, p) | Fold (_, p)
  | Distinct p | Cache p | Partition_by (_, p) ->
      [ p ]
  | Agg_by { input; _ } -> [ input ]
  | Stateful_create { init; _ } -> [ init ]
  | Stateful_update_msgs { messages; _ } -> [ messages ]
  | Join { left; right; _ } | Cross (left, right) | Union (left, right) | Minus (left, right) ->
      [ left; right ]

let map_children f = function
  | (Read _ | Scan _ | Local _ | Stateful_read _ | Stateful_update _) as p -> p
  | Map (u, p) -> Map (u, f p)
  | Flat_map (u, p) -> Flat_map (u, f p)
  | Filter (u, p) -> Filter (u, f p)
  | Group_by (u, p) -> Group_by (u, f p)
  | Fold (fns, p) -> Fold (fns, f p)
  | Distinct p -> Distinct (f p)
  | Cache p -> Cache (f p)
  | Partition_by (u, p) -> Partition_by (u, f p)
  | Agg_by { key; fold; input } -> Agg_by { key; fold; input = f input }
  | Stateful_create { key; init } -> Stateful_create { key; init = f init }
  | Stateful_update_msgs { state; msg_key; messages; udf } ->
      Stateful_update_msgs { state; msg_key; messages = f messages; udf }
  | Join j -> Join { j with left = f j.left; right = f j.right }
  | Cross (a, b) -> Cross (f a, f b)
  | Union (a, b) -> Union (f a, f b)
  | Minus (a, b) -> Minus (f a, f b)

let rec fold_plan f acc p = List.fold_left (fold_plan f) (f acc p) (children p)

let scanned_vars p =
  fold_plan
    (fun acc -> function
      | Scan x | Stateful_read x | Stateful_update { state = x; _ }
      | Stateful_update_msgs { state = x; _ } ->
          x :: acc
      | _ -> acc)
    [] p

let node_count p = fold_plan (fun n _ -> n + 1) 0 p

(* ------------------------------------------------------------------ *)
(* Broadcast annotation                                                  *)
(* ------------------------------------------------------------------ *)

let captured ~bound params body =
  let fv = Expr.free_vars body in
  let fv = List.fold_left (fun s p -> Strset.remove p s) fv params in
  Strset.elements (Strset.diff fv bound)

let annotate_udf ~bound u = { u with broadcast = captured ~bound [ u.param ] u.body }

let annotate_udf2 ~bound u =
  { u with broadcast2 = captured ~bound [ u.param1; u.param2 ] u.body2 }

let rec annotate_broadcasts ~bound p =
  let p = map_children (annotate_broadcasts ~bound) p in
  match p with
  | Map (u, q) -> Map (annotate_udf ~bound u, q)
  | Flat_map (u, q) -> Flat_map (annotate_udf ~bound u, q)
  | Filter (u, q) -> Filter (annotate_udf ~bound u, q)
  | Group_by (u, q) -> Group_by (annotate_udf ~bound u, q)
  | Partition_by (u, q) -> Partition_by (annotate_udf ~bound u, q)
  | Join j -> Join { j with lkey = annotate_udf ~bound j.lkey; rkey = annotate_udf ~bound j.rkey }
  | Agg_by { key; fold; input } -> Agg_by { key = annotate_udf ~bound key; fold; input }
  | Stateful_create { key; init } -> Stateful_create { key = annotate_udf ~bound key; init }
  | Stateful_update { state; udf } -> Stateful_update { state; udf = annotate_udf ~bound udf }
  | Stateful_update_msgs { state; msg_key; messages; udf } ->
      Stateful_update_msgs
        { state;
          msg_key = annotate_udf ~bound msg_key;
          messages;
          udf = annotate_udf2 ~bound udf }
  | (Read _ | Scan _ | Local _ | Fold _ | Cross _ | Union _ | Minus _ | Distinct _ | Cache _
    | Stateful_read _) as p ->
      p

let broadcast_vars p =
  fold_plan
    (fun acc -> function
      | Map (u, _) | Flat_map (u, _) | Filter (u, _) | Group_by (u, _) | Partition_by (u, _)
      | Stateful_update { udf = u; _ } ->
          u.broadcast @ acc
      | Join { lkey; rkey; _ } -> lkey.broadcast @ rkey.broadcast @ acc
      | Agg_by { key; _ } -> key.broadcast @ acc
      | Stateful_create { key; _ } -> key.broadcast @ acc
      | Stateful_update_msgs { msg_key; udf; _ } ->
          msg_key.broadcast @ udf.broadcast2 @ acc
      | _ -> acc)
    [] p

(* ------------------------------------------------------------------ *)
(* Printing                                                              *)
(* ------------------------------------------------------------------ *)

let join_name = function Inner -> "join" | Semi -> "semijoin" | Anti -> "antijoin"

let pp_udf ppf u =
  let pp_bc ppf = function
    | [] -> ()
    | bs -> Fmt.pf ppf " ⟨bc: %a⟩" (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) bs
  in
  Fmt.pf ppf "%s => %a%a" u.param Emma_lang.Pretty.pp_expr u.body pp_bc u.broadcast

let rec pp ppf p =
  let kids = children p in
  let label =
    match p with
    | Read t -> Fmt.str "read %S" t
    | Scan x -> Fmt.str "scan %s" x
    | Local e -> Fmt.str "local %s" (Emma_lang.Pretty.expr_to_string e)
    | Map (u, _) -> Fmt.str "map (%a)" pp_udf u
    | Flat_map (u, _) -> Fmt.str "flatMap (%a)" pp_udf u
    | Filter (u, _) -> Fmt.str "filter (%a)" pp_udf u
    | Join { kind; lkey; rkey; _ } ->
        Fmt.str "%s [%a = %a]" (join_name kind) pp_udf lkey pp_udf rkey
    | Cross _ -> "cross"
    | Group_by (u, _) -> Fmt.str "groupBy (%a)" pp_udf u
    | Agg_by { key; _ } -> Fmt.str "aggBy (%a)" pp_udf key
    | Fold (fns, _) -> Fmt.str "fold [%s]" (Emma_lang.Pretty.fold_tag_name fns.f_tag)
    | Union _ -> "union"
    | Minus _ -> "minus"
    | Distinct _ -> "distinct"
    | Cache _ -> "cache"
    | Partition_by (u, _) -> Fmt.str "partitionBy (%a)" pp_udf u
    | Stateful_create _ -> "statefulCreate"
    | Stateful_read x -> Fmt.str "statefulRead %s" x
    | Stateful_update { state; _ } -> Fmt.str "statefulUpdate %s" state
    | Stateful_update_msgs { state; _ } -> Fmt.str "statefulUpdateMsgs %s" state
  in
  match kids with
  | [] -> Fmt.pf ppf "%s" label
  | kids -> Fmt.pf ppf "@[<v 2>%s@ %a@]" label (Fmt.list ~sep:Fmt.cut pp) kids

let to_string p = Fmt.str "%a" pp p

(* GraphViz export: shuffling operators as boxes, pipelined ones as
   ellipses, physical operators dashed. *)
let to_dot ?(name = "plan") p =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=BT;\n" name);
  let counter = ref 0 in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  let rec emit p =
    incr counter;
    let id = Printf.sprintf "n%d" !counter in
    let label, shape, style =
      match p with
      | Read t -> (Printf.sprintf "read %s" t, "cylinder", "solid")
      | Scan x -> (Printf.sprintf "scan %s" x, "cylinder", "solid")
      | Local _ -> ("local", "cylinder", "solid")
      | Map (u, _) -> (Printf.sprintf "map λ%s" u.param, "ellipse", "solid")
      | Flat_map (u, _) -> (Printf.sprintf "flatMap λ%s" u.param, "ellipse", "solid")
      | Filter (u, _) -> (Printf.sprintf "filter λ%s" u.param, "ellipse", "solid")
      | Join { kind; _ } ->
          let symbol = match kind with Inner -> "⋈" | Semi -> "⋉" | Anti -> "▷" in
          (symbol ^ " " ^ join_name kind, "box", "solid")
      | Cross _ -> ("× cross", "box", "solid")
      | Group_by _ -> ("groupBy", "box", "solid")
      | Agg_by _ -> ("aggBy", "box", "solid")
      | Fold (fns, _) -> (Printf.sprintf "fold %s" (Emma_lang.Pretty.fold_tag_name fns.f_tag), "invtriangle", "solid")
      | Union _ -> ("∪ union", "ellipse", "solid")
      | Minus _ -> ("∖ minus", "box", "solid")
      | Distinct _ -> ("distinct", "box", "solid")
      | Cache _ -> ("cache", "note", "dashed")
      | Partition_by _ -> ("partitionBy", "note", "dashed")
      | Stateful_create _ -> ("statefulCreate", "box3d", "solid")
      | Stateful_read x -> (Printf.sprintf "state %s" x, "box3d", "solid")
      | Stateful_update { state; _ } -> (Printf.sprintf "update %s" state, "box3d", "solid")
      | Stateful_update_msgs { state; _ } -> (Printf.sprintf "updateMsgs %s" state, "box3d", "solid")
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s [label=\"%s\", shape=%s, style=%s];\n" id (escape label) shape style);
    List.iter
      (fun child ->
        let cid = emit child in
        Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" cid id))
      (children p);
    id
  in
  ignore (emit p);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
