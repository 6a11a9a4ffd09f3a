module Value = Emma_value.Value
module Expr = Emma_lang.Expr
module S = Emma_lang.Surface

(* ------------------------------------------------------------------ *)
(* Value-level constructors                                             *)
(* ------------------------------------------------------------------ *)

let edge src dst = Value.record [ ("src", Value.Int src); ("dst", Value.Int dst) ]

let edges_of_list pairs = List.map (fun (s, d) -> edge s d) pairs

let edges_of_adjacency rows =
  List.concat_map
    (fun v ->
      let src = Value.to_int (Value.field v "id") in
      List.map (fun n -> edge src (Value.to_int n)) (Value.to_bag (Value.field v "neighbors")))
    rows

(* ------------------------------------------------------------------ *)
(* Expression-level operations                                          *)
(* ------------------------------------------------------------------ *)

let reverse edges =
  S.(
    for_
      [ gen "e" edges ]
      ~yield:(record [ ("src", field (var "e") "dst"); ("dst", field (var "e") "src") ]))

let undirect edges = S.distinct (S.union edges (reverse edges))

let out_degrees edges =
  S.(
    for_
      [ gen "g" (group_by (lam "e" (fun e -> field e "src")) edges) ]
      ~yield:
        (record
           [ ("id", field (var "g") "key"); ("degree", count (field (var "g") "values")) ]))

let vertices edges =
  S.(
    distinct
      (union
         (for_ [ gen "e" edges ] ~yield:(field (var "e") "src"))
         (for_ [ gen "e" edges ] ~yield:(field (var "e") "dst"))))

let edge_count edges = S.count edges

let triangle_count edges =
  (* paths a→b→c with a closing edge c→a; the exists becomes a semi-join
     on the composite (src, dst) key *)
  S.(
    count
      (for_
         [ gen "e1" edges;
           gen "e2" edges;
           when_ (field (var "e1") "dst" = field (var "e2") "src");
           when_
             (exists
                (lam "e3" (fun e3 ->
                     (field e3 "src" = field (var "e2") "dst")
                     && (field e3 "dst" = field (var "e1") "src")))
                edges) ]
         ~yield:(tup [ field (var "e1") "src"; field (var "e1") "dst"; field (var "e2") "dst" ])))

let two_hop_neighbors edges =
  S.(
    distinct
      (for_
         [ gen "e1" edges;
           gen "e2" edges;
           when_ (field (var "e1") "dst" = field (var "e2") "src");
           when_ (not_ (field (var "e1") "src" = field (var "e2") "dst")) ]
         ~yield:
           (record [ ("src", field (var "e1") "src"); ("dst", field (var "e2") "dst") ])))

(* ------------------------------------------------------------------ *)
(* Oracles                                                              *)
(* ------------------------------------------------------------------ *)

let triangle_count_reference pairs =
  let edge_set = Hashtbl.create (List.length pairs) in
  List.iter (fun e -> Hashtbl.replace edge_set e ()) pairs;
  (* multiplicity-faithful: iterate over the edge *list* for e1 and e2 and
     count each closing pair once per occurrence, like the bag semantics *)
  List.fold_left
    (fun acc (a, b) ->
      List.fold_left
        (fun acc (b', c) ->
          if b = b' && Hashtbl.mem edge_set (c, a) then acc + 1 else acc)
        acc pairs)
    0 pairs

let out_degrees_reference pairs =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (s, _) ->
      let r = Option.value (Hashtbl.find_opt counts s) ~default:0 in
      Hashtbl.replace counts s (r + 1))
    pairs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare
