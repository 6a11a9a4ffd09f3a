module Trace = Emma_util.Trace
module Expr = Emma_lang.Expr
module Pretty = Emma_lang.Pretty
module Plan = Emma_dataflow.Plan
module Cprog = Emma_dataflow.Cprog

type opts = {
  inline : bool;
  fuse : bool;
  unnest : bool;
  cache : bool;
  partition : bool;
}

let default_opts = { inline = true; fuse = true; unnest = true; cache = true; partition = true }
let no_opts = { inline = true; fuse = false; unnest = false; cache = false; partition = false }

let with_ ?(inline = true) ?(fuse = true) ?(unnest = true) ?(cache = true) ?(partition = true)
    () =
  { inline; fuse; unnest; cache; partition }

type report = {
  fusion : Fusion.stats;
  translation : Translate.stats;
  cached_vars : string list;
  partitioned_vars : string list;
}

let applied_group_fusion r = r.fusion.Fusion.fused_groups > 0
let applied_unnesting r = r.translation.Translate.semi_joins > 0
let applied_caching r = r.cached_vars <> []
let applied_partition_pulling r = r.partitioned_vars <> []

(* ------------------------------------------------------------------ *)
(* Phase observation                                                    *)
(* ------------------------------------------------------------------ *)

type phase_obs = {
  ph_name : string;
  ph_enabled : bool;
  ph_before : int;
  ph_after : int;
  ph_changed : bool;
  ph_detail : (string * string) list;
  ph_artifact : string option;
}

let program_size (p : Expr.program) =
  let n = ref 0 in
  Expr.iter_program_exprs (fun e -> n := !n + Expr.size e) p;
  !n

let cprog_size (c : Cprog.t) =
  let n = ref 0 in
  ignore
    (Cprog.map_rhs
       (fun r ->
         n :=
           !n + Expr.size r.Cprog.expr
           + List.fold_left (fun acc (_, pl) -> acc + Plan.node_count pl) 0 r.Cprog.thunks;
         r)
       c);
  !n

(* Run one artifact-preserving phase: emit a compile span recording
   before/after node counts and, when observed, a phase snapshot with the
   pretty-printed artifact (only rendered when an observer is present — a
   plain [compile] never pays for pretty-printing). *)
let run_phase ~trace ~observe ~name ~enabled ~size ~render ?(detail = fun () -> []) x f =
  if not enabled then begin
    (match observe with
    | None -> ()
    | Some obs ->
        let n = size x in
        obs
          { ph_name = name; ph_enabled = false; ph_before = n; ph_after = n;
            ph_changed = false; ph_detail = []; ph_artifact = None });
    x
  end
  else begin
    let before = size x in
    let y =
      Trace.span_f trace ~cat:"compile"
        ~args:[ ("nodes_before", Trace.A_int before) ]
        ~end_args:(fun y -> [ ("nodes_after", Trace.A_int (size y)) ])
        name
        (fun () -> f x)
    in
    (match observe with
    | None -> ()
    | Some obs ->
        let after = size y in
        let before_s = render x and after_s = render y in
        let changed = not (String.equal before_s after_s) in
        obs
          { ph_name = name; ph_enabled = true; ph_before = before; ph_after = after;
            ph_changed = changed; ph_detail = detail ();
            ph_artifact = (if changed then Some after_s else None) });
    y
  end

(* ------------------------------------------------------------------ *)
(* The pipeline                                                         *)
(* ------------------------------------------------------------------ *)

let front_end ~trace ~observe opts fusion_stats p =
  let pphase = run_phase ~trace ~observe ~size:program_size ~render:Pretty.program_to_string in
  let p = pphase ~name:"inline" ~enabled:opts.inline p Sinline.program in
  let p = pphase ~name:"normalize" ~enabled:true p Emma_comp.Normalize.program in
  let p =
    pphase ~name:"fusion" ~enabled:opts.fuse
      ~detail:(fun () ->
        [ ("fused groups", string_of_int fusion_stats.Fusion.fused_groups);
          ("fused folds", string_of_int fusion_stats.Fusion.fused_folds) ])
      p
      (Fusion.program ~stats:fusion_stats)
  in
  p

let normalized ?(opts = default_opts) p =
  front_end ~trace:Trace.disabled ~observe:None opts (Fusion.fresh_stats ()) p

(* ------------------------------------------------------------------ *)
(* Plan-cache seam                                                      *)
(* ------------------------------------------------------------------ *)

type cache_key = { ck_crc : int; ck_text : string }

(* Every opts field participates in the key: an ablation toggle changes
   which plan the pipeline produces, so it must miss. *)
let opts_fingerprint o =
  Printf.sprintf "opts:i%c f%c u%c c%c p%c"
    (if o.inline then '1' else '0')
    (if o.fuse then '1' else '0')
    (if o.unnest then '1' else '0')
    (if o.cache then '1' else '0')
    (if o.partition then '1' else '0')

let normalized_key ?(opts = default_opts) ?(schema = "") p =
  (* Render the front-end-normalized program under a reset fresh-name
     counter: normalization invents variable names from a global counter,
     so without the reset the same source program would render differently
     on every call. With it, textual identity of (normalized program,
     opts, schema) is a stable equality — the CRC32 only indexes; the
     carried text makes collisions harmless. *)
  let text =
    Expr.with_fresh_reset (fun () ->
        Pretty.program_to_string
          (front_end ~trace:Trace.disabled ~observe:None opts
             (Fusion.fresh_stats ()) p))
  in
  let text =
    String.concat "\n" [ opts_fingerprint opts; "schema:" ^ schema; text ]
  in
  { ck_crc = Emma_util.Crc32.string text; ck_text = text }

let compile ?(opts = default_opts) ?trace ?observe p =
  let trace = match trace with Some tr -> tr | None -> Trace.global () in
  let fusion_stats = Fusion.fresh_stats () in
  let translation = Translate.fresh_stats () in
  let p = front_end ~trace ~observe opts fusion_stats p in
  let before = program_size p in
  let c =
    Trace.span_f trace ~cat:"compile"
      ~args:[ ("nodes_before", Trace.A_int before) ]
      ~end_args:(fun c -> [ ("nodes_after", Trace.A_int (cprog_size c)) ])
      "translate"
      (fun () -> Translate.program ~unnest:opts.unnest ~stats:translation p)
  in
  (match observe with
  | None -> ()
  | Some obs ->
      obs
        { ph_name = "translate"; ph_enabled = true; ph_before = before;
          ph_after = cprog_size c; ph_changed = true;
          ph_detail =
            [ ("unnesting", if opts.unnest then "on" else "off");
              ("eq joins", string_of_int translation.Translate.eq_joins);
              ("semi joins", string_of_int translation.Translate.semi_joins);
              ("anti joins", string_of_int translation.Translate.anti_joins);
              ("crosses", string_of_int translation.Translate.crosses);
              ("filters", string_of_int translation.Translate.filters);
              ("broadcast filters", string_of_int translation.Translate.broadcast_filters) ];
          ph_artifact = Some (Cprog.to_string c) });
  let cphase = run_phase ~trace ~observe ~size:cprog_size ~render:Cprog.to_string in
  let cached = ref [] in
  let partitioned = ref [] in
  let c =
    cphase ~name:"caching" ~enabled:opts.cache
      ~detail:(fun () -> [ ("cached vars", String.concat ", " !cached) ])
      c
      (fun c ->
        let c, vs = Physical.insert_caching c in
        cached := vs;
        c)
  in
  let c =
    cphase ~name:"partition" ~enabled:opts.partition
      ~detail:(fun () -> [ ("partitioned vars", String.concat ", " !partitioned) ])
      c
      (fun c ->
        let c, vs = Physical.partition_pulling c in
        partitioned := vs;
        c)
  in
  let c = cphase ~name:"broadcasts" ~enabled:true c Physical.annotate_broadcasts in
  (* Analysis-only phase: reports the UDF sites the engine will stage
     through [Emma_lang.Compile] at run time (the plans are unchanged, so
     it renders as a no-op). *)
  let c =
    cphase ~name:"udf-compile" ~enabled:true
      ~detail:(fun () -> Physical.udf_compile_stats c)
      c
      (fun c -> c)
  in
  ( c,
    { fusion = fusion_stats;
      translation;
      cached_vars = !cached;
      partitioned_vars = !partitioned } )
