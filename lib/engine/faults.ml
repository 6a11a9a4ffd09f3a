module Prng = Emma_util.Prng

type rates = {
  task_fail : float;
  executor_loss : float;
  fetch_fail : float;
  straggler : float;
  straggler_slowdown : float;
  loop_loss : float;
  oom_kill : float;
}

let zero_rates =
  { task_fail = 0.0;
    executor_loss = 0.0;
    fetch_fail = 0.0;
    straggler = 0.0;
    straggler_slowdown = 1.0;
    loop_loss = 0.0;
    oom_kill = 0.0 }

let default_rates =
  { task_fail = 0.05;
    executor_loss = 0.02;
    fetch_fail = 0.05;
    straggler = 0.05;
    straggler_slowdown = 4.0;
    loop_loss = 0.02;
    oom_kill = 0.02 }

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let normalize r =
  { task_fail = clamp01 r.task_fail;
    executor_loss = clamp01 r.executor_loss;
    fetch_fail = clamp01 r.fetch_fail;
    straggler = clamp01 r.straggler;
    straggler_slowdown = Float.max 1.0 r.straggler_slowdown;
    loop_loss = clamp01 r.loop_loss;
    oom_kill = clamp01 r.oom_kill }

let rates_of_string s =
  let parse_kv acc kv =
    match acc with
    | Error _ -> acc
    | Ok r -> (
        match String.split_on_char '=' kv with
        | [ k; v ] -> (
            match float_of_string_opt (String.trim v) with
            | None -> Error (Printf.sprintf "chaos rates: bad number %S" v)
            | Some f -> (
                let key = String.trim k in
                let prob set =
                  if f < 0.0 || f > 1.0 then
                    Error
                      (Printf.sprintf
                         "chaos rates: %s=%g is out of range (probabilities \
                          must be in [0, 1])"
                         key f)
                  else Ok (set f)
                in
                match key with
                | "task" -> prob (fun f -> { r with task_fail = f })
                | "exec" -> prob (fun f -> { r with executor_loss = f })
                | "fetch" -> prob (fun f -> { r with fetch_fail = f })
                | "straggle" -> prob (fun f -> { r with straggler = f })
                | "slow" ->
                    if f < 1.0 then
                      Error
                        (Printf.sprintf
                           "chaos rates: slow=%g is out of range (the \
                            straggler slowdown must be >= 1)"
                           f)
                    else Ok { r with straggler_slowdown = f }
                | "loop" -> prob (fun f -> { r with loop_loss = f })
                | "oom" -> prob (fun f -> { r with oom_kill = f })
                | k -> Error (Printf.sprintf "chaos rates: unknown key %S" k)))
        | _ -> Error (Printf.sprintf "chaos rates: expected key=value, got %S" kv))
  in
  match
    List.fold_left parse_kv (Ok zero_rates)
      (List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' s))
  with
  | Ok r -> Ok (normalize r)
  | Error _ as e -> e

type event =
  | Cache_loss of int
  | Task_fail of { barrier : int; part : int; attempts : int }
  | Exec_loss of { barrier : int; node : int }
  | Fetch_fail of { shuffle : int; part : int; times : int }
  | Straggle of { stage : int; part : int; slowdown : float }
  | Loop_loss of int
  | Oom_kill of int
  | Ckpt_corrupt of int

type t = { seed : int; rates : rates; script : event list }

let none = { seed = 0; rates = zero_rates; script = [] }

let is_none t =
  t.script = []
  && t.rates.task_fail = 0.0 && t.rates.executor_loss = 0.0
  && t.rates.fetch_fail = 0.0 && t.rates.straggler = 0.0
  && t.rates.loop_loss = 0.0 && t.rates.oom_kill = 0.0

let seeded ?(rates = default_rates) seed = { seed; rates = normalize rates; script = [] }
let scripted script = { none with script }

(* Injection-point tags keep the draw streams of different channels
   disjoint even when their sequence counters collide. *)
let tag_task = 1
let tag_exec = 2
let tag_exec_node = 3
let tag_fetch = 4
let tag_straggle = 5
let tag_loop = 6
let tag_oom = 7

let draw t ids = Prng.hash_unit ~seed:t.seed ids

let task_failures t ~barrier ~part ~cap =
  let scripted =
    List.fold_left
      (fun acc -> function
        | Task_fail f when f.barrier = barrier && f.part = part -> acc + f.attempts
        | _ -> acc)
      0 t.script
  in
  if scripted > 0 then scripted
  else if t.rates.task_fail <= 0.0 then 0
  else begin
    let n = ref 0 in
    while !n < cap && draw t [ tag_task; barrier; part; !n ] < t.rates.task_fail do
      incr n
    done;
    !n
  end

let executor_loss t ~barrier ~nodes =
  let scripted =
    List.find_map
      (function
        | Exec_loss e when e.barrier = barrier && e.node < nodes -> Some e.node
        | _ -> None)
      t.script
  in
  match scripted with
  | Some _ as s -> s
  | None ->
      if t.rates.executor_loss > 0.0 && nodes > 0
         && draw t [ tag_exec; barrier ] < t.rates.executor_loss
      then Some (Prng.hash_int ~seed:t.seed [ tag_exec_node; barrier ] nodes)
      else None

let fetch_failures t ~shuffle ~part =
  let scripted =
    List.fold_left
      (fun acc -> function
        | Fetch_fail f when f.shuffle = shuffle && f.part = part -> acc + f.times
        | _ -> acc)
      0 t.script
  in
  if scripted > 0 then scripted
  else if t.rates.fetch_fail > 0.0 && draw t [ tag_fetch; shuffle; part ] < t.rates.fetch_fail
  then 1
  else 0

let straggler t ~stage ~part =
  let scripted =
    List.find_map
      (function
        | Straggle s when s.stage = stage && s.part = part && s.slowdown > 1.0 ->
            Some s.slowdown
        | _ -> None)
      t.script
  in
  match scripted with
  | Some _ as s -> s
  | None ->
      if t.rates.straggler > 0.0 && t.rates.straggler_slowdown > 1.0
         && draw t [ tag_straggle; stage; part ] < t.rates.straggler
      then Some t.rates.straggler_slowdown
      else None

let cache_loss t ~hit =
  List.exists (function Cache_loss k -> k = hit | _ -> false) t.script

let loop_loss t ~boundary =
  List.exists (function Loop_loss k -> k = boundary | _ -> false) t.script
  || (t.rates.loop_loss > 0.0 && draw t [ tag_loop; boundary ] < t.rates.loop_loss)

let oom_kill t ~reservation =
  List.exists (function Oom_kill k -> k = reservation | _ -> false) t.script
  || (t.rates.oom_kill > 0.0
      && draw t [ tag_oom; reservation ] < t.rates.oom_kill)

let ckpt_corrupt t ~ckpt =
  List.exists (function Ckpt_corrupt k -> k = ckpt | _ -> false) t.script
