(* Model-based test of the serve decision core (Emma_serve.Sched).

   Random tenants, weights, lanes, arrival traces and policies drive
   [Sched.decide]/[Sched.settle] with a fake executor whose service time,
   outcome class and plan-cache verdict come from a seeded table — no
   Session, no engine. The decision sequence must equal that of a small
   list-based reference model of admission, deficit round-robin, the
   queue bound, the breaker, the deadline shed and the ladder, and the
   run must keep the core's invariants: every submission ends exactly
   once as a result or a shed, an open breaker never dispatches, and the
   ladder level stays within 0–3. *)

module Sched = Emma_serve.Sched
module Prng = Emma_util.Prng

type case = {
  quantum_s : float;
  weights : int array;
  lanes : int;
  arrivals : float array;
  tenant_of : int array;
  service : float array;  (* per sub: the fake executor's service time *)
  bad : bool array;  (* per sub: failed, timed out or cancelled *)
  hit : bool array;  (* per sub: would the plan cache hit *)
  pol : Sched.policy;
}

type entry =
  | E_idle
  | E_shed of int * float * Sched.shed_reason
  | E_run of int * int * int * float * int  (* sub, tenant, lane, start, level *)

let case_gen =
  let open QCheck2.Gen in
  let* nt = int_range 1 3 in
  let* weights = array_size (pure nt) (int_range 1 3) in
  let* lanes = int_range 1 3 in
  let* n = int_range 1 24 in
  (* quarter-second arrivals, so ties between subs are common *)
  let* arrivals = array_size (pure n) (map (fun k -> float_of_int k *. 0.25) (int_range 0 20)) in
  let* tenant_of = array_size (pure n) (int_range 0 (nt - 1)) in
  let* service = array_size (pure n) (map (fun k -> float_of_int k *. 0.125) (int_range 1 16)) in
  let* bad = array_size (pure n) (map (fun k -> k < 3) (int_range 0 9)) in
  let* hit = array_size (pure n) bool in
  let* quantum_s = oneofl [ 0.5; 1.0 ] in
  let* pl_seed = int_range 0 5 in
  let* pl_deadline_s = opt (map (fun k -> float_of_int k *. 0.5) (int_range 1 8)) in
  let* pl_max_queue = opt (int_range 1 3) in
  let* pl_breaker =
    opt
      (map2
         (fun br_threshold k -> { Emma.Config.br_threshold; br_cooldown_s = float_of_int k *. 0.5 })
         (int_range 1 3) (int_range 1 6))
  in
  let* pl_drain_after_s = opt (map float_of_int (int_range 1 5)) in
  let* pl_degrade_depth = opt (int_range 1 3) in
  pure
    {
      quantum_s;
      weights;
      lanes;
      arrivals;
      tenant_of;
      service;
      bad;
      hit;
      pol =
        { Sched.pl_seed; pl_deadline_s; pl_max_queue; pl_breaker; pl_drain_after_s;
          pl_degrade_depth };
    }

let print_case c =
  let floats a = String.concat "," (List.map string_of_float (Array.to_list a)) in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf
    "quantum=%g weights=%s lanes=%d arrivals=%s tenants=%s service=%s bad=%s hit=%s seed=%d \
     deadline=%s max_queue=%s breaker=%s drain=%s degrade=%s"
    c.quantum_s (ints c.weights) c.lanes (floats c.arrivals) (ints c.tenant_of) (floats c.service)
    (ints (Array.map Bool.to_int c.bad))
    (ints (Array.map Bool.to_int c.hit))
    c.pol.Sched.pl_seed
    (opt string_of_float c.pol.Sched.pl_deadline_s)
    (opt string_of_int c.pol.Sched.pl_max_queue)
    (opt
       (fun b -> Printf.sprintf "%d:%g" b.Emma.Config.br_threshold b.Emma.Config.br_cooldown_s)
       c.pol.Sched.pl_breaker)
    (opt string_of_float c.pol.Sched.pl_drain_after_s)
    (opt string_of_int c.pol.Sched.pl_degrade_depth)

(* The core, driven by the fake executor. Returns the decision log and
   the breaker totals (opens, half-opens, closes); checks the invariants
   as it goes. *)
let run_core c =
  let st =
    Sched.create ~quantum_s:c.quantum_s ~weights:c.weights ~lanes:c.lanes ~arrivals:c.arrivals
      ~tenant_of:c.tenant_of
  in
  let n = Array.length c.arrivals in
  let ends = Array.make n 0 in
  let log = ref [] in
  let steps = ref 0 in
  while not (Sched.finished st) do
    incr steps;
    if !steps > 100 * (n + 1) then QCheck2.Test.fail_report "the core does not terminate";
    match Sched.decide ~would_hit:(fun sub -> c.hit.(sub)) c.pol st with
    | Sched.Idle -> log := E_idle :: !log
    | Sched.Shed s ->
        ends.(s.Sched.sd_sub) <- ends.(s.Sched.sd_sub) + 1;
        log := E_shed (s.Sched.sd_sub, s.Sched.sd_at_s, s.Sched.sd_reason) :: !log
    | Sched.Run r ->
        (match st.Sched.breakers.(r.Sched.tenant) with
        | Sched.Br_open _ ->
            QCheck2.Test.fail_reportf "sub %d dispatched on an open breaker" r.Sched.sub
        | _ -> ());
        if r.Sched.level < 0 || r.Sched.level > 3 then
          QCheck2.Test.fail_reportf "ladder level %d" r.Sched.level;
        ends.(r.Sched.sub) <- ends.(r.Sched.sub) + 1;
        let { Sched.sub; tenant; lane; start; level } = r in
        log := E_run (sub, tenant, lane, start, level) :: !log;
        Sched.settle c.pol st r ~service:c.service.(sub) ~bad:c.bad.(sub) sub
  done;
  Array.iteri
    (fun sub k -> if k <> 1 then QCheck2.Test.fail_reportf "sub %d ended %d times" sub k)
    ends;
  Array.iteri
    (fun sub r ->
      let shed = List.exists (fun s -> s.Sched.sd_sub = sub) st.Sched.sheds in
      if (r <> None) = shed then QCheck2.Test.fail_reportf "sub %d: result and shed disagree" sub)
    st.Sched.results;
  ( List.rev !log,
    (Array.fold_left ( + ) 0 st.Sched.breaker_opens, st.Sched.half_opens, st.Sched.closes) )

(* ---------------------------------------------------------------- *)
(* Reference model: immutable lists, one recursive step per decision  *)
(* ---------------------------------------------------------------- *)

type br = Closed of int | Open of float | Half

let set l i v = List.mapi (fun j x -> if j = i then v else x) l

let reference c =
  let pol = c.pol in
  let n = Array.length c.arrivals and nt = Array.length c.weights in
  let pending =
    List.stable_sort (fun a b -> compare c.arrivals.(a) c.arrivals.(b)) (List.init n Fun.id)
  in
  let rec go ~lanes ~pending ~queues ~deficit ~breakers ~rr ~done_ ~totals log =
    let opens, halves, closes = totals in
    if done_ = n then (List.rev log, totals)
    else
      let now = List.fold_left min infinity lanes in
      let rec first i = function t :: rest -> if t = now then i else first (i + 1) rest | [] -> 0 in
      let lane = first 0 lanes in
      let continue ?(lanes = lanes) ?(pending = pending) ?(queues = queues) ?(deficit = deficit)
          ?(breakers = breakers) ?(rr = rr) ?(done_ = done_) ?(totals = totals) log =
        go ~lanes ~pending ~queues ~deficit ~breakers ~rr ~done_ ~totals log
      in
      let shed ?queues ?pending ?deficit ?breakers ?rr ?totals ~at sub reason =
        continue ?queues ?pending ?deficit ?breakers ?rr ?totals ~done_:(done_ + 1)
          (E_shed (sub, at, reason) :: log)
      in
      match pending with
      | sub :: rest when c.arrivals.(sub) <= now -> (
          let at = c.arrivals.(sub) and ti = c.tenant_of.(sub) in
          let q = List.nth queues ti in
          match (pol.Sched.pl_drain_after_s, pol.Sched.pl_max_queue) with
          | Some d, _ when at > d -> shed ~pending:rest ~at sub Sched.Shed_drain
          | _, Some k when List.length q >= k ->
              if Prng.hash_int ~seed:pol.Sched.pl_seed [ sub ] 2 = 0 then
                shed ~pending:rest ~at sub Sched.Shed_queue_full
              else
                shed ~pending:rest
                  ~queues:(set queues ti (List.tl q @ [ sub ]))
                  ~at (List.hd q) Sched.Shed_queue_full
          | _ -> continue ~pending:rest ~queues:(set queues ti (q @ [ sub ])) log)
      | _ when List.for_all (( = ) []) queues ->
          let lanes =
            match pending with sub :: _ -> set lanes lane (max now c.arrivals.(sub)) | [] -> lanes
          in
          continue ~lanes (E_idle :: log)
      | _ -> (
          let rec pick rr deficit =
            let rr' = (rr + 1) mod nt in
            if List.nth queues rr = [] then pick rr' (set deficit rr 0.0)
            else
              let d = List.nth deficit rr +. (c.quantum_s *. float_of_int c.weights.(rr)) in
              if d > 0.0 then (rr, rr', set deficit rr d) else pick rr' (set deficit rr d)
          in
          let ti, rr, deficit = pick rr deficit in
          let sub = List.hd (List.nth queues ti) in
          let queues = set queues ti (List.tl (List.nth queues ti)) in
          match List.nth breakers ti with
          | Open until when now < until -> shed ~queues ~deficit ~rr ~at:now sub Sched.Shed_breaker
          | br ->
              let breakers, totals =
                match br with
                | Open _ -> (set breakers ti Half, (opens, halves + 1, closes))
                | _ -> (breakers, totals)
              in
              let backlog = List.fold_left (fun a q -> a + List.length q) 0 queues in
              let level =
                match pol.Sched.pl_degrade_depth with None -> 0 | Some d -> min 3 (backlog / d)
              in
              let dead =
                match pol.Sched.pl_deadline_s with
                | Some d -> now -. c.arrivals.(sub) >= d
                | None -> false
              in
              let shed = shed ~queues ~deficit ~rr ~breakers ~totals ~at:now sub in
              if dead then shed Sched.Shed_deadline
              else if level >= 3 && not c.hit.(sub) then shed Sched.Shed_degraded
              else
                let service = c.service.(sub) in
                let finish = now +. service in
                let opens, halves, closes = totals in
                let breakers, totals =
                  match (pol.Sched.pl_breaker, List.nth breakers ti) with
                  | None, _ -> (breakers, totals)
                  | Some b, br -> (
                      let trip = Open (finish +. b.Emma.Config.br_cooldown_s) in
                      match (br, c.bad.(sub)) with
                      | Closed k, true when k + 1 >= b.Emma.Config.br_threshold ->
                          (set breakers ti trip, (opens + 1, halves, closes))
                      | Closed k, true -> (set breakers ti (Closed (k + 1)), totals)
                      | Closed _, false -> (set breakers ti (Closed 0), totals)
                      | Half, true -> (set breakers ti trip, (opens + 1, halves, closes))
                      | Half, false -> (set breakers ti (Closed 0), (opens, halves, closes + 1))
                      | Open _, _ -> (breakers, totals))
                in
                continue ~queues ~rr ~breakers ~totals ~done_:(done_ + 1)
                  ~lanes:(set lanes lane finish)
                  ~deficit:(set deficit ti (List.nth deficit ti -. service))
                  (E_run (sub, ti, lane, now, level) :: log))
  in
  go ~lanes:(List.init c.lanes (fun _ -> 0.0)) ~pending ~queues:(List.init nt (fun _ -> []))
    ~deficit:(List.init nt (fun _ -> 0.0))
    ~breakers:(List.init nt (fun _ -> Closed 0))
    ~rr:0 ~done_:0 ~totals:(0, 0, 0) []

let entry_to_string = function
  | E_idle -> "idle"
  | E_shed (sub, at, r) -> Printf.sprintf "shed %d at %h %s" sub at (Emma_serve.Serve.shed_reason_to_string r)
  | E_run (sub, ti, lane, start, level) ->
      Printf.sprintf "run %d tenant %d lane %d at %h level %d" sub ti lane start level

let prop_core_matches_model c =
  let core_log, core_totals = run_core c in
  let model_log, model_totals = reference c in
  if core_log <> model_log then
    QCheck2.Test.fail_reportf "decision sequences differ\ncore:  %s\nmodel: %s"
      (String.concat "; " (List.map entry_to_string core_log))
      (String.concat "; " (List.map entry_to_string model_log));
  if core_totals <> model_totals then QCheck2.Test.fail_report "breaker totals differ";
  true

let suite =
  [ ( "sched",
      [ QCheck_alcotest.to_alcotest
          (QCheck2.Test.make ~count:500 ~name:"core == list-based reference model, invariants hold"
             ~print:print_case case_gen prop_core_matches_model) ] ) ]
