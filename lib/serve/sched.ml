(* The serve decision core: deficit round-robin admission over per-tenant
   queues, the queue bound, circuit breakers, the deadline shed and the
   degradation ladder, as two functions over one mutable [state]. It
   never runs a query, journals or traces: the driver in [Serve] feeds
   each [Run] to an executor and hands the outcome back to [settle]. *)

module Config = Emma.Config
module Prng = Emma_util.Prng

type shed_reason =
  | Shed_deadline
  | Shed_queue_full
  | Shed_breaker
  | Shed_drain
  | Shed_degraded

type policy = {
  pl_seed : int;
  pl_deadline_s : float option;
  pl_max_queue : int option;
  pl_breaker : Config.breaker_spec option;
  pl_drain_after_s : float option;
  pl_degrade_depth : int option;
}

type breaker = Br_closed of int | Br_open of float | Br_half_open
type shed = { sd_sub : int; sd_at_s : float; sd_reason : shed_reason }
type run = { sub : int; tenant : int; lane : int; start : float; level : int }
type decision = Idle | Shed of shed | Run of run

type 'r state = {
  quantum_s : float;
  weights : int array;
  arrivals : float array;
  tenant_of : int array;
  order : int array;
  lane_free : float array;
  queues : int Queue.t array;
  deficit : float array;
  max_queue : int array;
  breakers : breaker array;
  breaker_opens : int array;
  mutable half_opens : int;
  mutable closes : int;
  results : 'r option array;
  mutable sheds : shed list;
  mutable next : int;
  mutable accounted : int;
  mutable rr : int;
}

let create ~quantum_s ~weights ~lanes ~arrivals ~tenant_of =
  let n = Array.length arrivals and nt = Array.length weights in
  (* submission order sorted by arrival time, sub id breaking ties *)
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare arrivals.(i) arrivals.(j)) order;
  {
    quantum_s;
    weights;
    arrivals;
    tenant_of;
    order;
    lane_free = Array.make lanes 0.0;
    queues = Array.init nt (fun _ -> Queue.create ());
    deficit = Array.make nt 0.0;
    max_queue = Array.make nt 0;
    breakers = Array.make nt (Br_closed 0);
    breaker_opens = Array.make nt 0;
    half_opens = 0;
    closes = 0;
    results = Array.make n None;
    sheds = [];
    next = 0;
    accounted = 0;
    rr = 0;
  }

let finished st = st.accounted >= Array.length st.arrivals

let shed st ~at_s reason sub =
  let s = { sd_sub = sub; sd_at_s = at_s; sd_reason = reason } in
  st.sheds <- s :: st.sheds;
  st.accounted <- st.accounted + 1;
  Shed s

(* Admission of the arrivals due by [now]: the drain cutoff and the
   queue bound apply at arrival time. A full queue picks its victim —
   the arriving query or the oldest queued one — by a seeded hash of the
   arriving sub id, so the choice is a pure function of (seed, trace).
   The first arrival shed here is returned as the decision. *)
let rec admit pol st now =
  if st.next >= Array.length st.order || st.arrivals.(st.order.(st.next)) > now then None
  else begin
    let sub = st.order.(st.next) in
    let at_s = st.arrivals.(sub) in
    let ti = st.tenant_of.(sub) in
    st.next <- st.next + 1;
    match pol.pl_drain_after_s with
    | Some d when at_s > d -> Some (shed st ~at_s Shed_drain sub)
    | _ -> (
        let q = st.queues.(ti) in
        let victim =
          match pol.pl_max_queue with
          | Some k when Queue.length q >= k ->
              if Prng.hash_int ~seed:pol.pl_seed [ sub ] 2 = 0 then Some sub
              else begin
                let oldest = Queue.pop q in
                Queue.add sub q;
                Some oldest
              end
          | _ ->
              Queue.add sub q;
              None
        in
        st.max_queue.(ti) <- max st.max_queue.(ti) (Queue.length q);
        match victim with
        | Some v -> Some (shed st ~at_s Shed_queue_full v)
        | None -> admit pol st now)
  end

(* Deficit round-robin, post-paid: visit tenants in a fixed rotation; an
   empty queue forfeits its deficit, a backlogged tenant earns quantum x
   weight per visit and runs once its balance is positive (the service
   time is debited by [settle]). Every backlogged tenant's balance grows
   every full rotation, so no tenant starves. *)
let rec drr_pick st =
  let i = st.rr in
  st.rr <- (i + 1) mod Array.length st.queues;
  if Queue.is_empty st.queues.(i) then begin
    st.deficit.(i) <- 0.0;
    drr_pick st
  end
  else begin
    st.deficit.(i) <- st.deficit.(i) +. (st.quantum_s *. float_of_int st.weights.(i));
    if st.deficit.(i) > 0.0 then i else drr_pick st
  end

(* Degradation ladder: one level per [pl_degrade_depth] queries of total
   backlog, capped at 3. *)
let degrade_level pol st =
  match pol.pl_degrade_depth with
  | None -> 0
  | Some d -> min 3 (Array.fold_left (fun a q -> a + Queue.length q) 0 st.queues / max 1 d)

(* The picked tenant's queue head: shed on queue wait past the deadline
   (sheds never ran, so they are not breaker outcomes) or at ladder level
   3 when it would compile cold (plan-cache-only); otherwise run it. *)
let dispatch ~would_hit pol st ~lane ~now ti =
  let sub = Queue.pop st.queues.(ti) in
  let wait = now -. st.arrivals.(sub) in
  if match pol.pl_deadline_s with Some d -> wait >= d | None -> false then
    shed st ~at_s:now Shed_deadline sub
  else
    let level = degrade_level pol st in
    if level >= 3 && not (would_hit sub) then shed st ~at_s:now Shed_degraded sub
    else Run { sub; tenant = ti; lane; start = now; level }

let decide ~would_hit pol st =
  (* earliest-free lane; lowest index breaks ties *)
  let lane = ref 0 in
  Array.iteri (fun i t -> if t < st.lane_free.(!lane) then lane := i) st.lane_free;
  let lane = !lane in
  let now = st.lane_free.(lane) in
  match admit pol st now with
  | Some d -> d
  | None when Array.for_all Queue.is_empty st.queues ->
      (* idle: advance this lane to the next arrival, if any is left *)
      if st.next < Array.length st.order then
        st.lane_free.(lane) <- max now st.arrivals.(st.order.(st.next));
      Idle
  | None -> (
      let ti = drr_pick st in
      (* an open circuit fast-fails the queue head without occupying a
         lane; past the cool-down the first pick half-opens and probes *)
      match st.breakers.(ti) with
      | Br_open until when now < until -> shed st ~at_s:now Shed_breaker (Queue.pop st.queues.(ti))
      | Br_open _ ->
          st.breakers.(ti) <- Br_half_open;
          st.half_opens <- st.half_opens + 1;
          dispatch ~would_hit pol st ~lane ~now ti
      | Br_closed _ | Br_half_open -> dispatch ~would_hit pol st ~lane ~now ti)

(* Closed counts consecutive bad outcomes; at the threshold the circuit
   opens until a cool-down instant; a half-open probe closes or re-opens
   it. Open circuits never dispatch, so [Br_open] cannot be settled. *)
let settle_breaker pol st ti ~finish ~bad =
  match pol.pl_breaker with
  | None -> ()
  | Some { Config.br_threshold; br_cooldown_s } -> (
      let trip () =
        st.breakers.(ti) <- Br_open (finish +. br_cooldown_s);
        st.breaker_opens.(ti) <- st.breaker_opens.(ti) + 1
      in
      match st.breakers.(ti) with
      | Br_closed k when bad ->
          if k + 1 >= br_threshold then trip () else st.breakers.(ti) <- Br_closed (k + 1)
      | Br_closed k -> if k > 0 then st.breakers.(ti) <- Br_closed 0
      | Br_half_open when bad -> trip ()
      | Br_half_open ->
          st.breakers.(ti) <- Br_closed 0;
          st.closes <- st.closes + 1
      | Br_open _ -> ())

let settle pol st r ~service ~bad result =
  st.deficit.(r.tenant) <- st.deficit.(r.tenant) -. service;
  let finish = r.start +. service in
  st.lane_free.(r.lane) <- finish;
  settle_breaker pol st r.tenant ~finish ~bad;
  st.results.(r.sub) <- Some result;
  st.accounted <- st.accounted + 1
