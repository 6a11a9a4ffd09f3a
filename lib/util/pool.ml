(* A fixed pool of worker Domains that share batches through claim
   cursors.

   A [parinit] batch is [n] independent tasks with an atomic [next] index:
   whoever takes index [i] with a fetch-and-add runs task [i], so a task is
   claimed exactly once without any queue. The pool keeps, under its one
   mutex, the list of batches that may still have unclaimed tasks, newest
   first. The engine submits at most a few tasks per domain, each a
   contiguous range of whole partitions, so one shared counter per batch
   is all the balancing they need, as in a [parMap] skeleton.

   A pool of [domains = n] means "n-way parallelism including the caller":
   [create ~domains:n] spawns n-1 worker Domains, and the domain that calls
   [parinit] claims from its own batch alongside them. Invariants:

   - Deadlock freedom under nesting. A submitter claims every unclaimed
     index of its own batch itself before it sleeps, so any task of its
     batch still unfinished is in flight on a running domain. In-flight
     tasks complete by induction on nesting depth: a deepest-nested batch
     contains no [parinit] calls, and a nested submitter is itself a
     claimer of its own batch. No idle worker is needed for progress.

   - No lost wakeups. A submitter publishes its batch and broadcasts under
     the pool mutex, and an idle worker scans the list and then waits
     under that same mutex: either it sees the batch or it is already
     waiting when the broadcast lands. The last task to finish broadcasts
     the batch condition under the batch mutex, under which the submitter
     checks the unfinished count before it waits.

   - Deterministic exception choice. All tasks of a batch run to
     completion and the exception of the LOWEST task index is re-raised
     in the caller (the one a sequential left-to-right run would surface),
     leaving the pool reusable.

   - Nothing scheduling-dependent is observable outside wall clock:
     results are stored by index, and which domain ran a task is never
     read. *)

type batch = {
  n : int;
  run : int -> unit;  (* executes task i; never raises (errors recorded) *)
  next : int Atomic.t;  (* next unclaimed index; claimed out when >= n *)
  unfinished : int Atomic.t;  (* tasks not yet completed *)
  b_m : Mutex.t;  (* guards the submitter's wait on [b_done] *)
  b_done : Condition.t;  (* broadcast when [unfinished] reaches 0 *)
}

type t = {
  domains : int;
  m : Mutex.t;  (* guards [batches], [stop] and the idle-worker sleep *)
  work : Condition.t;  (* broadcast when a batch is published or on shutdown *)
  mutable batches : batch list;  (* may still have unclaimed tasks, newest first *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.domains

(* Claim and run tasks of [b] until its cursor passes the end. *)
let rec claim_all b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.n then begin
    b.run i;
    (* fetch_and_add returns the PREVIOUS value: 1 means we finished last *)
    if Atomic.fetch_and_add b.unfinished (-1) = 1 then begin
      Mutex.lock b.b_m;
      Condition.broadcast b.b_done;
      Mutex.unlock b.b_m
    end;
    claim_all b
  end

let has_unclaimed b = Atomic.get b.next < b.n

let rec worker_loop t =
  Mutex.lock t.m;
  let rec await () =
    match List.find_opt has_unclaimed t.batches with
    | Some _ as b -> b
    | None when t.stop -> None
    | None ->
        Condition.wait t.work t.m;
        await ()
  in
  let b = await () in
  Mutex.unlock t.m;
  match b with
  | Some b ->
      claim_all b;
      worker_loop t
  | None -> ()

let create ~domains () =
  let domains = max 1 domains in
  let t =
    { domains;
      m = Mutex.create ();
      work = Condition.create ();
      batches = [];
      stop = false;
      workers = [] }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.m;
  let ws = t.workers in
  t.stop <- true;
  t.workers <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join ws

let parinit t n f =
  (* [Array.init] applies [f] in ascending order, so a failing index
     raises the same (lowest-index) exception the parallel path
     propagates *)
  if n <= 1 || t.workers = [] then Array.init n f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let run i =
      match f i with
      | r -> results.(i) <- Some r
      | exception e -> errors.(i) <- Some e
    in
    let b =
      { n;
        run;
        next = Atomic.make 0;
        unfinished = Atomic.make n;
        b_m = Mutex.create ();
        b_done = Condition.create () }
    in
    Mutex.lock t.m;
    t.batches <- b :: t.batches;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    claim_all b;
    Mutex.lock t.m;
    t.batches <- List.filter (fun b' -> b' != b) t.batches;
    Mutex.unlock t.m;
    (* every index is claimed: what is left is in flight elsewhere *)
    Mutex.lock b.b_m;
    while Atomic.get b.unfinished > 0 do
      Condition.wait b.b_done b.b_m
    done;
    Mutex.unlock b.b_m;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function Some r -> r | None -> invalid_arg "Pool.parinit: missing result")
      results
  end

let parmap t f xs = parinit t (Array.length xs) (fun i -> f xs.(i))

(* ------------------------------------------------------------------ *)
(* Global default pool                                                  *)
(* ------------------------------------------------------------------ *)

let default_m = Mutex.create ()
let default_pool : t option ref = ref None
let default_size = ref 1

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~domains:!default_size () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_m;
  p

let set_default_domains n =
  let n = max 1 n in
  Mutex.lock default_m;
  let old = !default_pool in
  default_size := n;
  default_pool := None;
  Mutex.unlock default_m;
  match old with Some p -> shutdown p | None -> ()

let default_domains () = !default_size
