(* A fixed pool of worker Domains scheduled by per-domain deques with work
   stealing.

   Each participating domain owns one deque, accessed Chase-Lev style: the
   owner pushes and pops at the bottom (LIFO, cache-warm), thieves take
   from the top (FIFO, the oldest — hence largest-remaining — work). The
   deques are guarded by one small mutex each rather than by fences: slot 0
   is shared by every external submitter thread, which a fence-only
   Chase-Lev owner end would not tolerate, and a per-deque lock is touched
   only by its owner plus the occasional thief, so the global contention
   wall of a single shared queue is gone either way.

   A [parinit] batch is scattered round-robin across every deque, the
   submitter's own deque first, so the common case is a local (lock-local)
   pop and stealing happens only when a domain's own deque runs dry —
   exactly when partitions are skewed. Victim order is a seeded
   deterministic permutation per slot (SplitMix64-shuffled at [create]), so
   a scheduling trace is reproducible from the pool seed; note the
   determinism claim for the engine does NOT rest on this — results and
   charged costs are identical under every interleaving, the seed only
   makes wall-clock anomalies replayable.

   A pool of [domains = n] means "n-way parallelism including the caller":
   [create ~domains:n] spawns n-1 worker Domains on slots 1..n-1, and the
   domain that calls [parinit] participates from its own slot (slot 0 if it
   is not a pool worker). Caller participation is what keeps nested
   [parinit] calls deadlock-free: every task of a batch is queued before the
   submitter starts draining, tasks only ever leave a deque by being
   claimed, and the submitter's claim sweep (own pop, then steal from every
   victim) reaches any queued task in the pool — so when the sweep comes up
   empty, every remaining task of its batch is in flight on some domain and
   the submitter may sleep until the last finisher signals the batch
   condition. In-flight tasks complete by induction on nesting depth: a
   deepest-nested batch contains no [parinit] calls, and a nested submitter
   is itself a claim-sweeping participant for its own batch.

   Exception propagation is deterministic: all tasks of a batch run to
   completion and the exception of the LOWEST
   task index is re-raised in the caller — the same exception a sequential
   left-to-right execution would surface — leaving the pool reusable. *)

type batch = {
  b_run : int -> unit;  (* executes task i; never raises (errors recorded) *)
  b_unfinished : int Atomic.t;  (* tasks not yet completed *)
  b_m : Mutex.t;  (* guards the submitter's wait on [b_done] *)
  b_done : Condition.t;  (* broadcast when b_unfinished reaches 0 *)
}

(* A deque of (batch, task index), locked per-deque. Logical positions
   [top, bot) live at [buf.(pos mod capacity)]; the owner moves [bot],
   thieves move [top]. *)
type deque = {
  dq_m : Mutex.t;
  mutable dq_buf : (batch * int) option array;
  mutable dq_top : int;  (* next position to steal *)
  mutable dq_bot : int;  (* next position to push *)
}

let deque_create () =
  { dq_m = Mutex.create ();
    dq_buf = Array.make 8 None;
    dq_top = 0;
    dq_bot = 0 }

let dq_push d x =
  Mutex.lock d.dq_m;
  let cap = Array.length d.dq_buf in
  if d.dq_bot - d.dq_top >= cap then begin
    let ncap = cap * 2 in
    let nbuf = Array.make ncap None in
    for p = d.dq_top to d.dq_bot - 1 do
      nbuf.(p mod ncap) <- d.dq_buf.(p mod cap)
    done;
    d.dq_buf <- nbuf
  end;
  d.dq_buf.(d.dq_bot mod Array.length d.dq_buf) <- Some x;
  d.dq_bot <- d.dq_bot + 1;
  Mutex.unlock d.dq_m

(* Owner end: newest task first. *)
let dq_pop d =
  Mutex.lock d.dq_m;
  let r =
    if d.dq_bot > d.dq_top then begin
      d.dq_bot <- d.dq_bot - 1;
      let p = d.dq_bot mod Array.length d.dq_buf in
      let x = d.dq_buf.(p) in
      d.dq_buf.(p) <- None;
      x
    end
    else None
  in
  Mutex.unlock d.dq_m;
  r

(* Thief end: oldest task first. *)
let dq_steal d =
  Mutex.lock d.dq_m;
  let r =
    if d.dq_top < d.dq_bot then begin
      let p = d.dq_top mod Array.length d.dq_buf in
      let x = d.dq_buf.(p) in
      d.dq_buf.(p) <- None;
      d.dq_top <- d.dq_top + 1;
      x
    end
    else None
  in
  Mutex.unlock d.dq_m;
  r

type t = {
  domains : int;
  deques : deque array;  (* one per slot, 0 .. domains-1 *)
  victims : int array array;  (* victims.(s) = seeded permutation of slots <> s *)
  slot_key : int option Domain.DLS.key;  (* this pool's slot for the current domain *)
  pending : int Atomic.t;  (* queued-task upper bound, drives worker sleep *)
  m : Mutex.t;  (* guards [stop] and the idle-worker sleep *)
  work : Condition.t;  (* broadcast when tasks are queued or on shutdown *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  n_steals : int Atomic.t;
  n_steal_misses : int Atomic.t;
  n_tasks : int Atomic.t;
}

type stats = { steals : int; steal_misses : int; tasks_run : int }

let size t = t.domains

let stats t =
  { steals = Atomic.get t.n_steals;
    steal_misses = Atomic.get t.n_steal_misses;
    tasks_run = Atomic.get t.n_tasks }

(* The calling domain's slot: its worker slot if it is a worker of THIS
   pool (the key is per-pool, so workers of other pools look external
   here), slot 0 otherwise. Slot 0 is also worker-less spare capacity:
   external submitters scatter starting there, and workers steal from it. *)
let self_slot t =
  match Domain.DLS.get t.slot_key with Some s -> s | None -> 0

(* One full claim sweep: own deque first (bottom, LIFO), then every victim
   in this slot's seeded order (top, FIFO). [None] means every deque was
   observed empty — any task queued before the sweep started has been
   claimed by someone. *)
let claim t slot =
  match dq_pop t.deques.(slot) with
  | Some _ as r ->
      Atomic.decr t.pending;
      r
  | None ->
      let vs = t.victims.(slot) in
      let n = Array.length vs in
      let rec sweep i =
        if i >= n then begin
          Atomic.incr t.n_steal_misses;
          None
        end
        else
          match dq_steal t.deques.(vs.(i)) with
          | Some _ as r ->
              Atomic.decr t.pending;
              Atomic.incr t.n_steals;
              r
          | None -> sweep (i + 1)
      in
      sweep 0

let run_task t (b, i) =
  b.b_run i;
  Atomic.incr t.n_tasks;
  (* fetch_and_add returns the PREVIOUS value: 1 means we finished last *)
  if Atomic.fetch_and_add b.b_unfinished (-1) = 1 then begin
    Mutex.lock b.b_m;
    Condition.broadcast b.b_done;
    Mutex.unlock b.b_m
  end

let rec worker_loop t slot =
  match claim t slot with
  | Some tk ->
      run_task t tk;
      worker_loop t slot
  | None ->
      Mutex.lock t.m;
      (* [pending] is bumped before each push and every push precedes the
         submitter's broadcast under [t.m], so checking it under the lock
         cannot miss a wakeup: either we see pending > 0 and rescan, or we
         are waiting when the broadcast arrives. *)
      if (not t.stop) && Atomic.get t.pending = 0 then
        Condition.wait t.work t.m;
      let stop = t.stop in
      Mutex.unlock t.m;
      if not stop then worker_loop t slot

let worker t slot () =
  Domain.DLS.set t.slot_key (Some slot);
  worker_loop t slot

let create ?(seed = 0) ~domains () =
  let domains = max 1 domains in
  let victims =
    Array.init domains (fun s ->
        let vs =
          Array.of_list
            (List.filter (fun v -> v <> s) (List.init domains Fun.id))
        in
        Prng.shuffle (Prng.create (Prng.hash_int64 ~seed [ s ] |> Int64.to_int)) vs;
        vs)
  in
  let t =
    { domains;
      deques = Array.init domains (fun _ -> deque_create ());
      victims;
      slot_key = Domain.DLS.new_key (fun () -> None);
      pending = Atomic.make 0;
      m = Mutex.create ();
      work = Condition.create ();
      stop = false;
      workers = [];
      n_steals = Atomic.make 0;
      n_steal_misses = Atomic.make 0;
      n_tasks = Atomic.make 0 }
  in
  t.workers <-
    List.init (domains - 1) (fun i -> Domain.spawn (worker t (i + 1)));
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
  if n <= 1 || t.domains <= 1 || t.workers = [] then Array.init n f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let run i =
      match f i with
      | r -> results.(i) <- Some r
      | exception e -> errors.(i) <- Some e
    in
    let b =
      { b_run = run;
        b_unfinished = Atomic.make n;
        b_m = Mutex.create ();
        b_done = Condition.create () }
    in
    let self = self_slot t in
    (* Scatter round-robin across all deques starting at our own slot.
       Pushed in descending index order so each owner pops its LIFO end in
       ascending order — the sequential prefix order. [pending] is bumped
       before each push, so it upper-bounds the queued count and a worker
       that reads 0 under [t.m] can safely sleep. *)
    for i = n - 1 downto 0 do
      Atomic.incr t.pending;
      dq_push t.deques.((self + i) mod t.domains) (b, i)
    done;
    Mutex.lock t.m;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (* Participate: claim-sweep until the sweep runs dry, which (tasks were
       all queued before this loop and only leave by claim) means every
       remaining task of OUR batch is in flight — then sleep on the batch
       condition. Sweeping may hand us a task of an unrelated or nested
       batch; running it is both safe and required for progress when a
       nested submitter's chunks landed in our deque. *)
    let rec drain () =
      if Atomic.get b.b_unfinished > 0 then begin
        (match claim t self with
        | Some tk -> run_task t tk
        | None ->
            Mutex.lock b.b_m;
            if Atomic.get b.b_unfinished > 0 then Condition.wait b.b_done b.b_m;
            Mutex.unlock b.b_m);
        drain ()
      end
    in
    drain ();
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
