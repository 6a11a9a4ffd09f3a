(* Bounded LRU of compiled plans, keyed by Pipeline.cache_key. The
   capacity is small (default 64 via Config), so a scanned list keeps the
   implementation obviously correct: probe compares the CRC first and
   confirms on the full key text, store evicts strictly-least-recently
   used entries. A monotone tick orders uses, so eviction is a pure
   function of the operation sequence — no clocks, no hashing order —
   which is what makes serve's counters replayable. All operations take
   the internal mutex: pool domains may submit to one session, and so
   probe it, at once. *)

type entry = {
  e_key : Pipeline.cache_key;
  e_plan : Emma_dataflow.Cprog.t;
  e_report : Pipeline.report;
  mutable e_last_use : int;
}

type t = {
  capacity : int;
  mutable entries : entry list;  (* unordered; at most [capacity] long *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ~capacity =
  if capacity < 1 then
    invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    capacity;
    entries = [];
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = List.length t.entries;
      })

let key_equal (a : Pipeline.cache_key) (b : Pipeline.cache_key) =
  a.Pipeline.ck_crc = b.Pipeline.ck_crc
  && String.equal a.Pipeline.ck_text b.Pipeline.ck_text

(* Uncounted membership test: no hit/miss bump, no recency refresh. The
   serve layer's plan-cache-only degradation rung peeks at the cache to
   decide whether a query would compile cold, and that peek must not
   perturb the counted probe/store sequence the LRU replays from. *)
let mem t key =
  with_lock t (fun () ->
      List.exists (fun e -> key_equal e.e_key key) t.entries)

let probe t key =
  with_lock t (fun () ->
      match List.find_opt (fun e -> key_equal e.e_key key) t.entries with
      | Some e ->
          t.tick <- t.tick + 1;
          e.e_last_use <- t.tick;
          t.hits <- t.hits + 1;
          Some (e.e_plan, e.e_report)
      | None ->
          t.misses <- t.misses + 1;
          None)

(* Insert (or refresh) an entry, evicting least-recently-used ones past
   capacity; returns how many entries were evicted by this store. Ticks
   are unique, so the LRU choice never needs a tie-break. *)
let store t key (plan, report) =
  with_lock t (fun () ->
      t.tick <- t.tick + 1;
      (match List.find_opt (fun e -> key_equal e.e_key key) t.entries with
      | Some e -> e.e_last_use <- t.tick
      | None ->
          t.entries <-
            { e_key = key; e_plan = plan; e_report = report; e_last_use = t.tick }
            :: t.entries);
      let evicted = ref 0 in
      while List.length t.entries > t.capacity do
        let victim =
          List.fold_left
            (fun acc e ->
              match acc with
              | None -> Some e
              | Some best ->
                  if e.e_last_use < best.e_last_use then Some e else acc)
            None t.entries
        in
        match victim with
        | None -> assert false
        | Some v ->
            t.entries <- List.filter (fun e -> e != v) t.entries;
            incr evicted
      done;
      t.evictions <- t.evictions + !evicted;
      !evicted)

(* Stats-neutral recency refresh: consumes exactly one tick when the
   key is present (matching a counted hit's probe), bumps no counters.
   Recovery replays journaled cache hits through this so the LRU order
   after replay is identical to the uninterrupted run's. *)
let touch t key =
  with_lock t (fun () ->
      match List.find_opt (fun e -> key_equal e.e_key key) t.entries with
      | Some e ->
          t.tick <- t.tick + 1;
          e.e_last_use <- t.tick
      | None -> ())

(* Stats-neutral insert-or-refresh: same tick and eviction behavior as
   [store] (so replayed misses reproduce the uninterrupted run's LRU
   evolution exactly) but bumps neither [misses] nor [evictions] — the
   journaled pre-crash counts are added back as a base by the serve
   layer. *)
let prime t key (plan, report) =
  with_lock t (fun () ->
      t.tick <- t.tick + 1;
      (match List.find_opt (fun e -> key_equal e.e_key key) t.entries with
      | Some e -> e.e_last_use <- t.tick
      | None ->
          t.entries <-
            { e_key = key; e_plan = plan; e_report = report; e_last_use = t.tick }
            :: t.entries);
      while List.length t.entries > t.capacity do
        let victim =
          List.fold_left
            (fun acc e ->
              match acc with
              | None -> Some e
              | Some best ->
                  if e.e_last_use < best.e_last_use then Some e else acc)
            None t.entries
        in
        match victim with
        | None -> assert false
        | Some v -> t.entries <- List.filter (fun e -> e != v) t.entries
      done)

(* Oldest-first recency order, for serve snapshots: replaying [prime] on
   this sequence rebuilds both the population and the LRU order. *)
let entries_by_recency t =
  with_lock t (fun () ->
      t.entries
      |> List.sort (fun a b -> compare a.e_last_use b.e_last_use)
      |> List.map (fun e -> e.e_key))
