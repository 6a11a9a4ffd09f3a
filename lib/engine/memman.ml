(* Deterministic, coordinator-side memory accounting.

   All quantities are logical bytes (the same unit the cost model
   charges), and every decision is a pure function of the reservation
   sizes the engine presents in execution order — no wall clock, no
   domain count, no allocation measurement — so verdicts are
   bit-identical across hosts and domain counts. *)

type verdict =
  | Fits
  | Spill of { slots : int; bytes : float }
  | Kill of { attempts : int }
  | Fatal

type entry = { e_bytes : float; e_evict : unit -> unit; mutable e_stamp : int }

type t = {
  budget : float option;
  spill : bool;
  max_inflight : int option;
  headroom : int;
  capacity : float;
  mutable peak : float;
  (* LRU registry of Mem-cached bags *)
  mutable next_id : int;
  mutable clock : int;
  entries : (int, entry) Hashtbl.t;
  mutable cached : float;
  (* admission-control slots: busy-until times; [infinity] marks a slot
     held by a job still running *)
  mutable busy : float list;
}

let create ?budget ?(spill = false) ?max_inflight ~slots_per_node ~dop () =
  (match budget with
  | Some b when b <= 0.0 -> invalid_arg "Memman.create: budget must be positive"
  | _ -> ());
  (match max_inflight with
  | Some k when k < 1 -> invalid_arg "Memman.create: max_inflight must be >= 1"
  | _ -> ());
  {
    budget;
    spill;
    max_inflight;
    headroom = max 1 slots_per_node;
    capacity =
      (match budget with
      | None -> infinity
      | Some b -> b *. float_of_int (max 1 dop));
    peak = 0.0;
    next_id = 0;
    clock = 0;
    entries = Hashtbl.create 16;
    cached = 0.0;
    busy = [];
  }

let governed t = t.budget <> None
let peak t = t.peak
let budget t = match t.budget with Some b -> b | None -> infinity

(* Effective per-slot budget after [k] OOM kills: each retry halves the
   parallelism on the node, doubling the memory share of the surviving
   slots, up to the node's whole memory ([headroom] = slots per node). *)
let eff_mult t k = min (1 lsl k) t.headroom

let reserve t ~needs =
  let maxn = Array.fold_left Float.max 0.0 needs in
  if maxn > t.peak then t.peak <- maxn;
  match t.budget with
  | None -> Fits
  | Some b ->
      let slots = ref 0 and bytes = ref 0.0 in
      Array.iter
        (fun n ->
          if n > b then begin
            incr slots;
            bytes := !bytes +. (n -. b)
          end)
        needs;
      if !slots = 0 then Fits
      else if t.spill then Spill { slots = !slots; bytes = !bytes }
      else begin
        let k = ref 1 in
        while
          b *. float_of_int (eff_mult t !k) < maxn && eff_mult t !k < t.headroom
        do
          incr k
        done;
        if b *. float_of_int (eff_mult t !k) >= maxn then Kill { attempts = !k }
        else Fatal
      end

(* ---- LRU registry of Mem-cached bags ------------------------------ *)

type admission = { admitted : int option; evicted : float list }

let touch t id =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      t.clock <- t.clock + 1;
      e.e_stamp <- t.clock

let forget t id =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.entries id;
      t.cached <- t.cached -. e.e_bytes

let lru t =
  Hashtbl.fold
    (fun id e acc ->
      match acc with
      | Some (_, best) when best.e_stamp <= e.e_stamp -> acc
      | _ -> Some (id, e))
    t.entries None

let register t ~bytes ~evict =
  if not (governed t) then { admitted = None; evicted = [] }
  else if bytes > t.capacity then { admitted = None; evicted = [] }
  else begin
    let evicted = ref [] in
    while t.cached +. bytes > t.capacity do
      match lru t with
      | None -> t.cached <- 0.0 (* defensive; cannot happen with bytes <= capacity *)
      | Some (id, e) ->
          Hashtbl.remove t.entries id;
          t.cached <- t.cached -. e.e_bytes;
          evicted := e.e_bytes :: !evicted;
          e.e_evict ()
    done;
    t.next_id <- t.next_id + 1;
    t.clock <- t.clock + 1;
    let id = t.next_id in
    Hashtbl.replace t.entries id { e_bytes = bytes; e_evict = evict; e_stamp = t.clock };
    t.cached <- t.cached +. bytes;
    { admitted = Some id; evicted = List.rev !evicted }
  end

let cached_bytes t = t.cached

(* ---- admission control -------------------------------------------- *)

let admit_job t ~now =
  match t.max_inflight with
  | None -> 0.0
  | Some k ->
      t.busy <- List.filter (fun u -> u > now) t.busy;
      if List.length t.busy < k then begin
        t.busy <- infinity :: t.busy;
        0.0
      end
      else begin
        (* all slots held; in the serial simulator held slots of finished
           jobs have finite release times — wait for the earliest one *)
        let m = List.fold_left Float.min infinity t.busy in
        let rec drop_one = function
          | [] -> []
          | u :: rest -> if u = m then rest else u :: drop_one rest
        in
        t.busy <- infinity :: drop_one t.busy;
        Float.max 0.0 (m -. now)
      end

let job_done t ~release =
  let rec replace = function
    | [] -> []
    | u :: rest -> if u = infinity then release :: rest else u :: replace rest
  in
  t.busy <- replace t.busy
