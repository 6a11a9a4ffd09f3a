(* Allocation of one op, in words.

   Each measurement starts from an empty minor heap ([Gc.minor] before the
   op), so what an op allocates and promotes does not depend on what ran
   before it.

   On one domain, [Gc] deltas are exact: the same op repeats to
   the word. [Gc] reads only the calling domain, though, so an op that runs
   part of its work on pool workers or serve lanes would be under-counted
   by a scheduling-dependent amount. [measure ~all_domains:true] instead
   sums the runtime's per-domain minor-collection events
   ([EV_C_MINOR_ALLOCATED], [EV_C_MINOR_PROMOTED]) over every domain's
   event ring. Minor collections are stop-the-world in OCaml 5, so the
   [Gc.minor] after the op flushes every domain's count for the op. Both
   ways count as promoted what the op leaves alive in the minor heap. *)

type t = { minor_words : float; promoted_words : float }

let word_bytes = Sys.word_size / 8

(* both counters are reported in bytes; int refs keep the callback from
   allocating boxed floats while it is being measured *)
let allocated_bytes = ref 0
let promoted_bytes = ref 0
let lost = ref 0

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_counter:(fun _domain _ts counter value ->
      match counter with
      | Runtime_events.EV_C_MINOR_ALLOCATED ->
          allocated_bytes := !allocated_bytes + value
      | Runtime_events.EV_C_MINOR_PROMOTED -> promoted_bytes := !promoted_bytes + value
      | _ -> ())
    ~lost_events:(fun _domain n -> lost := !lost + n)
    ()

let cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let drain () = ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

let words bytes = float (bytes / word_bytes)

(* Events the ring dropped before the measurement started do not matter;
   a drop inside it makes the count unknown, reported as nan. *)
let measure_all_domains f =
  ignore (Lazy.force cursor);
  Gc.minor ();
  drain ();
  let a0 = !allocated_bytes and p0 = !promoted_bytes and l0 = !lost in
  let r = f () in
  Gc.minor ();
  drain ();
  if !lost > l0 then (r, { minor_words = nan; promoted_words = nan })
  else
    ( r,
      { minor_words = words (!allocated_bytes - a0);
        promoted_words = words (!promoted_bytes - p0) } )

let measure_this_domain f =
  Gc.minor ();
  let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let r = f () in
  let w1 = Gc.minor_words () in
  Gc.minor ();
  ( r,
    { minor_words = w1 -. w0;
      promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. p0 } )

let measure ~all_domains f =
  if all_domains then measure_all_domains f else measure_this_domain f
