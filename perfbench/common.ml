(** Shared plumbing for the benchmark workloads: clocks, order
    statistics, the metric record each workload fills in, a GC probe
    over [Gc.quick_stat], and pause accounting from [runtime_events]. *)

let now_ns () : int = Mclock.now_ns ()
let secs_since (t0 : int) : float = float_of_int (now_ns () - t0) *. 1e-9

(** [timed f] runs [f] and returns its result with its wall time in
    seconds. *)
let timed (f : unit -> 'a) : 'a * float =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(** Linear-interpolated quantile [q] in [0,1] of a non-empty sample. *)
let quantile (xs : float array) (q : float) : float =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median (xs : float array) : float = quantile xs 0.5

(** CPU time of the whole process (user + system, every thread), in
    seconds.  The kernel does not charge a task for time the hypervisor
    steals from its virtual CPU, so this clock, unlike wall time, does
    not move with other tenants of the host. *)
let cpu_s () : float =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime
let median_l (xs : float list) : float = median (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Results.                                                           *)

(** What one workload run produces.  [e2e] and [layers] map metric
    names to (value, unit) for the metrics every workload reports (see
    {!e2e_names} and {!layer_names}); [breakdown] holds the workload's
    own finer metrics, printed for people but not part of the result;
    [detail] holds the extra numbers the reconciliation tests read. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable breaches : string list;  (** correctness failures, newest first *)
  mutable e2e : (string * (float * string)) list;
  mutable layers : (string * (float * string)) list;
  mutable breakdown : (string * (float * string)) list;
  mutable detail : (string * float) list;
}

let new_outcome () =
  {
    attempted = 0;
    failed = 0;
    breaches = [];
    e2e = [];
    layers = [];
    breakdown = [];
    detail = [];
  }

(** The end-to-end metrics, the same in every workload: its set-up
    time, and the wall time and the process CPU time of one batch of
    its work (each workload defines its batch). *)
let e2e_names = [ ("setup_s", "s"); ("batch_s", "s"); ("cpu_s", "s") ]

(** The per-layer metrics, the same in every workload.  They come from
    the traced run, whose [traced.*] metrics are its end-to-end ones.
    Counts are per batch; a layer that a workload does not run reports
    0. *)
let layer_names =
  [
    ("traced.batch_s", "s");  (** [batch_s] measured with the tracers on *)
    ("traced.cpu_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.alloc_mwords", "Mwords");
    ("gc.pause_ms", "ms");
    ("par.beats", "count");
    ("par.promotions", "count");
    ("par.steals", "count");
    ("par.joins", "count");
    ("par.steal_ok_frac", "ratio");
    ("par.idle_frac", "ratio");
    ("kernels.d1_over_serial", "ratio");
    ("kernels.serial_over_d2", "ratio");
    ("serve.sojourn_share", "ratio");
    ("serve.small_p99_over_p50", "ratio");
    ("net.routed_small_frac", "ratio");
    ("repro.eval_share", "ratio");
    ("sim.makespan_cycles", "cycles");
    ("sim.steals", "count");
    ("sim.promotions", "count");
    ("sim.beats_delivered", "count");
    ("core.work", "count");
    ("core.span", "count");
  ]

let unit_of names name =
  match List.assoc_opt name names with
  | Some u -> u
  | None -> invalid_arg ("undeclared metric " ^ name)

let e2e r name v = r.e2e <- (name, (v, unit_of e2e_names name)) :: r.e2e
let layer r name v = r.layers <- (name, (v, unit_of layer_names name)) :: r.layers
let extra r name unit v = r.breakdown <- (name, (v, unit)) :: r.breakdown
let detail r name v = r.detail <- (name, v) :: r.detail

(** Count one attempted operation that passed its correctness check. *)
let passed r = r.attempted <- r.attempted + 1

(** Count one attempted operation that failed a correctness check with
    [msg]; the run then exits non-zero.  Only the first 50 messages are
    kept. *)
let breach r (msg : string) =
  r.attempted <- r.attempted + 1;
  r.failed <- r.failed + 1;
  if r.failed <= 50 then r.breaches <- msg :: r.breaches

(* ------------------------------------------------------------------ *)
(* GC counters.                                                       *)

type gc_snap = { minor : int; major : int; words : float }

let gc_snap () : gc_snap =
  let s = Gc.quick_stat () in
  {
    minor = s.minor_collections;
    major = s.major_collections;
    words = s.minor_words +. s.major_words -. s.promoted_words;
  }

type gc_acc = {
  mutable minors : int;
  mutable majors : int;
  mutable alloc_words : float;
}

let gc_acc () = { minors = 0; majors = 0; alloc_words = 0. }

(** [gc_add acc before] adds the counters accrued since [before]. *)
let gc_add (acc : gc_acc) (before : gc_snap) : unit =
  let now = gc_snap () in
  acc.minors <- acc.minors + (now.minor - before.minor);
  acc.majors <- acc.majors + (now.major - before.major);
  acc.alloc_words <- acc.alloc_words +. (now.words -. before.words)

(** The [gc.*] layer metrics from [(acc, batches)] terms: each [acc]
    covers [batches] batches of work, and a batch takes one share of
    each term.  [pause_ms] is the pause time per batch. *)
let gc_layers r (terms : (gc_acc * float) list) ~(pause_ms : float) : unit =
  let sum f = List.fold_left (fun acc (g, n) -> acc +. (f g /. n)) 0. terms in
  layer r "gc.minor_collections" (sum (fun g -> float_of_int g.minors));
  layer r "gc.major_collections" (sum (fun g -> float_of_int g.majors));
  layer r "gc.alloc_mwords" (sum (fun g -> g.alloc_words /. 1e6));
  layer r "gc.pause_ms" pause_ms

(* ------------------------------------------------------------------ *)
(* GC pauses from runtime_events.                                     *)

(** Time every domain spends inside an outermost runtime GC phase
    (minor collections, major slices, stop-the-world sections), read
    from this process's own [runtime_events] ring.  Only the traced run
    starts the ring. *)
module Pauses = struct
  type acc = {
    depth : (int, int * int64) Hashtbl.t;  (** domain → depth, outer start *)
    mutable total_ns : int64;
    mutable lost : int;
  }

  type t = {
    cursor : Runtime_events.cursor;
    cbs : Runtime_events.Callbacks.t;
    acc : acc;
  }

  let counts : Runtime_events.runtime_phase -> bool = function
    | EV_DOMAIN_CONDITION_WAIT | EV_DOMAIN_RESIZE_HEAP_RESERVATION -> false
    | _ -> true

  let ns = Runtime_events.Timestamp.to_int64

  let on_begin acc dom ts ph =
    if counts ph then
      match Hashtbl.find_opt acc.depth dom with
      | None | Some (0, _) -> Hashtbl.replace acc.depth dom (1, ns ts)
      | Some (d, t0) -> Hashtbl.replace acc.depth dom (d + 1, t0)

  let on_end acc dom ts ph =
    if counts ph then
      match Hashtbl.find_opt acc.depth dom with
      | Some (1, t0) ->
          acc.total_ns <- Int64.add acc.total_ns (Int64.sub (ns ts) t0);
          Hashtbl.replace acc.depth dom (0, 0L)
      | Some (d, t0) when d > 1 -> Hashtbl.replace acc.depth dom (d - 1, t0)
      | _ -> ()

  let start () : t =
    Runtime_events.start ();
    let acc = { depth = Hashtbl.create 8; total_ns = 0L; lost = 0 } in
    let cbs =
      Runtime_events.Callbacks.create ~runtime_begin:(on_begin acc)
        ~runtime_end:(on_end acc)
        ~lost_events:(fun dom n ->
          (* a lost end would leave this domain's depth stuck open *)
          Hashtbl.remove acc.depth dom;
          acc.lost <- acc.lost + n)
        ()
    in
    { cursor = Runtime_events.create_cursor None; cbs; acc }

  (** Drain the ring; call often enough that it never wraps. *)
  let poll (t : t) : unit = ignore (Runtime_events.read_poll t.cursor t.cbs None)

  (** Total pause so far, in milliseconds. *)
  let total_ms (t : t) : float =
    poll t;
    Int64.to_float t.acc.total_ns *. 1e-6

  let lost (t : t) : int = t.acc.lost
end

(* ------------------------------------------------------------------ *)
(* Par.Runtime counters.                                              *)

(** The [par.*] layer metrics from [(stats, batches)] terms, each
    [stats] summed over [batches] batches of work.  [domain_s] is the
    domain-seconds the sessions were open for (domains × wall time),
    of which [par.idle_frac] is the share spent napping. *)
let par_layers r (terms : (Par.Runtime.worker_stats * float) list) ~(domain_s : float) :
    unit =
  let per f = List.fold_left (fun acc (s, n) -> acc +. (float_of_int (f s) /. n)) 0. terms in
  let total f = List.fold_left (fun acc (s, _) -> acc + f s) 0 terms in
  layer r "par.beats" (per (fun s -> s.beats));
  layer r "par.promotions" (per (fun s -> s.promotions));
  layer r "par.steals" (per (fun s -> s.steals));
  layer r "par.joins" (per (fun s -> s.joins));
  layer r "par.steal_ok_frac"
    (float_of_int (total (fun s -> s.steals))
    /. float_of_int (max 1 (total (fun s -> s.steal_attempts))));
  layer r "par.idle_frac"
    (if domain_s > 0. then float_of_int (total (fun s -> s.idle_ns)) *. 1e-9 /. domain_s
     else 0.)
