(** Seeded synthetic load for the serving layer, and the exactly-once
    audit around it — the measurement half of [bench --serve-bench]
    (in process and [--net]), [tpal_serve]'s load modes and the CI
    serve/net smoke gates.

    Two submission loops share everything else here.  {!run} is
    open-loop (Schroeder et al.'s distinction: arrivals do not wait for
    completions, so queueing delay is visible, not hidden by admission
    of the load generator itself): Poisson arrivals at [rate_rps] into
    an in-process {!Pool}.  {!Net.Netload.run} is windowed closed-loop
    over sockets.  Both draw their requests from {!draw} — tenants
    from a Zipf-skewed distribution, kernel sizes from a weighted mix,
    a slice of requests with deliberately tight deadlines, all from
    one {!Sim.Prng} stream per connection — so a (seed, mix) pair is
    one reproducible workload.

    Every request computes a size-keyed checksum; each driver maps
    every offered request to exactly one {!outcome}, and {!report}
    tallies them: the typed rejections, the completions (met or
    missed) with their latency classes, and the audit — {e lost}
    (admitted, never resolved), {e duplicated} (executed or answered
    more than once) and {e mismatched} (wrong checksum), which
    {!audit_ok} requires to be zero. *)

type mix = {
  requests : int;  (** total, across all connections *)
  tenants : int;  (** Zipf-skewed: tenant k has weight 1/(k+1) *)
  seed : int;
  slo_s : float;  (** default deadline, relative to arrival *)
  tight_frac : float;  (** fraction of requests with slo/10 deadlines *)
  sizes : (int * float) list;
      (** (kernel n, weight) mix; a request's DRR size is its n over
          the first entry's *)
  small_max : int;
      (** DRR-size bound of the small latency class (match the
          router's [Size_aware] threshold to see the head-of-line
          effect) *)
}

let default_mix =
  {
    requests = 100_000;
    tenants = 8;
    seed = 0x5E12E;
    slo_s = 0.05;
    tight_frac = 0.1;
    sizes = [ (512, 0.70); (4096, 0.25); (16384, 0.05) ];
    small_max = 4;
  }

(* The mini-kernel: fill-and-fold over [n] slots through the pool's
   executor, so every request exercises par_for promotion.  The value
   depends only on (i, n): the expected checksum per size is computed
   once, serially, and any torn parallel write or mis-sliced loop
   shows up as a mismatch. *)
let kernel (n : int) (module E : Workloads.Exec.S) : int =
  let a = Array.make n 0 in
  E.par_for ~lo:0 ~hi:n (fun i -> a.(i) <- (i * 0x9E3779B1) land 0xFFFFFF);
  Array.fold_left ( + ) 0 a

let expected_checksum (n : int) : int = kernel n (module Workloads.Exec.Serial)

(* ------------------------------------------------------------------ *)

let pick_weighted (rng : Sim.Prng.t) (weights : float array) : int =
  let total = Array.fold_left ( +. ) 0. weights in
  let x = Sim.Prng.float_range rng total in
  let acc = ref 0. and chosen = ref (Array.length weights - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if x < !acc then begin
           chosen := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !chosen

type request = {
  gap_s : float;  (** inter-arrival gap; 0 without a rate *)
  tenant : string;
  size_idx : int;  (** index into [mix.sizes] *)
  n : int;  (** kernel size *)
  expected : int;  (** the kernel's serial checksum *)
  drr_size : int;
  deadline_s : float;  (** relative to submission; slo/10 when tight *)
}

(** [draw ?rate_rps mix ~conn] is connection [conn]'s request stream:
    each call yields the next request, from a {!Sim.Prng} seeded
    [mix.seed + conn * 0x9E37].  With [rate_rps > 0] each request
    first draws its exponential inter-arrival gap. *)
let draw ?(rate_rps = 0.) (mix : mix) ~(conn : int) : unit -> request =
  let rng = Sim.Prng.create ~seed:(mix.seed + (conn * 0x9E37)) in
  let sizes = Array.of_list (List.map fst mix.sizes) in
  let size_weights = Array.of_list (List.map snd mix.sizes) in
  let expected = Array.map expected_checksum sizes in
  let tenant_weights =
    Array.init (max 1 mix.tenants) (fun k -> 1. /. float_of_int (k + 1))
  in
  fun () ->
    let gap_s =
      if rate_rps > 0. then Sim.Prng.exponential rng ~mean:(1. /. rate_rps)
      else 0.
    in
    let tenant = Printf.sprintf "t%d" (pick_weighted rng tenant_weights) in
    let size_idx = pick_weighted rng size_weights in
    let n = sizes.(size_idx) in
    let tight = Sim.Prng.float rng < mix.tight_frac in
    {
      gap_s;
      tenant;
      size_idx;
      n;
      expected = expected.(size_idx);
      (* DRR size units ~ relative kernel cost *)
      drr_size = max 1 (n / sizes.(0));
      deadline_s = (if tight then mix.slo_s /. 10. else mix.slo_s);
    }

(* ------------------------------------------------------------------ *)
(* The audit. *)

type completion = {
  on_time : bool;
  correct : bool;  (** checksum matched the serial one *)
  latency_s : float;
  drr_size : int;
}

(** Where one offered request ended up. *)
type outcome =
  | Done of completion
  | Rejected of [ `Full | `Shed | `Draining ]
  | Closed  (** the pool or server closed before serving it *)
  | Cancelled
  | Failed
  | Lost  (** no resolution within the driver's timeout *)

let outcome_of_error : Pool.error -> outcome = function
  | Pool.Rejected `Queue_full -> Rejected `Full
  | Pool.Rejected `Shedding -> Rejected `Shed
  | Pool.Pool_closed -> Closed
  | Pool.Timed_out -> Lost
  | Pool.Cancelled _ -> Cancelled
  | Pool.Retry_exhausted _ | Pool.Failed _ -> Failed

type latency = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

type report = {
  mix : mix;
  elapsed_s : float;
  offered : int;
  admitted : int;  (** offered less typed rejections and closes *)
  rejected_full : int;
  rejected_shed : int;
  rejected_draining : int;
  closed : int;
  completed : int;  (** met + missed; mismatched ones included *)
  met : int;
  missed : int;
  cancelled : int;
  failed : int;
  lost : int;
  duplicated : int;
  mismatched : int;
  throughput_rps : float;
      (** wall-clock requests/sec: {e all} completions / elapsed,
          deadline-blind — the capacity axis next to the SLO-weighted
          goodput *)
  all : latency;
      (** pool sojourn in process, client round-trip time over the
          wire *)
  small : latency;  (** requests with DRR size <= [mix.small_max] *)
  large : latency;
  pool : Pool.stats option;
      (** the in-process pool's own view: retries, restarts, latency
          histograms, per-tenant counts *)
}

let percentile (sorted : float array) (p : float) : float =
  match Array.length sorted with
  | 0 -> nan
  | n ->
      let idx = int_of_float (p *. float_of_int (n - 1)) in
      sorted.(max 0 (min (n - 1) idx))

let latency_of (samples : float list) : latency =
  let a = Array.of_list samples in
  Array.sort compare a;
  let count = Array.length a in
  let ms p = 1e3 *. percentile a p in
  {
    count;
    mean_ms =
      (if count = 0 then nan
       else 1e3 *. Array.fold_left ( +. ) 0. a /. float_of_int count);
    p50_ms = ms 0.50;
    p95_ms = ms 0.95;
    p99_ms = ms 0.99;
  }

(** [report ?pool ~elapsed_s ~duplicated mix outcomes] tallies one
    outcome per offered request. *)
let report ?pool ~(elapsed_s : float) ~(duplicated : int) (mix : mix)
    (outcomes : outcome list) : report =
  let tally o = List.length (List.filter (( = ) o) outcomes) in
  let dones =
    List.filter_map (function Done c -> Some c | _ -> None) outcomes
  in
  let latency p =
    latency_of
      (List.filter_map (fun c -> if p c then Some c.latency_s else None) dones)
  in
  let offered = List.length outcomes and completed = List.length dones in
  let met = List.length (List.filter (fun c -> c.on_time) dones) in
  let rejected_full = tally (Rejected `Full)
  and rejected_shed = tally (Rejected `Shed)
  and rejected_draining = tally (Rejected `Draining)
  and closed = tally Closed in
  {
    mix;
    elapsed_s;
    offered;
    admitted =
      offered - rejected_full - rejected_shed - rejected_draining - closed;
    rejected_full;
    rejected_shed;
    rejected_draining;
    closed;
    completed;
    met;
    missed = completed - met;
    cancelled = tally Cancelled;
    failed = tally Failed;
    lost = tally Lost;
    duplicated;
    mismatched = List.length (List.filter (fun c -> not c.correct) dones);
    throughput_rps =
      (if elapsed_s > 0. then float_of_int completed /. elapsed_s else 0.);
    all = latency (fun _ -> true);
    small = latency (fun c -> c.drr_size <= mix.small_max);
    large = latency (fun c -> c.drr_size > mix.small_max);
    pool;
  }

let rejected (r : report) : int =
  r.rejected_full + r.rejected_shed + r.rejected_draining

(** The exactly-once gate behind every load path: nothing lost,
    duplicated or corrupted, and something completed unless nothing
    was offered. *)
let audit_ok (r : report) : bool =
  r.lost = 0 && r.duplicated = 0 && r.mismatched = 0
  && (r.completed > 0 || r.offered = 0)

let goodput_rps (r : report) : float =
  if r.elapsed_s > 0. then float_of_int r.met /. r.elapsed_s else 0.

let reject_rate (r : report) : float =
  if r.offered = 0 then 0.
  else float_of_int (rejected r) /. float_of_int r.offered

(* ------------------------------------------------------------------ *)

(** [run ?rate_rps ?timeout_s ?interrupted pool mix] drives [mix]
    against [pool] and audits the outcome.  The submitting thread is
    the caller's; completions are awaited after the last arrival
    (open-loop: submission never blocks on service).  [rate_rps] is
    the Poisson arrival rate, 0 submitting as fast as possible.
    [timeout_s] bounds each post-arrival await so a wedged pool
    yields a report with [lost > 0] instead of hanging.
    [interrupted] is polled between arrivals: a SIGINT-style stop
    request ends submission early and falls through to the normal
    drain and audit, so a Ctrl-C'd run still reports and exits clean. *)
let run ?(rate_rps = 50_000.) ?(timeout_s = 120.)
    ?(interrupted = fun () -> false) (pool : Pool.t) (mix : mix) : report =
  if mix.requests < 0 then invalid_arg "Load.run: negative request count";
  let next = draw ~rate_rps mix ~conn:0 in
  let t0 = Mclock.now_s () in
  let arrival = ref t0 in
  let submitted = ref [] in
  (try
     for _ = 1 to mix.requests do
       if interrupted () then raise Exit;
       let r = next () in
       if rate_rps > 0. then begin
         arrival := !arrival +. r.gap_s;
         (* open-loop pacing: busy-wait to the scheduled arrival
            (sleepf granularity is far coarser than the gaps) *)
         while Mclock.now_s () < !arrival do
           Domain.cpu_relax ()
         done
       end;
       (* the counter bumps at the END of the kernel, so it counts
          {e completed} executions: a chaos fault or cancellation that
          unwinds mid-kernel leaves it untouched, and a retried attempt
          that finally completes counts exactly once *)
       let runs = Atomic.make 0 in
       let work =
         Pool.Thunk
           (fun e ->
             let c = kernel r.n e in
             Atomic.incr runs;
             c)
       in
       let ticket =
         Pool.submit pool ~tenant:r.tenant ~deadline_s:r.deadline_s
           ~size:r.drr_size work
       in
       submitted := (r, runs, ticket) :: !submitted
     done
   with Exit -> ());
  let submitted = List.rev !submitted in
  let outcomes =
    List.map
      (fun ((r : request), _, ticket) ->
        match Result.bind ticket (Pool.await ~timeout_s pool) with
        | Ok { outcome; sojourn_s; met_deadline } ->
            let correct =
              match outcome with
              | Pool.Checksum c -> c = r.expected
              | _ -> false
            in
            Done
              {
                on_time = met_deadline;
                correct;
                latency_s = sojourn_s;
                drr_size = r.drr_size;
              }
        | Error e -> outcome_of_error e)
      submitted
  in
  let elapsed_s = Mclock.now_s () -. t0 in
  (* exactly-once over the raw execution counters: a request that ran
     twice is a duplicate regardless of what its ticket says *)
  let duplicated =
    List.length
      (List.filter (fun (_, runs, _) -> Atomic.get runs > 1) submitted)
  in
  report ~pool:(Pool.stats pool) ~elapsed_s ~duplicated mix outcomes

(* ------------------------------------------------------------------ *)

(* JSON numbers must not be NaN: an empty latency class is null *)
let num (x : float) : string =
  if Float.is_finite x then Printf.sprintf "%.4f" x else "null"

(** The report as one JSON object: the counts, the derived rates, the
    latency classes, and the pool's view when there is one.
    [submitted] repeats [offered] and [rejected] sums the reasons, for
    rows written before the two drivers shared a report. *)
let report_json (r : report) : string =
  let pool =
    match r.pool with
    | None -> ""
    | Some ps ->
        Printf.sprintf
          ", \"retried\": %d, \"restarts\": %d, \"pool_latency\": %s, \
           \"latency_per_tenant\": {%s}"
          ps.retried ps.restarts
          (Obs.Hist.summary_json ps.latency)
          (String.concat ", "
             (List.map
                (fun (tenant, s) ->
                  Printf.sprintf "\"%s\": %s"
                    (Stats.Chrome_trace.escape tenant)
                    (Obs.Hist.summary_json s))
                ps.latency_per_tenant))
  in
  Printf.sprintf
    "{\"offered\": %d, \"submitted\": %d, \"admitted\": %d, \"rejected\": %d, \
     \"rejected_full\": %d, \"rejected_shed\": %d, \"rejected_draining\": %d, \
     \"closed\": %d, \"completed\": %d, \"met\": %d, \"missed\": %d, \
     \"cancelled\": %d, \"failed\": %d, \"lost\": %d, \"duplicated\": %d, \
     \"mismatched\": %d, \"p50_ms\": %s, \"p95_ms\": %s, \"p99_ms\": %s, \
     \"mean_ms\": %s, \"small_p95_ms\": %s, \"small_p99_ms\": %s, \
     \"large_p95_ms\": %s, \"goodput_rps\": %s, \"throughput_rps\": %s, \
     \"reject_rate\": %s, \"elapsed_s\": %s%s}"
    r.offered r.offered r.admitted (rejected r) r.rejected_full r.rejected_shed
    r.rejected_draining r.closed r.completed r.met r.missed r.cancelled
    r.failed r.lost r.duplicated r.mismatched (num r.all.p50_ms)
    (num r.all.p95_ms) (num r.all.p99_ms) (num r.all.mean_ms)
    (num r.small.p95_ms) (num r.small.p99_ms) (num r.large.p95_ms)
    (num (goodput_rps r)) (num r.throughput_rps) (num (reject_rate r))
    (num r.elapsed_s) pool

let pp_latency (ppf : Format.formatter) (l : latency) : unit =
  if l.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf
      "n=%d p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, mean %.3f ms" l.count
      l.p50_ms l.p95_ms l.p99_ms l.mean_ms

let pp_report (ppf : Format.formatter) (r : report) : unit =
  Format.fprintf ppf
    "@[<v>offered %d, admitted %d, rejected %d (full %d, shed %d, draining \
     %d), closed %d, reject rate %.3f@,\
     completed %d (met %d, missed %d), cancelled %d, failed %d@,\
     audit: lost %d, duplicated %d, mismatched %d@,\
     throughput %.0f req/s (goodput %.0f req/s) over %.2f s@,\
     latency all   %a@,latency small %a@,latency large %a"
    r.offered r.admitted (rejected r) r.rejected_full r.rejected_shed
    r.rejected_draining r.closed (reject_rate r) r.completed r.met r.missed
    r.cancelled r.failed r.lost r.duplicated r.mismatched r.throughput_rps
    (goodput_rps r) r.elapsed_s pp_latency r.all pp_latency r.small pp_latency
    r.large;
  Option.iter
    (fun (ps : Pool.stats) ->
      Format.fprintf ppf "@,retried %d, restarts %d, served per tenant: %a"
        ps.retried ps.restarts
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (t, n) -> Format.fprintf ppf "%s=%d" t n))
        ps.sched.per_tenant)
    r.pool;
  Format.fprintf ppf "@]"
