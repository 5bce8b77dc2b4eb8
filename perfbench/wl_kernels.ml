(** Workload [kernels]: batch compute, no serving.

    The eight registry kernels run serially ([Exec.Serial]), on a warm
    [Par.Runtime] session at 1 domain, and on one at 2 domains.  The
    three modes take turns in rounds; each round gives each mode a
    third of its time and, for the parallel modes, one session in which
    every pass over the kernels runs back to back.  Inputs come from the
    kernels' public constructors, seeded from the benchmark seed, and
    are built outside every timed region; kernels that mutate their
    input get an untimed copy per repetition.  Each kernel is sized to
    take roughly 100 ms serially.  The timed region of one repetition
    holds exactly one kernel call; its checksum is compared with the
    serial reference computed at set-up.

    The traced run then runs the serve-mixed load ({!Wl_serve}), whose
    numbers feed only the per-layer metrics and the breakdown. *)

open Common
module W = Workloads

(** One timed repetition: [exec] is the kernel call, [checksum] reads
    its result afterwards. *)
type job = { exec : (module W.Exec.S) -> unit; checksum : unit -> int }

(** A kernel: [prepare rng] builds the pristine input and returns the
    untimed per-repetition step that copies it into a fresh {!job}. *)
type kernel = { name : string; prepare : Sim.Prng.t -> unit -> job }

let bits = W.Real_bench.float_bits
let mix acc x = ((acc * 31) + x) land max_int

(* Sizes: about 100 ms each at 1 core (see README.md). *)

let plus_reduce =
  let n = 1_000_000 and reps = 70 in
  {
    name = "plus_reduce";
    prepare =
      (fun rng ->
        let a = W.Plus_reduce.input ~rng ~n in
        fun () ->
          let out = ref 0 in
          {
            exec =
              (fun e ->
                for _ = 1 to reps do
                  out := mix !out (bits (W.Plus_reduce.sum e a))
                done);
            checksum = (fun () -> !out);
          });
  }

let mergesort =
  let n = 300_000 in
  {
    name = "mergesort";
    prepare =
      (fun rng ->
        let pristine = W.Mergesort.uniform_input ~rng ~n in
        fun () ->
          let a = Array.copy pristine in
          {
            exec = (fun e -> W.Mergesort.sort e a);
            checksum =
              (fun () -> if W.Mergesort.sorted a then W.Mergesort.checksum a else -1);
          });
  }

let mandelbrot =
  let width = 400 and height = 1_600 in
  {
    name = "mandelbrot";
    prepare =
      (fun rng ->
        (* the seed nudges the window; the work stays about the same *)
        let x0 = -2.0 +. (1e-3 *. Sim.Prng.float rng) in
        let y0 = -1.5 +. (1e-3 *. Sim.Prng.float rng) in
        fun () ->
          let img = ref None in
          {
            exec =
              (fun e -> img := Some (W.Mandelbrot.render ~x0 ~y0 e ~width ~height ()));
            checksum =
              (fun () -> match !img with Some i -> W.Mandelbrot.checksum i | None -> -1);
          });
  }

let spmv =
  let nrows = 100_000 and reps = 90 in
  {
    name = "spmv";
    prepare =
      (fun rng ->
        let m = W.Csr.powerlaw ~rng ~nrows ~ncols:nrows ~max_row_len:64 () in
        let x = Array.init nrows (fun i -> 1.0 +. (float_of_int (i mod 13) /. 13.)) in
        fun () ->
          let y = Array.make nrows 0. in
          {
            exec =
              (fun e ->
                for _ = 1 to reps do
                  W.Csr.spmv e m x y
                done);
            checksum = (fun () -> Array.fold_left (fun acc v -> mix acc (bits v)) 0 y);
          });
  }

let kmeans =
  let n = 60_000 and rounds = 5 in
  {
    name = "kmeans";
    prepare =
      (fun rng ->
        let st = W.Kmeans.create ~rng ~n ~dims:8 ~k:12 in
        fun () ->
          let st =
            {
              st with
              W.Kmeans.centroids = Array.map Array.copy st.W.Kmeans.centroids;
              assign = Array.copy st.assign;
            }
          in
          {
            exec = (fun e -> ignore (W.Kmeans.run e st ~rounds : int));
            checksum = (fun () -> W.Kmeans.checksum st);
          });
  }

let srad =
  let rows = 1_000 and cols = 160 and iterations = 12 in
  {
    name = "srad";
    prepare =
      (fun rng ->
        let st = W.Srad.create ~rng ~rows ~cols in
        fun () ->
          let st = { st with W.Srad.image = Array.copy st.W.Srad.image } in
          {
            exec = (fun e -> W.Srad.run e st ~iterations);
            checksum = (fun () -> bits (W.Srad.checksum st));
          });
  }

let floyd_warshall =
  let n = 360 in
  {
    name = "floyd_warshall";
    prepare =
      (fun rng ->
        let pristine = W.Floyd_warshall.random_graph ~rng ~n () in
        fun () ->
          let dist = Array.map Array.copy pristine in
          {
            exec = (fun e -> W.Floyd_warshall.run e dist);
            checksum = (fun () -> W.Floyd_warshall.checksum dist);
          });
  }

let knapsack =
  (* one instance takes microseconds, so a repetition searches many *)
  let items = 30 and instances = 14_000 in
  {
    name = "knapsack";
    prepare =
      (fun rng ->
        let insts = Array.init instances (fun _ -> W.Knapsack.instance ~rng ~n:items) in
        fun () ->
          let best = Array.make instances 0 in
          {
            exec =
              (fun (module E : W.Exec.S) ->
                E.par_for ~lo:0 ~hi:instances (fun i ->
                    best.(i) <- (W.Knapsack.search (module E) insts.(i)).best));
            checksum = (fun () -> Array.fold_left mix 0 best);
          });
  }

let all =
  [ plus_reduce; mergesort; mandelbrot; spmv; kmeans; srad; floyd_warshall; knapsack ]

(* ------------------------------------------------------------------ *)

type prepared = { k : kernel; fresh : unit -> job; reference : int }

(** Build every input and its serial reference checksum. *)
let setup ~(seed : int) : prepared list =
  List.mapi
    (fun i k ->
      let rng = Sim.Prng.create ~seed:((seed * 1_000_003) + i) in
      let fresh = k.prepare rng in
      let j = fresh () in
      j.exec (module W.Exec.Serial);
      { k; fresh; reference = j.checksum () })
    all

type mode = { label : string; domains : int option  (** [None] = serial *) }

let modes =
  [
    { label = "serial"; domains = None };
    { label = "d1"; domains = Some 1 };
    { label = "d2"; domains = Some 2 };
  ]

(** Per-mode measurements, accumulated over the passes of every round. *)
type phase = {
  times : (string, float list) Hashtbl.t;  (** kernel → seconds per rep *)
  cpu : (string, float list) Hashtbl.t;  (** kernel → CPU seconds per rep *)
  gc : gc_acc;
  mutable pause_ms : float;
  mutable passes : int;
  mutable pass_walls : float list;  (** outer wall time of each pass, newest first *)
  mutable par : Par.Runtime.worker_stats;  (** summed over timed regions *)
  mutable boots : float list;  (** session boot times, one per round *)
}

let new_phase () =
  {
    times = Hashtbl.create 8;
    cpu = Hashtbl.create 8;
    gc = gc_acc ();
    pause_ms = 0.;
    passes = 0;
    pass_walls = [];
    par = Par.Runtime.zero_stats;
    boots = [];
  }

let add_ws (a : Par.Runtime.worker_stats) (b : Par.Runtime.worker_stats)
    (c : Par.Runtime.worker_stats) : Par.Runtime.worker_stats =
  (* a + (b - c) on the counters this benchmark reports *)
  {
    a with
    beats = a.beats + b.beats - c.beats;
    promotions = a.promotions + b.promotions - c.promotions;
    joins = a.joins + b.joins - c.joins;
    steals = a.steals + b.steals - c.steals;
    steal_attempts = a.steal_attempts + b.steal_attempts - c.steal_attempts;
    idle_ns = a.idle_ns + b.idle_ns - c.idle_ns;
  }

(** One round of [mode]: passes over every kernel for [budget_s] (at
    least one pass), in a fresh warm session for the parallel modes. *)
let run_phase (r : outcome) (ph : phase) (mode : mode) (prepared : prepared list)
    ~(budget_s : float) ~(pauses : Pauses.t option) ~(tracer : Obs.Trace.t option) :
    unit =
  let in_session = mode.domains <> None in
  let exec : (module W.Exec.S) =
    if in_session then (module Par.Runtime.Exec) else (module W.Exec.Serial)
  in
  let one (p : prepared) =
    let job = p.fresh () in
    let pause0 = Option.fold ~none:0. ~some:Pauses.total_ms pauses in
    let par0 = if in_session then (Par.Runtime.live_stats ()).total else ph.par in
    let g0 = gc_snap () in
    let c0 = cpu_s () in
    let t0 = now_ns () in
    let raised = match job.exec exec with () -> None | exception e -> Some e in
    let dt = secs_since t0 in
    let dc = cpu_s () -. c0 in
    gc_add ph.gc g0;
    if in_session then ph.par <- add_ws ph.par (Par.Runtime.live_stats ()).total par0;
    Option.iter (fun p -> ph.pause_ms <- ph.pause_ms +. Pauses.total_ms p -. pause0) pauses;
    let prev = Option.value ~default:[] (Hashtbl.find_opt ph.times p.k.name) in
    Hashtbl.replace ph.times p.k.name (dt :: prev);
    let prev = Option.value ~default:[] (Hashtbl.find_opt ph.cpu p.k.name) in
    Hashtbl.replace ph.cpu p.k.name (dc :: prev);
    match raised with
    | Some e -> breach r (Printf.sprintf "%s/%s raised %s" p.k.name mode.label (Printexc.to_string e))
    | None ->
        let sum = job.checksum () in
        if sum = p.reference then passed r
        else
          breach r
            (Printf.sprintf "%s/%s: checksum %d, serial reference %d" p.k.name mode.label
               sum p.reference)
  in
  let passes () =
    let t0 = now_ns () in
    let n = ref 0 in
    while !n < 1 || secs_since t0 < budget_s do
      let tp = now_ns () in
      List.iter one prepared;
      ph.pass_walls <- secs_since tp :: ph.pass_walls;
      incr n
    done;
    ph.passes <- ph.passes + !n
  in
  match mode.domains with
  | None -> passes ()
  | Some domains ->
      let config =
        { Par.Runtime.default_config with domains; source = `Polling; tracer }
      in
      let t_boot = now_ns () in
      let (), _ =
        Par.Runtime.run ~config (fun () ->
            ph.boots <- secs_since t_boot :: ph.boots;
            passes ())
      in
      ()

(** The modes take turns, [rounds] times, so that each mode's samples
    spread over the whole run and slow drifts in host speed reach all
    three alike. *)
let rounds = 3

let run (r : outcome) ~(seed : int) ~(seconds : float) ~(trace : bool) : unit =
  let pauses = if trace then Some (Pauses.start ()) else None in
  (* set-up, three times: the median is the reported set-up cost *)
  let setups = List.init 3 (fun _ -> timed (fun () -> setup ~seed)) in
  let prepared = fst (List.hd (List.rev setups)) in
  let setup_s = median_l (List.map snd setups) in
  let tracer = if trace then Some (Obs.Trace.create ()) else None in
  let budget_s = seconds /. float_of_int (rounds * List.length modes) in
  let phases = List.map (fun m -> (m, new_phase ())) modes in
  for _ = 1 to rounds do
    List.iter (fun (m, ph) -> run_phase r ph m prepared ~budget_s ~pauses ~tracer) phases
  done;
  let boot_s (ph : phase) = if ph.boots = [] then 0. else median_l ph.boots in
  e2e r "setup_s"
    (setup_s +. List.fold_left (fun acc (_, ph) -> acc +. boot_s ph) 0. phases);
  (* a batch is one pass over the eight kernels serially and one on the
     1-domain session: its wall and CPU times sum the per-kernel
     medians.  The 2-domain pass is left out (see README.md): on a
     shared 2-vCPU host its time follows the other tenants. *)
  let mode_total tbl =
    List.fold_left (fun acc p -> acc +. median_l (Hashtbl.find tbl p.k.name)) 0. prepared
  in
  let kernel_s = List.map (fun (m, ph) -> (m.label, mode_total ph.times)) phases in
  let k = Fun.flip List.assoc kernel_s in
  let one_core = List.filter (fun (m, _) -> m.domains <> Some 2) phases in
  e2e r "batch_s" (k "serial" +. k "d1");
  e2e r "cpu_s" (List.fold_left (fun acc (_, ph) -> acc +. mode_total ph.cpu) 0. one_core);
  let passes (ph : phase) = float_of_int ph.passes in
  gc_layers r
    (List.map (fun (_, ph) -> (ph.gc, passes ph)) one_core)
    ~pause_ms:(List.fold_left (fun acc (_, ph) -> acc +. (ph.pause_ms /. passes ph)) 0. one_core);
  let in_sessions = List.filter (fun (m, _) -> m.domains <> None) phases in
  par_layers r
    (List.map (fun (_, ph) -> (ph.par, passes ph)) in_sessions)
    ~domain_s:
      (List.fold_left
         (fun acc (m, ph) ->
           let timed = Hashtbl.fold (fun _ ts acc -> acc +. List.fold_left ( +. ) 0. ts) ph.times 0. in
           acc +. (float_of_int (Option.get m.domains) *. timed))
         0. in_sessions);
  layer r "kernels.d1_over_serial" (k "d1" /. k "serial");
  layer r "kernels.serial_over_d2" (k "serial" /. k "d2");
  (* the finer breakdown, per mode and per kernel *)
  List.iter
    (fun (m, ph) ->
      List.iter
        (fun p ->
          let times = Hashtbl.find ph.times p.k.name in
          extra r (Printf.sprintf "workloads.%s.%s_s" p.k.name m.label) "s" (median_l times);
          (* every sample, in pass order, for the reconciliation tests *)
          List.iteri
            (fun i dt -> detail r (Printf.sprintf "sample_s.%s.%s.%d" m.label p.k.name i) dt)
            (List.rev times))
        prepared;
      List.iteri
        (fun i dt -> detail r (Printf.sprintf "pass_wall_s.%s.%d" m.label i) dt)
        (List.rev ph.pass_walls);
      extra r ("kernel_s." ^ m.label) "s" (k m.label);
      extra r ("cpu_s." ^ m.label) "s" (mode_total ph.cpu);
      let per_pass x = float_of_int x /. passes ph in
      let g = Printf.sprintf "gc.%s.%s" m.label in
      extra r (g "minor_collections") "count" (per_pass ph.gc.minors);
      extra r (g "major_collections") "count" (per_pass ph.gc.majors);
      extra r (g "alloc_mwords") "Mwords" (ph.gc.alloc_words /. 1e6 /. passes ph);
      if trace then extra r (g "pause_ms") "ms" (ph.pause_ms /. passes ph);
      detail r ("passes." ^ m.label) (passes ph);
      let s = ph.par in
      match m.label with
      | "d1" ->
          extra r "par.d1.promotions" "count" (per_pass s.promotions);
          extra r "par.d1.beats" "count" (per_pass s.beats)
      | "d2" ->
          extra r "par.d2.steals" "count" (per_pass s.steals);
          extra r "par.d2.joins" "count" (per_pass s.joins);
          extra r "par.d2.idle_s" "s" (float_of_int s.idle_ns *. 1e-9 /. passes ph)
      | _ -> ())
    phases;
  Option.iter (fun p -> detail r "gc.lost_events" (float_of_int (Pauses.lost p))) pauses;
  (* the serving layers, for the per-layer metrics only *)
  if trace then Wl_serve.run r ~seed ~seconds:(seconds /. 4.) ~trace
