(** Workload [paper-repro]: the paper's evaluation pipeline.

    Part 1 runs a fixed subset of the Figure 6 and 7 simulator specs
    (1 core and 15 cores; Serial, Cilk, TPAL/Linux, TPAL/Nautilus)
    through [Sim.Engine.run] on [Repro.Runner.config_of], bypassing
    [Runner.cache].  The simulator is deterministic, so every spec's
    makespan and counters must equal the values pinned below, in every
    pass.  The seed only shuffles the order of specs within a pass.

    Part 2 evaluates the paper's TPAL programs (fib, prod, pow) with the
    heartbeat on, checking results against [fib_spec], [a * b] and
    [pow_spec].  The seed picks prod's multiplicand and pow's base; the
    loop counts, and so the work, are fixed. *)

open Common
module R = Repro.Runner

(** Workloads whose Figure 6/7 specs are simulated; about 1.5 s of
    simulation per pass. *)
let sim_workloads =
  [ "plus-reduce-array"; "spmv-arrowhead"; "mandelbrot"; "kmeans";
    "mergesort-uniform"; "mergesort-exp" ]

let systems =
  [
    ("serial", R.Serial_sys, [ 1 ]);
    ("cilk", R.Cilk_sys, [ 1; 15 ]);
    ("tpal_linux", R.Tpal_linux, [ 1; 15 ]);
    ("tpal_nautilus", R.Tpal_nautilus, [ 1; 15 ]);
  ]

type spec = {
  label : string;  (** system label, for [sim.engine_s.*] *)
  spec : R.spec;
  config : Sim.Engine.config;
  ir : Sim.Par_ir.t;
}

(** (workload, system, procs) → (makespan, steals, promotions,
    beats_delivered), as simulated at the commit that added this
    benchmark.  A change here is a change in the paper's figures. *)
let pinned : ((string * string * int) * (int * int * int * int)) list =
  [
    (("plus-reduce-array", "serial", 1), (160000001, 0, 0, 0));
    (("plus-reduce-array", "cilk", 1), (1202801589, 0, 0, 0));
    (("plus-reduce-array", "cilk", 15), (80219793, 300, 0, 0));
    (("plus-reduce-array", "tpal_linux", 1), (161117667, 0, 304, 304));
    (("plus-reduce-array", "tpal_linux", 15), (22869576, 117, 602, 652));
    (("plus-reduce-array", "tpal_nautilus", 1), (161118701, 0, 596, 596));
    (("plus-reduce-array", "tpal_nautilus", 15), (22267759, 67, 1134, 1230));
    (("spmv-arrowhead", "serial", 1), (80999970, 0, 0, 0));
    (("spmv-arrowhead", "cilk", 1), (1230174497, 0, 0, 0));
    (("spmv-arrowhead", "cilk", 15), (82580686, 170, 0, 0));
    (("spmv-arrowhead", "tpal_linux", 1), (84606393, 0, 165, 165));
    (("spmv-arrowhead", "tpal_linux", 15), (11874868, 90, 240, 344));
    (("spmv-arrowhead", "tpal_nautilus", 1), (84587030, 0, 313, 313));
    (("spmv-arrowhead", "tpal_nautilus", 15), (9552148, 105, 466, 525));
    (("mandelbrot", "serial", 1), (407280760, 0, 0, 0));
    (("mandelbrot", "cilk", 1), (407903985, 0, 0, 0));
    (("mandelbrot", "cilk", 15), (27937747, 693, 0, 0));
    (("mandelbrot", "tpal_linux", 1), (418699307, 0, 1028, 1030));
    (("mandelbrot", "tpal_linux", 15), (29543018, 145, 1029, 1089));
    (("mandelbrot", "tpal_nautilus", 1), (417807713, 0, 1536, 1547));
    (("mandelbrot", "tpal_nautilus", 15), (29137760, 127, 1524, 1605));
    (("kmeans", "serial", 1), (265920000, 0, 0, 0));
    (("kmeans", "cilk", 1), (623886496, 0, 0, 0));
    (("kmeans", "cilk", 15), (49516563, 781, 0, 0));
    (("kmeans", "tpal_linux", 1), (312314053, 0, 777, 781));
    (("kmeans", "tpal_linux", 15), (51726485, 608, 1586, 1982));
    (("kmeans", "tpal_nautilus", 1), (311603378, 0, 1145, 1154));
    (("kmeans", "tpal_nautilus", 15), (51922676, 337, 2119, 2880));
    (("mergesort-uniform", "serial", 1), (272000000, 0, 0, 0));
    (("mergesort-uniform", "cilk", 1), (277984523, 0, 0, 0));
    (("mergesort-uniform", "cilk", 15), (129995412, 1240, 0, 0));
    (("mergesort-uniform", "tpal_linux", 1), (277292062, 0, 652, 676));
    (("mergesort-uniform", "tpal_linux", 15), (132166598, 696, 4144, 5002));
    (("mergesort-uniform", "tpal_nautilus", 1), (276712288, 0, 982, 1024));
    (("mergesort-uniform", "tpal_nautilus", 15), (128986607, 643, 5703, 7155));
    (("mergesort-exp", "serial", 1), (275786240, 0, 0, 0));
    (("mergesort-exp", "cilk", 1), (282815771, 0, 0, 0));
    (("mergesort-exp", "cilk", 15), (131809199, 1707, 0, 0));
    (("mergesort-exp", "tpal_linux", 1), (281124546, 0, 665, 688));
    (("mergesort-exp", "tpal_linux", 15), (133738131, 758, 4260, 5057));
    (("mergesort-exp", "tpal_nautilus", 1), (280538797, 0, 1008, 1039));
    (("mergesort-exp", "tpal_nautilus", 15), (130665383, 694, 5810, 7245));
  ]

let build_specs () : spec list =
  List.concat_map
    (fun name ->
      let w = Option.get (Workloads.Workload.find name) in
      let ir = Lazy.force w.ir in
      List.concat_map
        (fun (label, sys, procs_l) ->
          List.map
            (fun procs ->
              (* the Serial baseline runs with interrupts off, as
                 [Runner.serial_time] measures it *)
              let spec =
                R.spec ~procs ~interrupts:(sys <> R.Serial_sys) sys w
              in
              { label; spec; config = R.config_of spec w; ir })
            procs_l)
        systems)
    sim_workloads

let shuffle (rng : Sim.Prng.t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = Sim.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let key (s : spec) = (s.spec.workload, s.label, s.spec.procs)

(* ------------------------------------------------------------------ *)
(* TPAL programs.                                                      *)

let fib_n = 20
let prod_a = 40_000
let pow_e = 5

type prog = {
  pname : string;
  eval : unit -> (int * Tpal.Eval.finished, Tpal.Machine_error.t) result;
  expect : int;
}

let programs (rng : Sim.Prng.t) : prog list =
  let b = 1 + Sim.Prng.int rng 1_000_000 in
  let d = 5_000 + Sim.Prng.int rng 10 in
  let open Tpal.Programs in
  [
    { pname = "fib"; eval = (fun () -> run_fib ~n:fib_n ()); expect = fib_spec fib_n };
    { pname = "prod"; eval = (fun () -> run_prod ~a:prod_a ~b ()); expect = prod_a * b };
    { pname = "pow"; eval = (fun () -> run_pow ~d ~e:pow_e ()); expect = pow_spec d pow_e };
  ]

(* ------------------------------------------------------------------ *)

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(** Per-item samples: wall and CPU seconds of each call, by item. *)
type samples = { walls : (string, float list) Hashtbl.t; cpus : (string, float list) Hashtbl.t }

let samples () = { walls = Hashtbl.create 64; cpus = Hashtbl.create 64 }

(** [sample t name f] runs [f], booking its wall and CPU time to [name]. *)
let sample (t : samples) (name : string) (f : unit -> 'a) : 'a =
  let c0 = cpu_s () in
  let x, dt = timed f in
  push t.cpus name (cpu_s () -. c0);
  push t.walls name dt;
  x

(** The sum over [names] of each item's median. *)
let sum_medians tbl names = List.fold_left (fun acc n -> acc +. median_l (Hashtbl.find tbl n)) 0. names

let spec_name (s : spec) =
  let w, sys, procs = key s in
  Printf.sprintf "%s/%s/%d" w sys procs

(** Simulate every spec once, in seeded order, checking each against
    its pinned values; books each spec's times to [per_spec] and
    returns the pass's summed counters. *)
let sim_pass (r : outcome) (per_spec : samples) (rng : Sim.Prng.t) (specs : spec array) =
  shuffle rng specs;
  let counts = ref (0, 0, 0, 0) in
  Array.iter
    (fun s ->
      let m = sample per_spec (spec_name s) (fun () -> Sim.Engine.run s.config s.ir) in
      let got = (m.makespan, m.steals, m.promotions, m.beats_delivered) in
      let a, b, c, d = !counts in
      counts := (a + m.makespan, b + m.steals, c + m.promotions, d + m.beats_delivered);
      let w, sys, procs = key s in
      match List.assoc_opt (key s) pinned with
      | Some want when want = got -> passed r
      | Some (wm, _, _, _) ->
          breach r
            (Printf.sprintf "%s %s %d-core: makespan %d (pinned %d) or counters differ"
               w sys procs m.makespan wm)
      | None -> breach r (Printf.sprintf "%s %s %d-core: no pinned value" w sys procs))
    specs;
  !counts

(** Evaluate each program once, booking its times to [per_prog];
    returns the summed work and span of the cost summaries. *)
let eval_pass (r : outcome) (per_prog : samples) (progs : prog list) =
  let work = ref 0 and span = ref 0 in
  List.iter
    (fun p ->
      let res = sample per_prog p.pname p.eval in
      match res with
      | Ok (v, fin) when v = p.expect ->
          passed r;
          work := !work + fin.cost.work;
          span := !span + fin.cost.span
      | Ok (v, _) -> breach r (Printf.sprintf "%s = %d, expected %d" p.pname v p.expect)
      | Error e -> breach r (Format.asprintf "%s stuck: %a" p.pname Tpal.Machine_error.pp e))
    progs;
  (!work, !span)


(** Wall time, GC and pause cost of the passes of one part. *)
type part = { mutable walls : float list; gc : gc_acc; mutable pause_ms : float }

let new_part () = { walls = []; gc = gc_acc (); pause_ms = 0. }

(** [measure part pauses f] runs one pass [f] and books its costs to
    [part]; returns [f]'s result. *)
let measure (part : part) (pauses : Pauses.t option) (f : unit -> 'a) : 'a =
  let pause0 = Option.fold ~none:0. ~some:Pauses.total_ms pauses in
  let g0 = gc_snap () in
  let x, dt = timed f in
  gc_add part.gc g0;
  part.walls <- dt :: part.walls;
  Option.iter (fun p -> part.pause_ms <- part.pause_ms +. Pauses.total_ms p -. pause0) pauses;
  x

(* No tracer exists on these paths, so the traced run measures the same
   way as the untraced one, with runtime_events on for GC pauses. *)
let run (r : outcome) ~(seed : int) ~(seconds : float) ~(trace : bool) : unit =
  let pauses = if trace then Some (Pauses.start ()) else None in
  let rng = Sim.Prng.create ~seed:((seed * 104_729) + 3) in
  (* set-up: IR forcing happens once per process (the IR is lazy), the
     rest three times *)
  let specs, ir_s = timed build_specs in
  let rest =
    List.init 3 (fun _ ->
        snd
          (timed (fun () ->
               List.iter
                 (fun (p : Tpal.Ast.program) -> ignore (Tpal.Check.check p))
                 Tpal.Programs.[ prod; pow; fib ];
               ignore (build_specs ()))))
  in
  e2e r "setup_s" (ir_s +. median_l rest);
  let specs = Array.of_list specs and progs = programs rng in
  (* Simulator and evaluation passes alternate, so both sample the whole
     run, and share it about equally: evaluation is the noisier of the
     two (it allocates far faster), so it gets the larger share of
     samples for its cost. *)
  let sim = new_part () and ev = new_part () in
  let per_spec = samples () and per_prog = samples () in
  let counts = ref None and cost = ref (0, 0) in
  let t0 = now_ns () in
  while List.length sim.walls < 3 || secs_since t0 < seconds do
    let c = measure sim pauses (fun () -> sim_pass r per_spec rng specs) in
    (match !counts with
    | Some c0 when c0 <> c -> breach r "simulator counters differ between passes"
    | _ -> counts := Some c);
    let pass_s = List.hd sim.walls in
    let t1 = now_ns () in
    while secs_since t1 < pass_s do
      cost := measure ev pauses (fun () -> eval_pass r per_prog progs)
    done
  done;
  (* A batch is one simulator pass and one evaluation pass.  Each part's
     time is the sum over its specs or programs of each one's median:
     a major GC slice lands in some pass or other, and a per-item
     median leaves it out where a median of pass totals would not. *)
  let spec_names = Array.to_list (Array.map spec_name specs) in
  let prog_names = List.map (fun p -> p.pname) progs in
  let figures_s = sum_medians per_spec.walls spec_names in
  let eval_s = sum_medians per_prog.walls prog_names in
  e2e r "batch_s" (figures_s +. eval_s);
  e2e r "cpu_s" (sum_medians per_spec.cpus spec_names +. sum_medians per_prog.cpus prog_names);
  let n (p : part) = float_of_int (List.length p.walls) in
  gc_layers r
    [ (sim.gc, n sim); (ev.gc, n ev) ]
    ~pause_ms:((sim.pause_ms /. n sim) +. (ev.pause_ms /. n ev));
  layer r "repro.eval_share" (eval_s /. (figures_s +. eval_s));
  extra r "figures_s" "s" figures_s;
  extra r "eval_s" "s" eval_s;
  List.iter
    (fun (label, _, _) ->
      let mine = List.filter (fun s -> s.label = label) (Array.to_list specs) in
      extra r ("sim.engine_s." ^ label) "s"
        (sum_medians per_spec.walls (List.map spec_name mine)))
    systems;
  let makespan, steals, promotions, beats = Option.get !counts in
  layer r "sim.makespan_cycles" (float_of_int makespan);
  layer r "sim.steals" (float_of_int steals);
  layer r "sim.promotions" (float_of_int promotions);
  layer r "sim.beats_delivered" (float_of_int beats);
  List.iter
    (fun name -> extra r ("core.eval_s." ^ name) "s" (median_l (Hashtbl.find per_prog.walls name)))
    prog_names;
  let work, span = !cost in
  layer r "core.work" (float_of_int work);
  layer r "core.span" (float_of_int span);
  detail r "sim.passes" (n sim);
  detail r "eval.reps" (n ev);
  List.iteri (fun i dt -> detail r (Printf.sprintf "pass_wall_s.sim.%d" i) dt) (List.rev sim.walls);
  List.iteri (fun i dt -> detail r (Printf.sprintf "pass_wall_s.eval.%d" i) dt) (List.rev ev.walls)
