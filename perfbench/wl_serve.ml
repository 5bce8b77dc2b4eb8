(** The [serve-mixed] load, run as the last phase of the traced
    [kernels] workload: requests over a loopback TCP socket into
    the production server configuration ([Net.Server.default_config]:
    2 shards of 1 domain each, size-aware routing, batching off).

    Load is a closed loop on one client connection driven from this
    thread, with at most [window] requests in flight.  One request in
    ten is large: a [Kernel] registry request at scale 1, rebuilding
    its input on every call, which the size-aware router sends to shard
    1; the rest are small [Synth] requests routed to the reserved small
    shard 0.  Within each block of ten the seed picks which request is
    large and which tenant sends each one.

    A small request takes about 0.2 ms of service and 0.5 ms round
    trip, nine of them about as long as one large: both shard domains
    then stay busy, and a round trip is set by the work, not by
    whether the threads that pass a request along wake each other on
    one CPU or across two (about 50 us apart; see STEADINESS.md).

    A window of 2 keeps about one large and one small in flight: smalls
    run while a large occupies the other shard, which is the
    head-of-line isolation being measured, and no queue builds up whose
    length would set the latencies.

    Every response is audited: smalls against
    [Serve.Load.expected_checksum], larges against
    [Real_bench.run_serial], both computed at set-up.  A lost,
    duplicated, mismatched, rejected, cancelled or failed request is a
    failed operation.  Latency is client round-trip time, from just
    before [Net.Client.submit] to the reader thread's arrival stamp. *)

open Common

let window = 2
let small_n = 16_384
let small_size = 1
let large_size = 64
(* throughput climbs for the first seconds of a run: warm up this long *)
let warmup_s = 5.
let tenants = 4

(** Large requests alternate between these registry kernels: they take
    3-5 ms at scale 1 and allocate little while rebuilding their input.
    With the input builders that allocate heavily ([plus_reduce], [spmv],
    [mandelbrot]) the stop-the-world minor collections of the three
    domains moved large latency and [rps] by 5-20% between identical
    runs. *)
let large_kernels = [| "floyd_warshall"; "srad" |]

type req = { large : bool; kernel : int; sent : float; submit_s : float; ticket : int }

(** The measured run is cut into [windows] equal windows by send time;
    each reported metric is the median over windows of its value in
    each window.  Small-request latency has two levels on a 2-vCPU
    machine (see STEADINESS.md), and a level that holds for a minority
    of the windows then leaves the result unchanged. *)
let windows = 5

type window = {
  mutable completed : int;
  mutable rtt_small : float list;
  mutable rtt_large : float list;
  mutable soj_small : float list;
  mutable soj_large : float list;
  mutable wire_small : float list;
}

let new_window () =
  { completed = 0; rtt_small = []; rtt_large = []; soj_small = []; soj_large = []; wire_small = [] }

let server_config ~(tracer : Obs.Trace.t option) : Net.Server.config =
  let d = Net.Server.default_config in
  let pool = d.shard.pool in
  {
    d with
    tracer;
    shard =
      {
        d.shard with
        pool = { pool with tracer; runtime = { pool.runtime with tracer } };
      };
  }

type setup = {
  small_expected : int;
  large_expected : int array;
  srv : Net.Server.t;
  client : Net.Client.t;
}

let setup ~(tracer : Obs.Trace.t option) : setup =
  let small_expected = Serve.Load.expected_checksum small_n in
  let large_expected =
    Array.map
      (fun name ->
        match Workloads.Real_bench.find name with
        | Some b -> Workloads.Real_bench.run_serial b ~scale:1
        | None -> invalid_arg ("unknown registry kernel " ^ name))
      large_kernels
  in
  let srv =
    Net.Server.create ~config:(server_config ~tracer)
      (Net.Server.Tcp { host = "127.0.0.1"; port = 0 })
      ()
  in
  let client = Net.Client.connect ~client:"perfbench" (Net.Server.bound_addr srv) in
  { small_expected; large_expected; srv; client }

let teardown (s : setup) : Net.Server.stats =
  Net.Client.bye s.client;
  let st = Net.Server.stop s.srv in
  Net.Client.close s.client;
  st

(** Submit requests in the closed loop until [stop ()] holds; returns
    them oldest first. *)
let drive (s : setup) ~(rng : Sim.Prng.t) ~(next_large : int ref)
    ~(pauses : Pauses.t option) ~(stop : int -> bool) : req list =
  let c = s.client in
  let base = Net.Client.received c in
  let sent = ref 0 and out = ref [] and large_at = ref 0 in
  while not (stop !sent) do
    if !sent mod 10 = 0 then large_at := Sim.Prng.int rng 10;
    Net.Client.wait_inflight_below c ~submitted:(base + !sent) ~window;
    let large = !sent mod 10 = !large_at in
    let tenant = Printf.sprintf "t%d" (Sim.Prng.int rng tenants) in
    let kernel = !next_large mod Array.length large_kernels in
    if large then incr next_large;
    let payload, size =
      if large then (Net.Wire.Kernel { name = large_kernels.(kernel); scale = 1 }, large_size)
      else (Net.Wire.Synth { n = small_n }, small_size)
    in
    let t0 = Mclock.now_s () in
    let ticket = Net.Client.submit c ~tenant ~size payload in
    let t1 = Mclock.now_s () in
    out := { large; kernel; sent = t0; submit_s = t1 -. t0; ticket } :: !out;
    incr sent;
    if !sent land 255 = 0 then Option.iter Pauses.poll pauses
  done;
  Net.Client.drain c ~submitted:(base + !sent) ~timeout_s:60.;
  List.rev !out

(** Client-side audit of one request; returns its response when it is
    a correct completion. *)
let audit (r : outcome) (s : setup) (q : req) : Net.Client.response option =
  let fail msg =
    breach r (Printf.sprintf "ticket %d: %s" q.ticket msg);
    None
  in
  match Net.Client.try_response s.client q.ticket with
  | None -> fail "lost (no response)"
  | Some resp -> (
      match resp.status with
      | Net.Wire.Done _ ->
          let want =
            if q.large then s.large_expected.(q.kernel) else s.small_expected
          in
          if resp.value <> want then
            fail (Printf.sprintf "checksum %d, expected %d" resp.value want)
          else begin
            passed r;
            Some resp
          end
      | Net.Wire.Rejected_full | Net.Wire.Rejected_shed | Net.Wire.Rejected_draining ->
          fail "rejected"
      | Net.Wire.Cancelled _ -> fail "cancelled"
      | Net.Wire.Failed | Net.Wire.Closed -> fail ("failed: " ^ resp.info))

let run (r : outcome) ~(seed : int) ~(seconds : float) ~(trace : bool) : unit =
  let pauses = if trace then Some (Pauses.start ()) else None in
  let tracer = if trace then Some (Obs.Trace.create ()) else None in
  (* one set-up (reference checksums, server start, connect) takes
     about 10 ms: set up 20 times, tearing each down but the last, and
     report the median over 5 groups of 4 of a group's mean *)
  let last = ref None in
  let group k =
    let total = ref 0. in
    for i = 1 to 4 do
      let x, dt = timed (fun () -> setup ~tracer) in
      total := !total +. dt;
      if k = 5 && i = 4 then last := Some x
      else ignore (teardown x : Net.Server.stats)
    done;
    !total /. 4.
  in
  let setup_s = median_l (List.init 5 (fun k -> group (k + 1))) in
  let s = Option.get !last in
  extra r "serve.setup_s" "s" setup_s;
  let rng = Sim.Prng.create ~seed:((seed * 7919) + 17) in
  let next_large = ref 0 in
  let t_warm = Mclock.now_s () in
  let warm = drive s ~rng ~next_large ~pauses ~stop:(fun _ -> Mclock.now_s () -. t_warm >= warmup_s) in
  List.iter (fun q -> ignore (audit r s q : Net.Client.response option)) warm;
  let warm_large = List.length (List.filter (fun q -> q.large) warm) in
  let g0 = gc_snap () in
  let pause0 = Option.fold ~none:0. ~some:Pauses.total_ms pauses in
  let c0 = cpu_s () in
  let t0 = Mclock.now_s () in
  let reqs = drive s ~rng ~next_large ~pauses ~stop:(fun _ -> Mclock.now_s () -. t0 >= seconds) in
  let cpu = cpu_s () -. c0 in
  let gc = gc_acc () in
  gc_add gc g0;
  let pause_ms = Option.fold ~none:0. ~some:(fun p -> Pauses.total_ms p -. pause0) pauses in
  let dups = Net.Client.duplicates s.client in
  let st = teardown s in
  if dups > 0 then breach r (Printf.sprintf "%d duplicated responses" dups);
  (* audit, then latency classes per window of the measured run *)
  let win = Array.init windows (fun _ -> new_window ()) in
  let win_s = seconds /. float_of_int windows in
  let over = ref 0 and max_excess_us = ref neg_infinity in
  let n_small = ref 0 and n_large = ref 0 in
  List.iter
    (fun q ->
      if q.large then incr n_large else incr n_small;
      match audit r s q with
      | None -> ()
      | Some resp ->
          let w = win.(min (windows - 1) (int_of_float ((q.sent -. t0) /. win_s))) in
          let rtt = resp.at -. q.sent in
          let soj = float_of_int resp.sojourn_us *. 1e-6 in
          max_excess_us := Float.max !max_excess_us ((soj -. rtt) *. 1e6);
          if soj > rtt then incr over;
          w.completed <- w.completed + 1;
          if q.large then begin
            w.rtt_large <- rtt :: w.rtt_large;
            w.soj_large <- soj :: w.soj_large
          end
          else begin
            w.rtt_small <- rtt :: w.rtt_small;
            w.soj_small <- soj :: w.soj_small;
            w.wire_small <- (rtt -. soj) :: w.wire_small
          end)
    reqs;
  (* a batch is 1,000 requests of the mix *)
  let batches = float_of_int (List.length reqs) /. 1e3 in
  if Array.exists (fun w -> w.rtt_small = [] || w.rtt_large = []) win then
    breach r "a measured window completed no small or no large request"
  else begin
    (* each metric is the median over windows of its per-window value *)
    let per f = median (Array.map f win) in
    let ms q field = per (fun w -> 1e3 *. quantile (Array.of_list (field w)) q) in
    let rps = per (fun w -> float_of_int w.completed /. win_s) in
    let small_p50 = ms 0.5 (fun w -> w.rtt_small) and small_p99 = ms 0.99 (fun w -> w.rtt_small) in
    let soj_small_p50 = ms 0.5 (fun w -> w.soj_small) in
    extra r "serve.batch_s" "s" (1e3 /. rps);
    extra r "serve.cpu_s" "s" (cpu /. batches);
    layer r "serve.sojourn_share" (soj_small_p50 /. small_p50);
    layer r "serve.small_p99_over_p50" (small_p99 /. small_p50);
    extra r "rps" "1/s" rps;
    extra r "small_p50_ms" "ms" small_p50;
    extra r "small_p99_ms" "ms" small_p99;
    extra r "large_p50_ms" "ms" (ms 0.5 (fun w -> w.rtt_large));
    extra r "serve.sojourn_ms.small_p50" "ms" soj_small_p50;
    extra r "serve.sojourn_ms.small_p99" "ms" (ms 0.99 (fun w -> w.soj_small));
    extra r "serve.sojourn_ms.large_p50" "ms" (ms 0.5 (fun w -> w.soj_large));
    extra r "net.wire_ms.small_p50" "ms" (ms 0.5 (fun w -> w.wire_small));
    extra r "client.submit_us.p50" "us"
      (1e6 *. median_l (List.map (fun q -> q.submit_s) reqs))
  end;
  let shard = st.shard in
  let routed_small = shard.per_shard.(0).routed in
  layer r "net.routed_small_frac"
    (float_of_int routed_small /. float_of_int (max 1 shard.submitted));
  let pools = Array.map (fun (p : Net.Shard.shard_stats) -> p.pool) shard.per_shard in
  let sum f = float_of_int (Array.fold_left (fun acc p -> acc + f p) 0 pools) in
  (* the shards' sessions served the warm-up and the measured requests *)
  let sessions =
    Array.to_list pools |> List.filter_map (fun (p : Serve.Pool.stats) -> p.runtime)
  in
  let served_batches = float_of_int (List.length warm + List.length reqs) /. 1e3 in
  let per_batch f =
    List.fold_left (fun acc (rt : Par.Runtime.stats) -> acc + f rt.total) 0 sessions
    |> fun n -> float_of_int n /. served_batches
  in
  extra r "par.serve.beats" "count" (per_batch (fun s -> s.beats));
  extra r "par.serve.promotions" "count" (per_batch (fun s -> s.promotions));
  extra r "par.serve.joins" "count" (per_batch (fun s -> s.joins));
  extra r "serve.rejected" "count" (sum (fun (p : Serve.Pool.stats) -> p.shed + p.sched.rejected));
  extra r "serve.cancelled" "count" (sum (fun (p : Serve.Pool.stats) -> p.cancelled));
  extra r "serve.failed" "count" (sum (fun (p : Serve.Pool.stats) -> p.failures));
  extra r "gc.serve.minor_collections" "count" (float_of_int gc.minors /. batches);
  extra r "gc.serve.major_collections" "count" (float_of_int gc.majors /. batches);
  extra r "gc.serve.alloc_mwords" "Mwords" (gc.alloc_words /. 1e6 /. batches);
  if trace then extra r "gc.serve.pause_ms" "ms" (pause_ms /. batches);
  detail r "requests" (float_of_int (List.length reqs));
  detail r "small" (float_of_int !n_small);
  detail r "large" (float_of_int !n_large);
  detail r "warmup" (float_of_int (List.length warm));
  detail r "warmup_small" (float_of_int (List.length warm - warm_large));
  detail r "warmup_large" (float_of_int warm_large);
  detail r "sessions" (float_of_int (List.length sessions));
  (* the server's own counts, for the reconciliation tests *)
  detail r "server_submitted" (float_of_int shard.submitted);
  detail r "server_served" (sum (fun (p : Serve.Pool.stats) -> p.served));
  detail r "sojourn_over_rtt" (float_of_int !over);
  detail r "max_sojourn_minus_rtt_us" !max_excess_us;
  detail r "routed_small" (float_of_int routed_small);
  detail r "routed_large" (float_of_int shard.per_shard.(1).routed)
