(** Seeded load over the wire — the network driver of {!Serve.Load},
    measured where a caller actually sits: client-side round-trip time
    over a real socket, not pool-side sojourn.  The request mix, the
    per-request draw, the exactly-once audit and the report are
    {!Serve.Load}'s; only the submission loop lives here.

    Submission is {e windowed closed-loop}: each connection keeps at
    most [window] requests in flight and submits the next one as soon
    as a response frees a slot.  (A fully open loop against a
    single-machine loopback server just measures the admission cap;
    the window keeps the server loaded without drowning the run in
    typed rejections, while still exposing queueing — a small request
    stuck behind a large one holds its slot and its latency shows
    it.)

    Every request is a [Synth] kernel whose checksum is a pure
    function of its size, so the client verifies each [Done] response
    against {!Serve.Load.expected_checksum} computed locally — a
    mismatch means a torn parallel write, a mis-routed response, or a
    corrupt frame.  A ticket with no response after the drain is
    lost; two responses for one ticket are a duplicate. *)

let default_mix =
  {
    Serve.Load.default_mix with
    slo_s = 0.5;
    tight_frac = 0.05;
    sizes = [ (256, 0.80); (4096, 0.15); (32768, 0.05) ];
  }

type sent = { ticket : int; req : Serve.Load.request; at : float }

(* One connection's share of the run: submit [count] requests with a
   [window]-bounded closed loop, then return the per-request records
   for the audit. *)
let drive_conn (mix : Serve.Load.mix) (addr : Server.addr) ~(conn : int)
    ~(count : int) ~(window : int) : Client.t * sent array =
  let next = Serve.Load.draw mix ~conn in
  let c = Client.connect ~client:(Printf.sprintf "load-%d" conn) addr in
  let sent =
    Array.init count (fun i ->
        Client.wait_inflight_below c ~submitted:i ~window;
        let (req : Serve.Load.request) = next () in
        let at = Mclock.now_s () in
        let ticket =
          Client.submit c ~tenant:req.tenant
            ~deadline_us:(int_of_float (1e6 *. req.deadline_s))
            ~size:req.drr_size (Wire.Synth { n = req.n })
        in
        { ticket; req; at })
  in
  (c, sent)

let outcome_of (c : Client.t) (s : sent) : Serve.Load.outcome =
  match Client.try_response c s.ticket with
  | None -> Lost
  | Some resp -> (
      match resp.status with
      | Wire.Done { met } ->
          Done
            {
              on_time = met;
              correct = resp.value = s.req.expected;
              latency_s = resp.at -. s.at;
              drr_size = s.req.drr_size;
            }
      | Wire.Rejected_full -> Rejected `Full
      | Wire.Rejected_shed -> Rejected `Shed
      | Wire.Rejected_draining -> Rejected `Draining
      | Wire.Cancelled _ -> Cancelled
      | Wire.Failed -> Failed
      | Wire.Closed -> Closed)

(** [run ?conns ?window ?timeout_s addr mix] drives [mix] against a
    live server at [addr] over [conns] connections (connection [i]
    draws stream [i] of {!Serve.Load.draw}), each keeping at most
    [window] requests in flight, and audits the outcome end to end.
    [timeout_s] bounds each connection's wait for its last responses.
    A connection that fails outright counts its whole share lost. *)
let run ?(conns = 2) ?(window = 64) ?(timeout_s = 120.) (addr : Server.addr)
    (mix : Serve.Load.mix) : Serve.Load.report =
  if mix.requests < 0 then invalid_arg "Netload.run: negative request count";
  if conns < 1 then invalid_arg "Netload.run: need at least one connection";
  (* the remainder goes to the first connections *)
  let count ci =
    (mix.requests / conns) + if ci < mix.requests mod conns then 1 else 0
  in
  let t0 = Mclock.now_s () in
  let results = Array.make conns None in
  let threads =
    Array.init conns (fun ci ->
        Thread.create
          (fun () ->
            let c, sent =
              drive_conn mix addr ~conn:ci ~count:(count ci) ~window
            in
            Client.drain c ~submitted:(count ci) ~timeout_s;
            results.(ci) <- Some (c, sent))
          ())
  in
  Array.iter Thread.join threads;
  let elapsed_s = Mclock.now_s () -. t0 in
  let duplicated = ref 0 in
  let outcomes =
    List.concat
      (List.mapi
         (fun ci slot ->
           match slot with
           | None -> List.init (count ci) (fun _ -> Serve.Load.Lost)
           | Some (c, sent) ->
               duplicated := !duplicated + Client.duplicates c;
               let os = List.map (outcome_of c) (Array.to_list sent) in
               Client.bye c;
               Client.close c;
               os)
         (Array.to_list results))
  in
  Serve.Load.report ~elapsed_s ~duplicated:!duplicated mix outcomes
