(** Benchmark binary: runs one workload and prints one JSON line with
    its end-to-end metrics, per-layer metrics, the workload's own
    breakdown, reconciliation details, correctness verdict and
    provenance.  [perfbench/run.py] builds and drives it; see
    README.md.

    {v bench.exe --workload kernels|paper-repro --seed N
              --seconds S --trace 0|1 v} *)

open Common

let json_float (x : float) : string =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_string (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj (fields : (string * string) list) : string =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let metrics_json (ms : (string * (float * string)) list) : string =
  json_obj
    (List.rev_map
       (fun (name, (v, unit)) ->
         (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
       ms)

let workloads =
  [
    ("kernels", Wl_kernels.run);
    ("paper-repro", Wl_repro.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some run ->
      let r = new_outcome () in
      let t0 = now_ns () in
      run r ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
      let wall_s = secs_since t0 in
      (* every workload reports every metric: an end-to-end metric it
         failed to measure is a failure, a layer it does not run did
         none of that layer's work *)
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name r.e2e) then breach r (name ^ " was not measured"))
        e2e_names;
      List.iter
        (fun name ->
          Option.iter (fun (v, _) -> layer r ("traced." ^ name) v) (List.assoc_opt name r.e2e))
        [ "batch_s"; "cpu_s" ];
      List.iter
        (fun (name, _) -> if not (List.mem_assoc name r.layers) then layer r name 0.)
        layer_names;
      let correct = r.breaches = [] && r.failed = 0 && r.attempted > 0 in
      let provenance =
        [
          ("cores", string_of_int (Domain.recommended_domain_count ()));
          ("ocaml", json_string Sys.ocaml_version);
          ( "ocamlrunparam",
            match Sys.getenv_opt "OCAMLRUNPARAM" with
            | Some s -> json_string s
            | None -> "null" );
          ("seed", string_of_int !seed);
          ("workload", json_string !workload);
          ("trace", string_of_int !trace);
          ("wall_s", json_float wall_s);
        ]
      in
      print_endline
        (json_obj
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int r.attempted);
             ("failed", string_of_int r.failed);
             ("breaches", "[" ^ String.concat ", " (List.rev_map json_string r.breaches) ^ "]");
             ("e2e", metrics_json r.e2e);
             ("layers", metrics_json r.layers);
             ("breakdown", metrics_json r.breakdown);
             ( "detail",
               json_obj (List.rev_map (fun (k, v) -> (k, json_float v)) r.detail) );
             ("provenance", json_obj provenance);
           ]);
      exit (if correct then 0 else 1)
