(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation section (simulated time, deterministic). The host cost of
   the simulator is measured by perfbench/ (its --trace 1 per-layer
   ns/op), not here.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5 fig8    # selected experiments
     dune exec bench/main.exe -- --list       # list experiment names *)

let experiments : (string * (unit -> unit)) list =
  [
    (Exp_table3.name, Exp_table3.run);
    (Exp_fig2.name, Exp_fig2.run);
    (Exp_fig5.name, Exp_fig5.run);
    (Exp_fig6.name, Exp_fig6.run);
    (Exp_fig7.name, Exp_fig7.run);
    (Exp_fig8.name, Exp_fig8.run);
    (Exp_fig9.name, Exp_fig9.run);
    (Exp_fig10.name, Exp_fig10.run);
    (Exp_fig11.name, Exp_fig11.run);
    (Exp_fig12.name, Exp_fig12.run);
    (Exp_fig13.name, Exp_fig13.run);
    (Exp_ablation.name, Exp_ablation.run);
    (Exp_loadcurve.name, Exp_loadcurve.run);
    (Exp_copybw.name, Exp_copybw.run);
    (Exp_cluster.name, Exp_cluster.run);
    (Exp_pd.name, Exp_pd.run);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --csv DIR: also write every table as CSV *)
  let rec extract_csv acc = function
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.csv_dir := Some dir;
      extract_csv acc rest
    | a :: rest -> extract_csv (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_csv [] args in
  (* --trace DIR: write a Chrome trace per experiment *)
  let rec extract_trace acc = function
    | "--trace" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.trace_dir := Some dir;
      extract_trace acc rest
    | a :: rest -> extract_trace (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_trace [] args in
  (* --breakdown DIR: write a critical-path/tax-breakdown CSV per
     experiment *)
  let rec extract_breakdown acc = function
    | "--breakdown" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.breakdown_dir := Some dir;
      extract_breakdown acc rest
    | a :: rest -> extract_breakdown (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_breakdown [] args in
  (* --<exp>-json PATH / --tiny: JSON-sweep output paths and size
     (consumed by the @bench-gate alias) *)
  let rec extract_loadcurve acc = function
    | "--loadcurve-json" :: path :: rest ->
      Exp_loadcurve.json_path := Some path;
      extract_loadcurve acc rest
    | "--copybw-json" :: path :: rest ->
      Exp_copybw.json_path := Some path;
      extract_loadcurve acc rest
    | "--cluster-json" :: path :: rest ->
      Exp_cluster.json_path := Some path;
      extract_loadcurve acc rest
    | "--pd-json" :: path :: rest ->
      Exp_pd.json_path := Some path;
      extract_loadcurve acc rest
    | "--tiny" :: rest ->
      Exp_loadcurve.tiny := true;
      Exp_copybw.tiny := true;
      Exp_cluster.tiny := true;
      Exp_pd.tiny := true;
      extract_loadcurve acc rest
    | "--top" :: rest ->
      Exp_loadcurve.top := true;
      extract_loadcurve acc rest
    | a :: rest -> extract_loadcurve (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_loadcurve [] args in
  if List.mem "--list" args then
    List.iter (fun (n, _) -> print_endline n) experiments
  else begin
    let selected =
      match args with
      | [] -> experiments
      | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" n;
              exit 1)
          names
    in
    List.iter (fun (n, f) -> Bench_util.with_experiment n f) selected
  end
