(* Benchmark entry point: run one workload for one seed and print every
   metric with its unit; the last line of standard output is the JSON
   result.  Usually started through perfbench/run.py.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --out DIR --recover PATH *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and out = ref "." and recover = ref "" in
  let record = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length: the work per run scales with S");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "DIR where span dumps go");
      ("--recover", Arg.Set_string recover, "PATH recover executable (query workload)");
      ("--record", Arg.Set record,
       " print the OPT objectives of the opt-sched-bell-canada catalog and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record then begin
    Opt_sched.record ();
    exit 0
  end;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and out = !out in
  (match !workload with
  | "plan-caida" -> Plan_caida.run ~seed ~seconds ~trace ~out
  | "opt-sched-bell-canada" -> Opt_sched.run ~seed ~seconds ~trace ~out
  | "plan-xl" -> Plan_xl.run ~seed ~seconds ~trace ~out
  | "query-bell-canada" -> Query.run ~seed ~seconds ~trace ~out ~recover:!recover
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2);
  exit (if Report.emit ~trace then 0 else 1)
