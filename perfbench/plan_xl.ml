(* plan-xl: sharded plans on the 100k-vertex synth:sf topology under the
   fig9-xl Gaussian disasters (vmult 0.5, topology seed 42).  The only
   workload for lib/shard, topo/Synth and Dijkstra on a huge graph, and
   the only one where parsing matters.

   The two disasters are fixed (the xl smoke scenario's failure and
   demand seeds and their successors) and the workload seed sets their
   order: a run holds only four plans, and repair costs of seeded
   disasters differ by half between seeds. *)

let n = 100_000
let instances = 2

let setup ~seed () =
  let spec = Printf.sprintf "sf:n=%d,m=2,seed=42" n in
  let _, topology_s =
    Report.timed (fun () ->
        match Netrec_topo.Synth.of_string spec with
        | Ok g -> g
        | Error msg -> failwith msg)
  in
  (* Fig9_xl.scenario builds the topology itself; instance time is
     reported net of one topology build per instance. *)
  let texts, total_s =
    Report.timed (fun () ->
        let texts =
          Array.init instances (fun i ->
              Netrec_core.Serialize.to_string
                (Netrec_experiments.Fig9_xl.scenario ~n ~vmult:0.5 ~topo_seed:42
                   ~fail_seed:(7 + i) ~demand_seed:(13 + i) ()))
        in
        Netrec_util.Rng.shuffle (Netrec_util.Rng.create seed) texts;
        texts)
  in
  { Pipeline.texts; topology_s;
    instances_s = Float.max 0.0 (total_s -. (float_of_int instances *. topology_s)) }

let run ~seed ~seconds ~trace ~out =
  Pipeline.run_plans ~trace ~passes:(Pipeline.scaled ~seconds 2) ~out
    ~name:"plan-xl" ~trace_n:1 ~setup:(setup ~seed)
    ~solve:Netrec_shard.Shard.solve
