(* plan-caida: ISP plans on the 825-node CAIDA-like topology under
   complete destruction, 1-7 distinct demand pairs of 22 units (the
   paper's Fig. 9 setting).  Loads the ISP loop; CAIDA is over the
   exact-LP size budget, so the LP stack is bypassed.

   The instance set is fixed (one instance per pair count, drawn from
   the Fig. 9 default seed) and the workload seed sets the order: ISP
   time grows tenfold from 1 to 7 pairs, and the median plan time over
   seeded instance sets spread across seeds by more than any useful
   bound. *)

module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Failure = Netrec_disrupt.Failure

let catalog_seed = 9
let max_pairs = 7

let setup ~seed () =
  let g, topology_s = Report.timed (fun () -> Netrec_topo.Caida.graph ()) in
  let texts, instances_s =
    Report.timed (fun () ->
        let master = Rng.create catalog_seed in
        let texts =
          Array.init max_pairs (fun i ->
              let rng = Rng.split master in
              let demands =
                Netrec_experiments.Common.feasible_demands ~rng ~distinct:true
                  ~count:(i + 1) ~amount:22.0 g
              in
              Netrec_core.Serialize.to_string
                (Instance.make ~graph:g ~demands ~failure:(Failure.complete g) ()))
        in
        Rng.shuffle (Rng.create seed) texts;
        texts)
  in
  { Pipeline.texts; topology_s; instances_s }

let run ~seed ~seconds ~trace ~out =
  (* 15 passes: 105 plans, enough for a p90 with ten plans beyond it. *)
  Pipeline.run_plans ~trace ~passes:(Pipeline.scaled ~seconds 15) ~out
    ~name:"plan-caida" ~trace_n:max_pairs ~setup:(setup ~seed)
    ~solve:(fun inst -> Netrec_core.Isp.solve inst)
