(** The figure table: every figure both front ends regenerate
    ([bench/main.exe] and [recover experiment]), under one set of
    settings. *)

type settings = {
  runs : int;  (** seeded runs averaged per point (fig9-xl caps it at 2) *)
  opt_nodes : int;
      (** branch-and-bound node budget of the Figs. 3-6 OPT column; fig-opt
          and ablation keep their own fixed budgets (600 and 200) *)
}

val default : settings
(** 3 runs, 800 nodes: the settings behind EXPERIMENTS.md's numbers. *)

val quick : settings
(** 1 run, 60 nodes: [bench/main.exe quick], which wrote the committed
    [results/*.csv] and [BENCH_metrics.json]. *)

val names : string list
(** The ten figure names in regeneration order: fig3 fig4 fig5 fig6 fig7
    fig9 fig9-xl fig-sched fig-opt ablation. *)

val run :
  ?journal:Journal.t ->
  ?pool:Netrec_parallel.Pool.t ->
  settings ->
  string ->
  Netrec_util.Table.t list
(** [run s name] regenerates figure [name]'s tables.
    @raise Invalid_argument when [name] is not in {!names}. *)
