type settings = { runs : int; opt_nodes : int }

let default = { runs = 3; opt_nodes = 800 }
let quick = { runs = 1; opt_nodes = 60 }

let names =
  [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig9"; "fig9-xl"; "fig-sched";
    "fig-opt"; "ablation" ]

let run ?journal ?pool { runs; opt_nodes } = function
  | "fig3" -> Fig3.run ?journal ?pool ~runs ~opt_nodes ()
  | "fig4" -> Fig4.run ?journal ?pool ~runs ~opt_nodes ()
  | "fig5" -> Fig5.run ?journal ?pool ~runs ~opt_nodes ()
  | "fig6" -> Fig6.run ?journal ?pool ~runs ~opt_nodes ()
  | "fig7" -> Fig7.run ?journal ?pool ~runs ()
  | "fig9" -> Fig9.run ?journal ?pool ~runs ()
  | "fig9-xl" -> Fig9_xl.run ?journal ?pool ~runs ()
  | "fig-sched" -> Fig_sched.run ?journal ?pool ~runs ()
  | "fig-opt" -> Fig_opt.run ?journal ?pool ~runs ()
  | "ablation" -> Ablation.run ?journal ?pool ~runs ()
  | name -> invalid_arg ("Figures.run: unknown figure " ^ name)
