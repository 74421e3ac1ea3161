(** Solution quality metrics — the quantities plotted in the paper's
    figures.

    Satisfaction is measured against the post-recovery network with
    nominal capacities: a solution's own routing is used when it carries
    everything; otherwise the maximum satisfiable demand is computed
    (exact LP when small, constructive router otherwise), which is how
    the demand loss of SRT and GRD-COM in Figs. 4(d), 5(b), 6(b) and
    9(b) is obtained. *)

type report = {
  vertex_repairs : int;
  edge_repairs : int;
  total_repairs : int;
  repair_cost : float;
  satisfied_fraction : float;  (** in [0, 1] *)
  routing : Netrec_flow.Routing.t;  (** the routing the fraction refers to *)
}

val valid : Instance.t -> Instance.solution -> bool
(** Sanity: every repaired element was actually broken, no duplicates,
    and the routing (if any) fits nominal capacities on the
    post-recovery graph. *)

val assess : Instance.t -> Instance.solution -> report
(** Evaluate a solution against its instance.  Invokes the installed
    {!set_certifier} hook (if any) on the solution first. *)

val set_certifier :
  (Instance.t -> Instance.solution -> unit) option -> unit
(** Install (or clear, with [None]) a hook that {!assess} calls on every
    solution it evaluates.  Used by the CLI's [--certify] mode to run the
    [Netrec_check] certificate validator over every solution an
    experiment produces without the core library depending on the
    checker.  Install before spawning worker domains; the hook runs on
    whichever domain calls {!assess} and must be domain-safe. *)

val satisfied_fraction : Instance.t -> Instance.solution -> float
(** Just the satisfaction ratio of {!assess}. *)
