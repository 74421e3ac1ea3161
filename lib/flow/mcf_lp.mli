(** Multicommodity-flow linear programs over the {!Netrec_lp} simplex.

    {!block} is the one place that knows how multicommodity-flow
    variables are laid out.  Four LPs are built on it, each adding only
    the rows and costs that make it different:

    - the three entry points below: the routability test (paper system
      (2)), the split LP of §IV-C and the max-total LP;
    - OPT's MILP (system (1), [Netrec_heuristics.Opt]): binaries and
      their gating rows;
    - the MCB/MCW relaxation (system (8),
      [Netrec_heuristics.Mcf_heuristic]): broken-edge costs and the
      spread LP;
    - the schedule oracle ([Netrec_sched.Sched.oracle]): one block per
      round, with assignment, crew, big-M and service rows.

    The LPs are sparse (CSR rows) and sized
    [2 * |live edges| * |commodities|] flow variables, so every entry
    point takes a [var_budget] and refuses ([`Too_big]) instances beyond
    it — the {!Oracle} then falls back to the Garg–Könemann
    approximation.  All entry points accept the usual availability
    predicates and a residual-capacity function, and solve through
    {!Netrec_lp.Presolve.solve}: with presolve on
    ({!Netrec_lp.Tuning.presolve_enabled}) the model is reduced before
    the simplex and the answer postsolved — same verdicts and routings,
    fewer pivots. *)

(** {1 The flow block} *)

type block
(** A forward and a backward flow variable for each commodity on each
    edge of a block. *)

val block :
  ?ub:(Graph.edge_id -> float) ->
  ?cost:(Graph.edge_id -> float) ->
  Netrec_lp.Lp.problem ->
  Graph.t ->
  ncommodities:int ->
  Graph.edge_id list ->
  block
(** [block lp g ~ncommodities edges] appends [2 * ncommodities *
    |edges|] variables to [lp], starting at its current variable count:
    commodity-major, in the order of [edges], forward before backward.
    Both directions of edge [e] get the upper bound [ub e] (default
    unbounded) and the objective coefficient [cost e] (default 0); the
    lower bound is 0.  Forward flow runs from [e]'s first endpoint to its
    second. *)

val fwd : block -> int -> Graph.edge_id -> Netrec_lp.Lp.var
(** [fwd b h e]: commodity [h]'s forward variable on block edge [e]. *)

val bwd : block -> int -> Graph.edge_id -> Netrec_lp.Lp.var
(** [bwd b h e]: commodity [h]'s backward variable on block edge [e]. *)

val mem : block -> Graph.edge_id -> bool
(** Whether an edge is in the block. *)

val load : block -> Graph.edge_id -> (Netrec_lp.Lp.var * float) list
(** The load terms [sum_h (f + b)] of a block edge, with coefficient 1,
    commodity by commodity, forward before backward. *)

val net_outflow :
  block -> int -> Graph.vertex -> (Netrec_lp.Lp.var * float) list
(** [net_outflow b h v]: commodity [h]'s outflow minus inflow at [v] over
    the block's edges incident to [v]; [[]] when [v] has none. *)

val supply : Commodity.t -> Graph.vertex -> float
(** A demand's net supply at a vertex: its amount at the source, minus
    it at the sink, 0 elsewhere — the right-hand side of a conservation
    row. *)

val routing : block -> Commodity.t list -> float array -> Routing.t
(** [routing b demands values]: for the [h]-th demand, its edge flows
    [values.(fwd b h e) - values.(bwd b h e)] (0 off the block)
    decomposed into paths by {!Maxflow.decompose}. *)

(** {1 Entry points} *)

type verdict =
  | Routable of Routing.t  (** feasible, with an explicit routing *)
  | Unroutable  (** proven infeasible *)
  | Too_big  (** above [var_budget]; not attempted *)
  | Undecided  (** simplex hit its iteration limit *)

val feasible :
  ?budget:Netrec_resilience.Budget.t ->
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?var_budget:int ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  verdict
(** Exact routability test: solve the feasibility system (2).  Default
    [var_budget] is 6000 flow variables.  [budget] (default unlimited) is
    threaded into the simplex; exhaustion surfaces as [Undecided]. *)

val max_scale :
  ?budget:Netrec_resilience.Budget.t ->
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?var_budget:int ->
  cap:(Graph.edge_id -> float) ->
  tmax:float ->
  Graph.t ->
  (Commodity.t * float) list ->
  [ `Max of float | `Too_big | `Undecided ]
(** [max_scale ~tmax g param] maximizes the scalar [t] in [\[0, tmax\]]
    such that the demand set where each [(c, slope)] has amount
    [c.amount + slope * t] is routable.  Amounts must remain non-negative
    on the whole range (the caller chooses [tmax] accordingly).

    With [param = \[(d, -1); (s->v, +1); (v->t, +1)\]] and [tmax = d_h]
    this is exactly the paper's LP for the maximum splittable amount
    [dx]; with all bases 0 and slopes [d_h], [tmax = ∞] it computes the
    maximum concurrent-flow ratio.  Returns [`Max 0.] when even [t = 0]
    is infeasible territory — callers should pre-check feasibility. *)

val max_total :
  ?budget:Netrec_resilience.Budget.t ->
  ?vertex_ok:(Graph.vertex -> bool) ->
  ?edge_ok:(Graph.edge_id -> bool) ->
  ?var_budget:int ->
  cap:(Graph.edge_id -> float) ->
  Graph.t ->
  Commodity.t list ->
  [ `Routing of Routing.t | `Too_big | `Undecided ]
(** Maximize the total satisfied demand with per-demand caps [d_h] (each
    demand may be partially served).  This is the demand-loss measurement
    LP for heuristics without a routing guarantee (SRT, GRD-COM). *)
