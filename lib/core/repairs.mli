(** A recovery in progress: which broken elements are still broken and
    which are listed for repair (the paper's repair list [L^(n)], §IV).

    One state is seeded from an instance's failure and only ever
    repairs: an element once repaired stays repaired.  ISP's loop, the
    sharded solver's stitch, fixup and final routing, and the SRT,
    SRT-R, GRD-COM/NC, Steiner and MCB-support baselines all keep their
    repairs here; ISP, the fixup and SRT-R price paths with its
    {!length}, the §IV-D repair-aware metric.  {!of_solution} gives a
    finished solution's post-recovery network ([Evaluate], [Postpass]).  [Check] keeps its own arrays on purpose (it
    must not trust the solvers' code), and so do [Schedule] and
    [Postpass], whose states can undo a repair. *)

type t

val create : Instance.t -> t
(** Nothing repaired yet: every element the instance's failure breaks
    is still broken.  O(nv + ne). *)

val of_solution : Instance.t -> Instance.solution -> t
(** The state after a finished solution's repairs: its predicates are
    the post-recovery network's.  Out-of-range ids (a parsed solution
    may carry them) repair nothing.  O(nv + ne). *)

val vertex_ok : t -> Graph.vertex -> bool
(** The vertex works: it was never broken or it is repaired.  One array
    read. *)

val edge_ok : t -> Graph.edge_id -> bool
(** The edge works: it and both its endpoints were never broken or are
    repaired.  One array read, kept current by every repair. *)

val edge_broken : t -> Graph.edge_id -> bool
(** The edge itself is still broken (whatever its endpoints). *)

val repair_vertex : t -> Graph.vertex -> bool
(** List a vertex for repair; whether it was newly repaired (false when
    it works already). *)

val repair_edge : t -> Graph.edge_id -> bool
(** List an edge itself for repair (not its endpoints); whether it was
    newly repaired. *)

val repair_path :
  ?on_edge:(Graph.edge_id -> unit) ->
  ?on_vertex:(Graph.vertex -> unit) ->
  t ->
  Graph.edge_id list ->
  bool
(** Repair every edge of the list with its broken endpoints, in list
    order: each edge, then its first endpoint, then its second (those of
    {!Graph.endpoints}).  [on_edge]/[on_vertex] run right after each
    element that was newly repaired, in that order.  Whether anything
    was. *)

val length : t -> resid:float array -> Graph.edge_id -> float
(** The §IV-D dynamic length of an edge on the full graph:
    [(1 + k_e + (k_u + k_v)/2) / max c_e eps], where [k_x] is the repair
    cost of an element still broken and 0 for one that works, and [c_e]
    is [resid.(e)], the caller's residual capacity ([eps] =
    [Num.flow_eps]).  Repair costs still owed inflate the length,
    residual capacity deflates it. *)

val repaired_vertices : t -> Graph.vertex list
(** The vertices listed for repair, ascending. *)

val repaired_edges : t -> Graph.edge_id list
(** The edges listed for repair, ascending. *)

val solution : ?routing:Netrec_flow.Routing.t -> t -> Instance.solution
(** The repair lists as a solution, with [routing] (default empty). *)
