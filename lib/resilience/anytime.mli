(** The anytime contract: a solver result that is either complete or the
    best answer obtainable before a {!Budget} ran out.

    Every budgeted solver in the stack returns its answer through (or
    convertible to) this shape: [Partial] carries a {e usable} value —
    an incumbent, a feasible-but-unproved plan, a truncated path set —
    plus the structured reason the computation stopped, instead of
    raising or silently returning a degraded answer. *)

type reason = Budget.reason

type 'a t =
  | Complete of 'a  (** the solver finished on its own terms *)
  | Partial of 'a * reason
      (** best answer so far; computation cut short for [reason] *)
