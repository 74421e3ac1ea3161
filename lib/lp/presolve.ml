module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs

(* LP presolve over the {!Lp} public model: repeated reduction passes
   (substitution of fixed variables, redundant / forcing / singleton row
   elimination, implied-bound strengthening, dominated-column fixing, and
   integer coefficient tightening) producing a smaller problem plus the
   postsolve map that lifts a reduced solution back to the full variable
   space.

   Soundness discipline: every reduction must stay valid not just for the
   problem it saw but for every *sub-box* of its variable-bound box,
   because branch-and-bound re-solves the reduced problem under bound
   overrides (fixed binaries).  All passes here have that property:
   redundant rows stay redundant when bounds shrink, implied bounds and
   forced values remain implied, a dominated column stays dominated, and
   integer-tightened rows are valid for every integer point of the root
   box.  LP-exactness: all default passes preserve the optimal value of
   the LP relaxation; the only region-changing pass (coefficient
   tightening) touches declared [~integer] variables only and is valid
   for integer points, so MILP objectives are preserved exactly. *)

type stats = {
  rounds : int;
  vars_fixed : int;
  rows_dropped : int;
  bounds_tightened : int;
  coefs_tightened : int;
}

type t = {
  orig_nv : int;
  infeasible : bool;
  reduced : Lp.problem;
  keep : int array;  (* reduced var -> original var *)
  of_orig : int array;  (* original var -> reduced var, -1 when eliminated *)
  fixed : float array;  (* original-indexed; meaningful where of_orig = -1 *)
  obj_offset : float;  (* objective contribution of the eliminated vars *)
  stats : stats;
}

let feas = Num.feas_eps
let tiny = 1e-9

(* Margin below which a bound improvement is not worth recording (and
   could be pure float noise). *)
let improve_eps = 1e-7

type prow = {
  mutable terms : (int * float) list;
  rel : Lp.relation;
  mutable rhs : float;
  mutable live : bool;
}

let max_rounds = 8

let frac_dist x = abs_float (x -. Float.round x)

let run ?(integer = []) p =
  let nv = Lp.nvars p in
  let sign = match Lp.objective_sense p with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let lb = Array.init nv (Lp.var_lb p) in
  let ub = Array.init nv (Lp.var_ub p) in
  let obj = Array.init nv (Lp.var_obj p) in
  let is_int = Array.make nv false in
  List.iter (fun v -> is_int.(v) <- true) integer;
  let rows =
    Array.of_list
      (List.map
         (fun (terms, rel, rhs) -> { terms; rel; rhs; live = true })
         (Lp.constraints p))
  in
  let fixed_mask = Array.make nv false in
  let fixval = Array.make nv 0.0 in
  let infeasible = ref false in
  let vars_fixed = ref 0 in
  let rows_dropped = ref 0 in
  let bounds_tightened = ref 0 in
  let coefs_tightened = ref 0 in
  let changed = ref true in
  let rounds = ref 0 in
  let fix_var j v =
    if fixed_mask.(j) then begin
      if abs_float (fixval.(j) -. v) > feas then infeasible := true
    end
    else if v < lb.(j) -. feas || v > ub.(j) +. feas then infeasible := true
    else begin
      fixed_mask.(j) <- true;
      fixval.(j) <- v;
      lb.(j) <- v;
      ub.(j) <- v;
      incr vars_fixed;
      changed := true
    end
  in
  let drop_row r =
    r.live <- false;
    incr rows_dropped;
    changed := true
  in
  (* Contribution bounds of term (j, a) over the current box. *)
  let cmin j a = if a >= 0.0 then a *. lb.(j) else a *. ub.(j) in
  let cmax j a = if a >= 0.0 then a *. ub.(j) else a *. lb.(j) in
  while !changed && not !infeasible && !rounds < max_rounds do
    changed := false;
    incr rounds;
    (* Substitute every fixed variable into the rows; empty rows become a
       pure feasibility check. *)
    Array.iter
      (fun r ->
        if r.live then begin
          let has_fixed =
            List.exists (fun (j, _) -> fixed_mask.(j)) r.terms
          in
          if has_fixed then begin
            let shift = ref 0.0 in
            r.terms <-
              List.filter
                (fun (j, a) ->
                  if fixed_mask.(j) then begin
                    shift := !shift +. (a *. fixval.(j));
                    false
                  end
                  else true)
                r.terms;
            r.rhs <- r.rhs -. !shift
          end;
          if r.terms = [] then begin
            (match r.rel with
            | Lp.Le -> if 0.0 > r.rhs +. feas then infeasible := true
            | Lp.Ge -> if 0.0 < r.rhs -. feas then infeasible := true
            | Lp.Eq -> if abs_float r.rhs > feas then infeasible := true);
            r.live <- false;
            incr rows_dropped
          end
        end)
      rows;
    (* Collapsed bounds fix the variable. *)
    for j = 0 to nv - 1 do
      if not fixed_mask.(j) then begin
        if lb.(j) > ub.(j) +. feas then infeasible := true
        else if ub.(j) -. lb.(j) <= 1e-11 then fix_var j lb.(j)
      end
    done;
    (* Row activity passes: infeasibility, redundancy, forcing, singleton
       rows, implied bounds, integer coefficient tightening. *)
    Array.iter
      (fun r ->
        if r.live && not !infeasible then begin
          match r.terms with
          | [] -> ()
          | [ (j, a) ] ->
            (* Singleton row: exact bound conversion, then drop.  Integer
               variables round the bound inward so their box stays
               integral — branch-and-bound overrides the bounds of
               integer variables later, and a fractional bound whose
               source row was dropped would lose the constraint. *)
            let x = r.rhs /. a in
            let as_ub x =
              if is_int.(j) then Float.round (floor (x +. feas)) else x
            in
            let as_lb x =
              if is_int.(j) then Float.round (ceil (x -. feas)) else x
            in
            (match r.rel with
            | Lp.Eq ->
              if x < lb.(j) -. feas || x > ub.(j) +. feas then
                infeasible := true
              else if is_int.(j) && frac_dist x > feas then
                infeasible := true
              else
                fix_var j
                  (Float.max lb.(j)
                     (Float.min ub.(j)
                        (if is_int.(j) then Float.round x else x)))
            | Lp.Le when a > 0.0 ->
              let x = as_ub x in
              if x < ub.(j) then begin
                ub.(j) <- x;
                incr bounds_tightened
              end
            | Lp.Le ->
              let x = as_lb x in
              if x > lb.(j) then begin
                lb.(j) <- x;
                incr bounds_tightened
              end
            | Lp.Ge when a > 0.0 ->
              let x = as_lb x in
              if x > lb.(j) then begin
                lb.(j) <- x;
                incr bounds_tightened
              end
            | Lp.Ge ->
              let x = as_ub x in
              if x < ub.(j) then begin
                ub.(j) <- x;
                incr bounds_tightened
              end);
            if not !infeasible then drop_row r
          | terms ->
            (* Finite-activity bookkeeping: sums of the finite
               contributions plus counts of infinite ones, so the
               activity without any one term is O(1). *)
            let min_fin = ref 0.0 and min_inf = ref 0 in
            let max_fin = ref 0.0 and max_inf = ref 0 in
            List.iter
              (fun (j, a) ->
                let lo = cmin j a and hi = cmax j a in
                if Float.is_finite lo then min_fin := !min_fin +. lo
                else incr min_inf;
                if Float.is_finite hi then max_fin := !max_fin +. hi
                else incr max_inf)
              terms;
            let minact =
              if !min_inf > 0 then neg_infinity else !min_fin
            in
            let maxact = if !max_inf > 0 then infinity else !max_fin in
            let min_wo j a =
              let lo = cmin j a in
              if Float.is_finite lo then
                if !min_inf > 0 then neg_infinity else !min_fin -. lo
              else if !min_inf = 1 then !min_fin
              else neg_infinity
            in
            let max_wo j a =
              let hi = cmax j a in
              if Float.is_finite hi then
                if !max_inf > 0 then infinity else !max_fin -. hi
              else if !max_inf = 1 then !max_fin
              else infinity
            in
            let force_min () =
              List.iter
                (fun (j, a) ->
                  fix_var j (if a >= 0.0 then lb.(j) else ub.(j)))
                terms
            in
            let force_max () =
              List.iter
                (fun (j, a) ->
                  fix_var j (if a >= 0.0 then ub.(j) else lb.(j)))
                terms
            in
            (* Infeasible / redundant / forcing by activity. *)
            (match r.rel with
            | Lp.Le ->
              if minact > r.rhs +. feas then infeasible := true
              else if maxact <= r.rhs then drop_row r
              else if minact >= r.rhs -. tiny then begin
                (* Row only satisfiable at minimum activity. *)
                force_min ();
                if not !infeasible then drop_row r
              end
            | Lp.Ge ->
              if maxact < r.rhs -. feas then infeasible := true
              else if minact >= r.rhs then drop_row r
              else if maxact <= r.rhs +. tiny then begin
                force_max ();
                if not !infeasible then drop_row r
              end
            | Lp.Eq ->
              if minact > r.rhs +. feas || maxact < r.rhs -. feas then
                infeasible := true
              else if minact >= r.rhs -. tiny && Float.is_finite minact
              then begin
                force_min ();
                if not !infeasible then drop_row r
              end
              else if maxact <= r.rhs +. tiny && Float.is_finite maxact
              then begin
                force_max ();
                if not !infeasible then drop_row r
              end);
            if r.live && not !infeasible then begin
              (* Implied bounds.  Derived from the row plus the other
                 variables' bounds, so they shrink the box without
                 changing the feasible region; the [tiny] relaxation
                 keeps them on the safe (outer) side of float error.
                 Integer variables round inward instead. *)
              let tighten_ub j x =
                if x < ub.(j) -. improve_eps then begin
                  ub.(j) <-
                    (if is_int.(j) then Float.round (floor (x +. feas))
                     else x +. tiny);
                  incr bounds_tightened;
                  changed := true
                end
              in
              let tighten_lb j x =
                if x > lb.(j) +. improve_eps then begin
                  lb.(j) <-
                    (if is_int.(j) then Float.round (ceil (x -. feas))
                     else x -. tiny);
                  incr bounds_tightened;
                  changed := true
                end
              in
              let upper_side () =
                (* terms <= rhs: x_j <= (rhs - minact_wo) / a (a > 0),
                   x_j >= (rhs - minact_wo) / a (a < 0). *)
                List.iter
                  (fun (j, a) ->
                    let base = min_wo j a in
                    if Float.is_finite base then begin
                      let x = (r.rhs -. base) /. a in
                      if a > 0.0 then tighten_ub j x else tighten_lb j x
                    end)
                  r.terms
              in
              let lower_side () =
                (* terms >= rhs: x_j >= (rhs - maxact_wo) / a (a > 0),
                   x_j <= (rhs - maxact_wo) / a (a < 0). *)
                List.iter
                  (fun (j, a) ->
                    let base = max_wo j a in
                    if Float.is_finite base then begin
                      let x = (r.rhs -. base) /. a in
                      if a > 0.0 then tighten_lb j x else tighten_ub j x
                    end)
                  r.terms
              in
              (match r.rel with
              | Lp.Le -> upper_side ()
              | Lp.Ge -> lower_side ()
              | Lp.Eq ->
                upper_side ();
                lower_side ());
              (* Integer coefficient tightening on binary columns of
                 inequality rows: when one branch of the binary leaves
                 the row slack, shrink the coefficient so the row is
                 tight for integer points on both branches — same
                 integer solutions, strictly tighter LP relaxation. *)
              let binary j =
                is_int.(j) && lb.(j) = 0.0 && ub.(j) = 1.0
              in
              (match r.rel with
              | Lp.Le ->
                r.terms <-
                  List.map
                    (fun (j, a) ->
                      if binary j && a > 0.0 then begin
                        let rmax = max_wo j a in
                        if
                          Float.is_finite rmax
                          && rmax <= r.rhs -. improve_eps
                          && r.rhs -. rmax < a -. tiny
                        then begin
                          let a' = a -. (r.rhs -. rmax) in
                          r.rhs <- rmax;
                          incr coefs_tightened;
                          changed := true;
                          (j, a')
                        end
                        else (j, a)
                      end
                      else (j, a))
                    r.terms
              | Lp.Ge ->
                r.terms <-
                  List.map
                    (fun (j, a) ->
                      if binary j && a > 0.0 then begin
                        let rmin = min_wo j a in
                        if
                          Float.is_finite rmin
                          && rmin >= r.rhs -. a +. improve_eps
                          && r.rhs -. rmin < a -. tiny
                        then begin
                          let a' = r.rhs -. rmin in
                          incr coefs_tightened;
                          changed := true;
                          (j, a')
                        end
                        else (j, a)
                      end
                      else (j, a))
                    r.terms
              | Lp.Eq -> ())
            end
        end)
      rows;
    (* Dominated columns: a variable outside every equality row whose
       movement toward one bound loosens every inequality it appears in
       and does not increase the (sense-adjusted) objective can be fixed
       at that bound — the optimal value is preserved. *)
    if not !infeasible then begin
      let down_ok = Array.make nv true and up_ok = Array.make nv true in
      Array.iter
        (fun r ->
          if r.live then
            List.iter
              (fun (j, a) ->
                match r.rel with
                | Lp.Eq ->
                  down_ok.(j) <- false;
                  up_ok.(j) <- false
                | Lp.Le ->
                  if a < 0.0 then down_ok.(j) <- false;
                  if a > 0.0 then up_ok.(j) <- false
                | Lp.Ge ->
                  if a > 0.0 then down_ok.(j) <- false;
                  if a < 0.0 then up_ok.(j) <- false)
              r.terms)
        rows;
      for j = 0 to nv - 1 do
        if not (fixed_mask.(j) || !infeasible) then begin
          let c = sign *. obj.(j) in
          if down_ok.(j) && c >= 0.0 && Float.is_finite lb.(j) then
            fix_var j lb.(j)
          else if up_ok.(j) && c <= 0.0 && Float.is_finite ub.(j) then
            fix_var j ub.(j)
        end
      done
    end
  done;
  (* Final substitution so no surviving row references an eliminated
     variable (the loop may have fixed variables on its last round). *)
  if not !infeasible then
    Array.iter
      (fun r ->
        if r.live then begin
          let shift = ref 0.0 in
          r.terms <-
            List.filter
              (fun (j, a) ->
                if fixed_mask.(j) then begin
                  shift := !shift +. (a *. fixval.(j));
                  false
                end
                else true)
              r.terms;
          r.rhs <- r.rhs -. !shift;
          if r.terms = [] then begin
            (match r.rel with
            | Lp.Le -> if 0.0 > r.rhs +. feas then infeasible := true
            | Lp.Ge -> if 0.0 < r.rhs -. feas then infeasible := true
            | Lp.Eq -> if abs_float r.rhs > feas then infeasible := true);
            r.live <- false;
            incr rows_dropped
          end
        end)
      rows;
  (* Assemble the reduced problem and the maps. *)
  let of_orig = Array.make nv (-1) in
  let reduced = Lp.create ~sense:(Lp.objective_sense p) () in
  let keep_rev = ref [] in
  let nkeep = ref 0 in
  if not !infeasible then
    for j = 0 to nv - 1 do
      if not fixed_mask.(j) then begin
        of_orig.(j) <-
          Lp.add_var reduced ~lb:lb.(j) ~ub:ub.(j) ~obj:obj.(j) ();
        keep_rev := j :: !keep_rev;
        incr nkeep
      end
    done;
  let keep = Array.of_list (List.rev !keep_rev) in
  if not !infeasible then
    Array.iter
      (fun r ->
        if r.live then
          Lp.add_constraint reduced
            (List.map (fun (j, a) -> (of_orig.(j), a)) r.terms)
            r.rel r.rhs)
      rows;
  let obj_offset = ref 0.0 in
  for j = 0 to nv - 1 do
    if fixed_mask.(j) then obj_offset := !obj_offset +. (obj.(j) *. fixval.(j))
  done;
  Obs.count "presolve.runs";
  if !vars_fixed > 0 then Obs.count ~n:!vars_fixed "presolve.vars_fixed";
  if !rows_dropped > 0 then Obs.count ~n:!rows_dropped "presolve.rows_dropped";
  if !bounds_tightened > 0 then
    Obs.count ~n:!bounds_tightened "presolve.bounds_tightened";
  if !coefs_tightened > 0 then
    Obs.count ~n:!coefs_tightened "presolve.coefs_tightened";
  if !infeasible then Obs.count "presolve.infeasible";
  { orig_nv = nv;
    infeasible = !infeasible;
    reduced;
    keep;
    of_orig;
    fixed = fixval;
    obj_offset = !obj_offset;
    stats =
      { rounds = !rounds;
        vars_fixed = !vars_fixed;
        rows_dropped = !rows_dropped;
        bounds_tightened = !bounds_tightened;
        coefs_tightened = !coefs_tightened } }

let postsolve t rvalues =
  Array.init t.orig_nv (fun j ->
      let r = t.of_orig.(j) in
      if r >= 0 then rvalues.(r) else t.fixed.(j))

let lift_solution t (sol : Lp.solution) =
  { sol with
    values = postsolve t sol.Lp.values;
    objective =
      (match sol.Lp.status with
      | Lp.Optimal -> sol.Lp.objective +. t.obj_offset
      | _ -> sol.Lp.objective) }

let infeasible_solution nv =
  { Lp.status = Lp.Infeasible;
    objective = 0.0;
    values = Array.make nv 0.0;
    pivots = 0;
    limited = None }

let solve ?budget p =
  if not (Tuning.presolve_enabled ()) then Lp.solve ?budget p
  else begin
    let t = run p in
    if t.infeasible then infeasible_solution (Lp.nvars p)
    else lift_solution t (Lp.solve ?budget t.reduced)
  end
