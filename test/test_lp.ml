open Netrec_lp

let check_obj = Alcotest.(check (float 1e-6))

let solve_simple () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12 *)
  let p = Lp.create ~sense:Lp.Maximize () in
  let x = Lp.add_var p ~obj:3.0 () in
  let y = Lp.add_var p ~obj:2.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Le 4.0;
  Lp.add_constraint p [ (x, 1.0); (y, 3.0) ] Lp.Le 6.0;
  (p, x, y)

let test_lp_maximize () =
  let p, x, y = solve_simple () in
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "objective" 12.0 sol.Lp.objective;
  check_obj "x" 4.0 sol.Lp.values.(x);
  check_obj "y" 0.0 sol.Lp.values.(y)

let test_lp_minimize () =
  (* min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, obj=24 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:2.0 ~ub:6.0 () in
  let y = Lp.add_var p ~obj:3.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Ge 10.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "objective" 24.0 sol.Lp.objective;
  check_obj "x" 6.0 sol.Lp.values.(x);
  check_obj "y" 4.0 sol.Lp.values.(y)

let test_lp_equality () =
  (* min x + y s.t. x + 2y = 8, x - y = 2 -> x=4, y=2 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 2.0) ] Lp.Eq 8.0;
  Lp.add_constraint p [ (x, 1.0); (y, -1.0) ] Lp.Eq 2.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "x" 4.0 sol.Lp.values.(x);
  check_obj "y" 2.0 sol.Lp.values.(y)

let test_lp_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0) ] Lp.Ge 5.0;
  Lp.add_constraint p [ (x, 1.0) ] Lp.Le 3.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "infeasible" true (sol.Lp.status = Lp.Infeasible)

let test_lp_unbounded () =
  let p = Lp.create ~sense:Lp.Maximize () in
  let x = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0) ] Lp.Ge 0.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "unbounded" true (sol.Lp.status = Lp.Unbounded)

let test_lp_fixed_variable () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:1.0 () in
  Lp.fix p x 3.0;
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Ge 5.0;
  let sol = Lp.solve p in
  check_obj "x fixed" 3.0 sol.Lp.values.(x);
  check_obj "y fills" 2.0 sol.Lp.values.(y);
  check_obj "obj" 5.0 sol.Lp.objective

let test_lp_shifted_lower_bound () =
  (* min x s.t. x >= implicit lb of 2 -> obj 2 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:2.0 ~obj:1.0 () in
  let sol = Lp.solve p in
  check_obj "lb respected" 2.0 sol.Lp.values.(x)

let test_lp_duplicate_terms_merged () =
  (* x + x <= 4 means 2x <= 4. *)
  let p = Lp.create ~sense:Lp.Maximize () in
  let x = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0); (x, 1.0) ] Lp.Le 4.0;
  let sol = Lp.solve p in
  check_obj "merged" 2.0 sol.Lp.values.(x)

let test_lp_degenerate () =
  (* A classic degenerate LP; must terminate and find the optimum. *)
  let p = Lp.create ~sense:Lp.Maximize () in
  let x = Lp.add_var p ~obj:10.0 () in
  let y = Lp.add_var p ~obj:(-57.0) () in
  let z = Lp.add_var p ~obj:(-9.0) () in
  let w = Lp.add_var p ~obj:(-24.0) () in
  Lp.add_constraint p [ (x, 0.5); (y, -5.5); (z, -2.5); (w, 9.0) ] Lp.Le 0.0;
  Lp.add_constraint p [ (x, 0.5); (y, -1.5); (z, -0.5); (w, 1.0) ] Lp.Le 0.0;
  Lp.add_constraint p [ (x, 1.0) ] Lp.Le 1.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "objective" 1.0 sol.Lp.objective

let test_lp_negative_rhs () =
  (* -x <= -3  <=>  x >= 3 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, -1.0) ] Lp.Le (-3.0);
  let sol = Lp.solve p in
  check_obj "x" 3.0 sol.Lp.values.(x)

let test_lp_copy_independent () =
  let p, x, _ = solve_simple () in
  let q = Lp.copy p in
  Lp.fix q x 0.0;
  let sol_p = Lp.solve p in
  let sol_q = Lp.solve q in
  check_obj "p unchanged" 12.0 sol_p.Lp.objective;
  check_obj "q constrained" 4.0 sol_q.Lp.objective

let test_lp_var_name () =
  let p = Lp.create () in
  let x = Lp.add_var p ~name:"flow" () in
  let y = Lp.add_var p () in
  Alcotest.(check string) "named" "flow" (Lp.var_name p x);
  Alcotest.(check string) "default" "x1" (Lp.var_name p y)

(* Feasibility-only LP mimicking the routability system (2): a tiny
   multicommodity instance on a 4-cycle. *)
let test_lp_mcf_feasibility () =
  let p = Lp.create () in
  (* Two commodities on a 4-cycle 0-1-2-3-0, all capacities 1;
     demands: (0,2) of 1 and (1,3) of 1.  Feasible: route each along
     opposite sides. *)
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let nv = 4 in
  let commodities = [ (0, 2, 1.0); (1, 3, 1.0) ] in
  let fvar = Hashtbl.create 16 in
  List.iteri
    (fun h _ ->
      List.iteri
        (fun e _ ->
          Hashtbl.replace fvar (h, e, true) (Lp.add_var p ());
          Hashtbl.replace fvar (h, e, false) (Lp.add_var p ()))
        edges)
    commodities;
  (* capacity: sum over commodities of both directions <= 1 *)
  List.iteri
    (fun e _ ->
      let terms =
        List.concat
          (List.mapi
             (fun h _ ->
               [ (Hashtbl.find fvar (h, e, true), 1.0);
                 (Hashtbl.find fvar (h, e, false), 1.0) ])
             commodities)
      in
      Lp.add_constraint p terms Lp.Le 1.0)
    edges;
  (* conservation *)
  List.iteri
    (fun h (s, t, d) ->
      for v = 0 to nv - 1 do
        let terms = ref [] in
        List.iteri
          (fun e (u, w) ->
            (* forward = u->w *)
            if u = v then begin
              terms := (Hashtbl.find fvar (h, e, true), 1.0) :: !terms;
              terms := (Hashtbl.find fvar (h, e, false), -1.0) :: !terms
            end;
            if w = v then begin
              terms := (Hashtbl.find fvar (h, e, true), -1.0) :: !terms;
              terms := (Hashtbl.find fvar (h, e, false), 1.0) :: !terms
            end)
          edges;
        let b = if v = s then d else if v = t then -.d else 0.0 in
        Lp.add_constraint p !terms Lp.Eq b
      done)
    commodities;
  let sol = Lp.solve p in
  Alcotest.(check bool) "routable" true (sol.Lp.status = Lp.Optimal)

(* ---- MILP ---- *)

let test_milp_knapsack () =
  (* max 10a + 6b + 4c s.t. a+b+c <= 2 binaries -> 16 *)
  let p = Lp.create () in
  (* Milp minimizes: negate. *)
  let a = Lp.add_var p ~obj:(-10.0) ~ub:1.0 () in
  let b = Lp.add_var p ~obj:(-6.0) ~ub:1.0 () in
  let c = Lp.add_var p ~obj:(-4.0) ~ub:1.0 () in
  Lp.add_constraint p [ (a, 1.0); (b, 1.0); (c, 1.0) ] Lp.Le 2.0;
  let r = Milp.solve ~binary:[ a; b; c ] p in
  Alcotest.(check bool) "proved" true r.Milp.proved;
  check_obj "objective" (-16.0) r.Milp.objective;
  check_obj "a" 1.0 r.Milp.values.(a);
  check_obj "b" 1.0 r.Milp.values.(b);
  check_obj "c" 0.0 r.Milp.values.(c)

let test_milp_forces_integrality () =
  (* LP relaxation would take x = 2.5; MILP must choose 2 or 3.
     min |...| via: min y s.t. 5x >= 12, x binaryish small int.
     Use: min x1+x2+x3+x4+x5 s.t. sum of 2*x_i >= 5, x binary -> 3 vars. *)
  let p = Lp.create () in
  let vars = List.init 5 (fun _ -> Lp.add_var p ~obj:1.0 ~ub:1.0 ()) in
  Lp.add_constraint p (List.map (fun v -> (v, 2.0)) vars) Lp.Ge 5.0;
  let r = Milp.solve ~integral_objective:true ~binary:vars p in
  check_obj "ceil(2.5)" 3.0 r.Milp.objective

let test_milp_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  Lp.add_constraint p [ (x, 1.0) ] Lp.Ge 2.0;
  let r = Milp.solve ~binary:[ x ] p in
  Alcotest.(check bool) "infeasible" true (r.Milp.status = `Infeasible)

let test_milp_respects_incumbent () =
  (* Incumbent equal to the optimum: solver must not return anything worse. *)
  let p = Lp.create () in
  let a = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  let b = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  Lp.add_constraint p [ (a, 1.0); (b, 1.0) ] Lp.Ge 1.0;
  let inc = ([| 1.0; 0.0 |], 1.0) in
  let r = Milp.solve ~incumbent:inc ~binary:[ a; b ] p in
  check_obj "optimal stays 1" 1.0 r.Milp.objective

let test_milp_node_limit_feasible () =
  let p = Lp.create () in
  (* Fractional LP relaxation (optimum 2.5) forces branching, but the node
     limit of 1 stops the search after the root. *)
  let vars = List.init 12 (fun _ -> Lp.add_var p ~obj:1.0 ~ub:1.0 ()) in
  Lp.add_constraint p (List.map (fun v -> (v, 2.0)) vars) Lp.Ge 5.0;
  let r =
    Milp.solve ~node_limit:1
      ~incumbent:(Array.make 12 1.0, 12.0)
      ~binary:vars p
  in
  Alcotest.(check bool) "not proved" false r.Milp.proved;
  Alcotest.(check bool) "keeps incumbent" true (r.Milp.objective <= 12.0 +. 1e-9)

let test_milp_binary_assignment () =
  (* Covering: pick min vertices covering edges of a triangle = 2. *)
  let p = Lp.create () in
  let a = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  let b = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  let c = Lp.add_var p ~obj:1.0 ~ub:1.0 () in
  Lp.add_constraint p [ (a, 1.0); (b, 1.0) ] Lp.Ge 1.0;
  Lp.add_constraint p [ (b, 1.0); (c, 1.0) ] Lp.Ge 1.0;
  Lp.add_constraint p [ (a, 1.0); (c, 1.0) ] Lp.Ge 1.0;
  let r = Milp.solve ~integral_objective:true ~binary:[ a; b; c ] p in
  check_obj "vertex cover of triangle" 2.0 r.Milp.objective

let test_lp_iteration_limit () =
  let p = Lp.create ~sense:Lp.Maximize () in
  let vars = List.init 8 (fun _ -> Lp.add_var p ~obj:1.0 ()) in
  List.iteri
    (fun i v ->
      Lp.add_constraint p [ (v, 1.0) ] Lp.Le (float_of_int (i + 1)))
    vars;
  let sol = Lp.solve ~max_pivots:1 p in
  Alcotest.(check bool) "hit limit" true (sol.Lp.status = Lp.Iteration_limit)

let test_lp_redundant_rows () =
  (* The same equality twice: phase 1 must cope with the redundancy. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p ~obj:1.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Eq 4.0;
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Eq 4.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "objective" 4.0 sol.Lp.objective

let test_lp_rejects_bad_bounds () =
  let p = Lp.create () in
  Alcotest.check_raises "lb > ub" (Invalid_argument "Lp.add_var: lb > ub")
    (fun () -> ignore (Lp.add_var p ~lb:2.0 ~ub:1.0 ()))

let test_lp_zero_rhs_equality () =
  (* x - y = 0, x + y = 6 -> x = y = 3 *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1.0 () in
  let y = Lp.add_var p () in
  Lp.add_constraint p [ (x, 1.0); (y, -1.0) ] Lp.Eq 0.0;
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Eq 6.0;
  let sol = Lp.solve p in
  check_obj "x" 3.0 sol.Lp.values.(x);
  check_obj "y" 3.0 sol.Lp.values.(y)

let simplex_random_feasible_prop =
  (* Random feasible bounded LPs: simplex must report Optimal and satisfy
     every constraint at the returned point. *)
  QCheck.Test.make ~name:"simplex finds feasible optimum" ~count:60
    QCheck.(small_int)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let n = 3 + Netrec_util.Rng.int rng 4 in
      let m = 2 + Netrec_util.Rng.int rng 4 in
      let p = Lp.create () in
      let vars =
        List.init n (fun _ ->
            Lp.add_var p ~obj:(Netrec_util.Rng.float rng 5.0) ())
      in
      (* Constraints a.x <= b with a >= 0 and b > 0 keep 0 feasible and the
         problem bounded below at 0 (min of nonneg costs). *)
      let rows =
        List.init m (fun _ ->
            let terms =
              List.map (fun v -> (v, Netrec_util.Rng.float rng 3.0)) vars
            in
            let rhs = 1.0 +. Netrec_util.Rng.float rng 10.0 in
            Lp.add_constraint p terms Lp.Le rhs;
            (terms, rhs))
      in
      let sol = Lp.solve p in
      sol.Lp.status = Lp.Optimal
      && List.for_all
           (fun (terms, rhs) ->
             let lhs =
               List.fold_left
                 (fun acc (v, c) -> acc +. (c *. sol.Lp.values.(v)))
                 0.0 terms
             in
             lhs <= rhs +. 1e-6)
           rows
      && Array.for_all (fun x -> x >= -1e-9) sol.Lp.values)

let test_lp_beale_cycling () =
  (* Beale's classic cycling example: Dantzig pricing with a naive tie
     rule loops forever; the stall-triggered Bland switch must get through
     to the optimum -0.05 at x1 = 0.04, x3 = 1. *)
  let p = Lp.create () in
  let x1 = Lp.add_var p ~obj:(-0.75) () in
  let x2 = Lp.add_var p ~obj:150.0 () in
  let x3 = Lp.add_var p ~obj:(-0.02) () in
  let x4 = Lp.add_var p ~obj:6.0 () in
  Lp.add_constraint p
    [ (x1, 0.25); (x2, -60.0); (x3, -0.04); (x4, 9.0) ]
    Lp.Le 0.0;
  Lp.add_constraint p
    [ (x1, 0.5); (x2, -90.0); (x3, -0.02); (x4, 3.0) ]
    Lp.Le 0.0;
  Lp.add_constraint p [ (x3, 1.0) ] Lp.Le 1.0;
  let sol = Lp.solve p in
  Alcotest.(check bool) "optimal" true (sol.Lp.status = Lp.Optimal);
  check_obj "objective" (-0.05) sol.Lp.objective;
  check_obj "x1" 0.04 sol.Lp.values.(x1);
  check_obj "x3" 1.0 sol.Lp.values.(x3)

let test_lp_copy_isolation () =
  (* Every mutation a branch-and-bound node performs on a copy — bounds,
     fixing, objective edits, extra rows — must leave the original's
     solution bit-identical. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:(-1.0) ~ub:5.0 () in
  let y = Lp.add_var p ~obj:(-1.0) ~ub:5.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Le 8.0;
  let before = Lp.solve p in
  let c = Lp.copy p in
  Lp.fix c x 0.0;
  Lp.set_bounds c y ~lb:1.0 ~ub:2.0;
  Lp.set_obj c y 7.0;
  Lp.add_constraint c [ (x, 1.0) ] Lp.Ge 0.0;
  let after = Lp.solve p in
  check_obj "objective unchanged" before.Lp.objective after.Lp.objective;
  Alcotest.(check int) "rows unchanged" 1 (Lp.nconstraints p);
  check_obj "lb unchanged" 0.0 (Lp.var_lb p x);
  check_obj "ub unchanged" 5.0 (Lp.var_ub p y);
  check_obj "obj unchanged" (-1.0) (Lp.var_obj p y);
  (* and the copy is equally insulated from the original *)
  Lp.set_obj p x 99.0;
  check_obj "copy obj insulated" (-1.0) (Lp.var_obj c x)

let test_lp_canonical_terms () =
  (* add_constraint must store a canonical row: terms sorted by variable,
     duplicates merged, exact zeros dropped — whatever order the caller
     assembled them in. *)
  let p = Lp.create () in
  let a = Lp.add_var p () in
  let b = Lp.add_var p () in
  let c = Lp.add_var p () in
  Lp.add_constraint p
    [ (c, 4.0); (a, 1.0); (b, 0.0); (c, -2.0); (a, 2.5) ]
    Lp.Le 9.0;
  match Lp.constraints p with
  | [ (terms, Lp.Le, rhs) ] ->
    Alcotest.(check (list (pair int (float 1e-12))))
      "sorted, merged, zeros dropped"
      [ (a, 3.5); (c, 2.0) ]
      terms;
    check_obj "rhs" 9.0 rhs
  | _ -> Alcotest.fail "expected exactly one Le row"

let test_lp_warm_session () =
  (* A warm session under bound overrides must answer exactly like a cold
     solve of the equivalent problem, across repeated re-solves. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:(-2.0) ~ub:4.0 () in
  let y = Lp.add_var p ~obj:(-1.0) ~ub:4.0 () in
  Lp.add_constraint p [ (x, 1.0); (y, 1.0) ] Lp.Le 6.0;
  let w = Lp.warm p in
  let check_against bounds =
    let cold = Lp.copy p in
    List.iter (fun (v, lo, hi) -> Lp.set_bounds cold v ~lb:lo ~ub:hi) bounds;
    let cs = Lp.solve cold in
    let ws = Lp.warm_solve ~bounds w in
    Alcotest.(check bool) "status" true (cs.Lp.status = ws.Lp.status);
    if cs.Lp.status = Lp.Optimal then
      check_obj "objective" cs.Lp.objective ws.Lp.objective
  in
  check_against [];
  check_against [ (x, 0.0, 0.0) ];
  check_against [ (x, 1.0, 1.0); (y, 0.0, 2.0) ];
  check_against [ (x, 4.0, 4.0); (y, 3.0, 4.0) ];
  check_against []

(* Shared generator: random bounded LPs with nonnegative costs (bounded
   below) and mixed-sense rows — feasible, infeasible and degenerate
   cases all occur across seeds. *)
let random_lp rng =
  let n = 3 + Netrec_util.Rng.int rng 4 in
  let m = 2 + Netrec_util.Rng.int rng 5 in
  let p = Lp.create () in
  let vars =
    List.init n (fun _ ->
        Lp.add_var p
          ~obj:(Netrec_util.Rng.float rng 4.0)
          ~ub:(1.0 +. Netrec_util.Rng.float rng 5.0)
          ())
  in
  for _ = 1 to m do
    let terms =
      List.filter_map
        (fun v ->
          if Netrec_util.Rng.float rng 1.0 < 0.7 then
            Some (v, Netrec_util.Rng.float rng 6.0 -. 3.0)
          else None)
        vars
    in
    let rel =
      match Netrec_util.Rng.int rng 3 with
      | 0 -> Lp.Le
      | 1 -> Lp.Ge
      | _ -> Lp.Eq
    in
    let rhs = Netrec_util.Rng.float rng 6.0 -. 2.0 in
    if terms <> [] then Lp.add_constraint p terms rel rhs
  done;
  p

let presolve_roundtrip_prop =
  (* Presolve + postsolve is invisible: on random LPs the reduced solve
     must report the same status as the direct solve, match its proved
     objective, and the lifted solution must certify against the
     ORIGINAL problem — every row, every bound, objective recomputation. *)
  QCheck.Test.make ~name:"presolve round-trips and certifies" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let p = random_lp rng in
      let direct = Lp.solve p in
      let pre = Presolve.solve p in
      pre.Lp.status = direct.Lp.status
      && (direct.Lp.status <> Lp.Optimal
         || abs_float (pre.Lp.objective -. direct.Lp.objective) <= 1e-6
            && Netrec_check.Check.(lp_ok (lp_certificate p pre))))

let dse_dantzig_prop =
  (* Pricing is a pure performance choice.  The dual simplex (where the
     leaving-row rule lives) only runs on warm re-solves, so drive two
     warm sessions — dual steepest edge vs the most-infeasible rule —
     through the same random bound-override sequence: statuses and
     proved objectives must agree at every step. *)
  QCheck.Test.make ~name:"dse agrees with dantzig pricing" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let p = random_lp rng in
      let n = Lp.nvars p in
      let dse = Lp.warm ~pricing:Tuning.Dse p in
      let dtz = Lp.warm ~pricing:Tuning.Dantzig p in
      let steps = 3 + Netrec_util.Rng.int rng 4 in
      let ok = ref true in
      for _ = 1 to steps do
        let bounds =
          List.filter_map
            (fun v ->
              match Netrec_util.Rng.int rng 3 with
              | 0 -> Some (v, 0.0, 0.0)
              | 1 -> Some (v, Lp.var_ub p v, Lp.var_ub p v)
              | _ -> None)
            (List.init n (fun v -> v))
        in
        let a = Lp.warm_solve ~bounds dse in
        let b = Lp.warm_solve ~bounds dtz in
        if
          a.Lp.status <> b.Lp.status
          || (a.Lp.status = Lp.Optimal
             && abs_float (a.Lp.objective -. b.Lp.objective) > 1e-6)
        then ok := false
      done;
      !ok)

(* Shared generator for the MILP properties: a random binary program
   with mixed Le/Ge/Eq rows. *)
let random_bip rng =
  let n = 2 + Netrec_util.Rng.int rng 4 in
  let m = 2 + Netrec_util.Rng.int rng 5 in
  let p = Lp.create () in
  let vars =
    List.init n (fun _ ->
        Lp.add_var p ~obj:(Netrec_util.Rng.float rng 4.0) ~ub:1.0 ())
  in
  for _ = 1 to m do
    let terms =
      List.filter_map
        (fun v ->
          if Netrec_util.Rng.float rng 1.0 < 0.7 then
            Some (v, Netrec_util.Rng.float rng 6.0 -. 3.0)
          else None)
        vars
    in
    let rel =
      match Netrec_util.Rng.int rng 3 with
      | 0 -> Lp.Le
      | 1 -> Lp.Ge
      | _ -> Lp.Eq
    in
    let rhs = Netrec_util.Rng.float rng 6.0 -. 2.0 in
    if terms <> [] then Lp.add_constraint p terms rel rhs
  done;
  (p, vars)

let milp_warm_cold_prop =
  (* Warm-started branch-and-bound is a pure performance move: on 200
     seeded random binary programs (run to completion, no node limit) it
     must report exactly the same objective and proof as per-node cold
     solves. *)
  QCheck.Test.make ~name:"milp warm equals cold oracle" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let p, vars = random_bip rng in
      let w = Milp.solve ~binary:vars p in
      let c = Milp.solve ~warm:false ~binary:vars p in
      w.Milp.status = c.Milp.status
      && w.Milp.proved = c.Milp.proved
      && (w.Milp.status <> `Optimal
         || abs_float (w.Milp.objective -. c.Milp.objective) <= 1e-6))

let milp_cuts_prop =
  (* Cutting planes must be pure strengthening: a separator emitting
     valid cardinality cuts (from all-positive Ge rows: sum a_j x_j >= b
     with x binary implies sum x_j >= ceil(b / max a_j)) may never
     change the proved optimum, and the cuts-off integral optimum must
     satisfy every cut the separator ever emitted. *)
  QCheck.Test.make ~name:"milp cuts never cut off the optimum" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let p, vars = random_bip rng in
      let recorded = ref [] in
      let separator _x =
        let cuts =
          List.filter_map
            (fun (terms, rel, rhs) ->
              if
                rel = Lp.Ge && rhs > 0.0
                && List.for_all (fun (_, a) -> a > 1e-9) terms
              then begin
                let amax =
                  List.fold_left (fun m (_, a) -> Float.max m a) 0.0 terms
                in
                let k = ceil ((rhs /. amax) -. 1e-9) in
                if k >= 1.0 then
                  Some (List.map (fun (v, _) -> (v, 1.0)) terms, Lp.Ge, k)
                else None
              end
              else None)
            (Lp.constraints p)
        in
        recorded := cuts @ !recorded;
        cuts
      in
      let w = Milp.solve ~binary:vars ~cuts:true ~separator p in
      let c = Milp.solve ~binary:vars ~cuts:false p in
      let optimum_respects_cuts =
        c.Milp.status <> `Optimal
        || List.for_all
             (fun (terms, _, k) ->
               let lhs =
                 List.fold_left
                   (fun acc (v, a) -> acc +. (a *. c.Milp.values.(v)))
                   0.0 terms
               in
               lhs >= k -. 1e-6)
             !recorded
      in
      w.Milp.status = c.Milp.status
      && (w.Milp.status <> `Optimal
         || abs_float (w.Milp.objective -. c.Milp.objective) <= 1e-6)
      && optimum_respects_cuts)

(* ---- Simplex's row kernels against the dense loops ---- *)

(* The loops the row kernels replaced, as they were: they walk all m
   columns of a row.  [drop_tol] is Simplex's product-form drop
   tolerance. *)
let drop_tol = 1e-13

let dense_tau binv ~m ~i ~r =
  let off_r = r * m in
  let tau = ref 0.0 in
  let off_i = i * m in
  for k = 0 to m - 1 do
    tau :=
      !tau
      +. (Array.unsafe_get binv (off_i + k)
         *. Array.unsafe_get binv (off_r + k))
  done;
  !tau

let dense_eta_update binv ~m ~r ~u =
  let inv = 1.0 /. u.(r) in
  let off_r = r * m in
  for i = 0 to m - 1 do
    if i <> r then begin
      let f = u.(i) *. inv in
      if abs_float f > drop_tol then begin
        let off_i = i * m in
        for k = 0 to m - 1 do
          Array.unsafe_set binv (off_i + k)
            (Array.unsafe_get binv (off_i + k)
            -. (f *. Array.unsafe_get binv (off_r + k)))
        done
      end
    end
  done;
  for k = 0 to m - 1 do
    binv.(off_r + k) <- binv.(off_r + k) *. inv
  done

let dense_eliminate dense inv2 ~m ~c ~inv =
  for k = 0 to m - 1 do
    dense.((c * m) + k) <- dense.((c * m) + k) *. inv;
    inv2.((c * m) + k) <- inv2.((c * m) + k) *. inv
  done;
  for r = 0 to m - 1 do
    if r <> c then begin
      let f = dense.((r * m) + c) in
      if f <> 0.0 then begin
        for k = 0 to m - 1 do
          dense.((r * m) + k) <-
            dense.((r * m) + k) -. (f *. dense.((c * m) + k));
          inv2.((r * m) + k) <-
            inv2.((r * m) + k) -. (f *. inv2.((c * m) + k))
        done
      end
    end
  done

(* A matrix entry: about a tenth nonzero, half of those small integers
   (so that updates cancel to exact zeros), the rest spread over a few
   octaves; zeros come with both signs. *)
let sparse_entry rng =
  let module R = Netrec_util.Rng in
  if R.bernoulli rng 0.1 then
    let v =
      if R.bool rng then float_of_int (1 + R.int rng 4)
      else (0.5 +. R.float rng 1.5) *. ldexp 1.0 (R.int rng 9 - 4)
    in
    if R.bool rng then v else -.v
  else if R.bool rng then 0.0
  else -0.0

(* A pivot element: a signed power of two half the time, so that factors
   built from [drop_tol] divide back to it exactly. *)
let pivot_entry rng =
  let module R = Netrec_util.Rng in
  let v =
    if R.bool rng then ldexp 1.0 (R.int rng 5 - 2) else 0.5 +. R.float rng 1.5
  in
  if R.bool rng then v else -.v

(* Entry i of B^-1 a_q for a pivot [ur]: signed zeros, regular values,
   factors at and one ulp-ish step either side of [drop_tol], and drift
   below it. *)
let column_entry rng ~ur =
  let module R = Netrec_util.Rng in
  let sign v = if R.bool rng then v else -.v in
  match R.int rng 5 with
  | 0 -> if R.bool rng then 0.0 else -0.0
  | 1 -> sign (0.5 +. R.float rng 1.5)
  | 2 ->
    let nudge = [| 1.0 -. epsilon_float; 1.0; 1.0 +. epsilon_float |] in
    sign (drop_tol *. nudge.(R.int rng 3) *. abs_float ur)
  | 3 -> sign (drop_tol *. (0.5 +. R.float rng 1.0) *. abs_float ur)
  | _ -> sign (1e-15 *. R.float rng 1.0)

(* Where the dense loop gives a nonzero, the kernel gives the same bits;
   where it gives a zero, the kernel gives a zero of either sign. *)
let same_entries expect got =
  let ok = ref true in
  Array.iteri
    (fun k e ->
      let g = got.(k) in
      if e = 0.0 then (if g <> 0.0 then ok := false)
      else if Int64.bits_of_float e <> Int64.bits_of_float g then ok := false)
    expect;
  !ok

let kernels_match_dense_prop =
  QCheck.Test.make ~name:"row kernels equal the dense loops" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Netrec_util.Rng.create seed in
      let m = 1 + Netrec_util.Rng.int rng 40 in
      let matrix () = Array.init (m * m) (fun _ -> sparse_entry rng) in
      (* pivot in row r: tau against every row, then the update *)
      let binv = matrix () in
      let r = Netrec_util.Rng.int rng m in
      let ur = pivot_entry rng in
      let u =
        Array.init m (fun i -> if i = r then ur else column_entry rng ~ur)
      in
      let nz = Array.make m 0 in
      let nnz = Simplex.Kernel.nonzeros binv ~off:(r * m) ~len:m nz in
      let taus_equal =
        List.for_all
          (fun i ->
            Int64.bits_of_float (dense_tau binv ~m ~i ~r)
            = Int64.bits_of_float
                (Simplex.Kernel.tau binv ~off_i:(i * m) ~off_r:(r * m) nz nnz))
          (List.init m Fun.id)
      in
      let expect = Array.copy binv in
      dense_eta_update expect ~m ~r ~u;
      Simplex.Kernel.eta_update binv ~m ~r ~u nz nnz;
      (* one Gauss-Jordan step on column c *)
      let dense = matrix () and inv2 = matrix () in
      let c = Netrec_util.Rng.int rng m in
      dense.((c * m) + c) <- pivot_entry rng;
      let inv = 1.0 /. dense.((c * m) + c) in
      let dense' = Array.copy dense and inv2' = Array.copy inv2 in
      dense_eliminate dense' inv2' ~m ~c ~inv;
      Simplex.Kernel.eliminate dense inv2 ~m ~c ~inv (Array.make m 0)
        (Array.make m 0);
      taus_equal
      && same_entries expect binv
      && same_entries dense' dense
      && same_entries inv2' inv2)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_lp"
    [ ( "lp",
        [ tc "maximize" test_lp_maximize;
          tc "minimize" test_lp_minimize;
          tc "equality" test_lp_equality;
          tc "infeasible" test_lp_infeasible;
          tc "unbounded" test_lp_unbounded;
          tc "fixed variable" test_lp_fixed_variable;
          tc "shifted lower bound" test_lp_shifted_lower_bound;
          tc "duplicate terms" test_lp_duplicate_terms_merged;
          tc "degenerate" test_lp_degenerate;
          tc "negative rhs" test_lp_negative_rhs;
          tc "copy independent" test_lp_copy_independent;
          tc "var name" test_lp_var_name;
          tc "mcf feasibility" test_lp_mcf_feasibility;
          tc "iteration limit" test_lp_iteration_limit;
          tc "redundant rows" test_lp_redundant_rows;
          tc "rejects bad bounds" test_lp_rejects_bad_bounds;
          tc "zero rhs equality" test_lp_zero_rhs_equality;
          tc "beale cycling" test_lp_beale_cycling;
          tc "copy isolation" test_lp_copy_isolation;
          tc "canonical terms" test_lp_canonical_terms;
          tc "warm session" test_lp_warm_session;
          QCheck_alcotest.to_alcotest simplex_random_feasible_prop;
          QCheck_alcotest.to_alcotest presolve_roundtrip_prop;
          QCheck_alcotest.to_alcotest dse_dantzig_prop;
          QCheck_alcotest.to_alcotest kernels_match_dense_prop ] );
      ( "milp",
        [ tc "knapsack" test_milp_knapsack;
          tc "forces integrality" test_milp_forces_integrality;
          tc "infeasible" test_milp_infeasible;
          tc "respects incumbent" test_milp_respects_incumbent;
          tc "node limit" test_milp_node_limit_feasible;
          tc "vertex cover" test_milp_binary_assignment;
          QCheck_alcotest.to_alcotest milp_warm_cold_prop;
          QCheck_alcotest.to_alcotest milp_cuts_prop ] ) ]
