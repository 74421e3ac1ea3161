(* query-bell-canada: a `recover serve --topology bell-canada` daemon in
   its own process, driven by a single-process generator over two
   connections.  A fixed share of queries re-asks a hot set of disasters
   smaller than the daemon's plan cache (cache hits beside misses that
   solve and insert).  Phases: a closed-loop warm-up, an open loop at a
   fixed rate (latency from each query's due time), and a closed loop on
   both connections (capacity).  The only workload for lib/serve. *)

module Rng = Netrec_util.Rng
module Instance = Netrec_core.Instance
module Check = Netrec_check.Check
module Server = Netrec_serve.Server
module Client = Netrec_serve.Client
module Protocol = Netrec_serve.Protocol
module Json = Netrec_obs.Metrics_diff.Json
module Spans = Perfbench.Spans
module Loadgen = Perfbench.Loadgen
module Stats = Perfbench.Stats

let connections = 2
let hot_set = 64  (* below the daemon's default 256-plan cache *)
let pool_size = 1024
let variance = 40.0
let pairs = 3
let amount = 10.0

(* Slot i of the pool re-asks a hot disaster when i mod 10 < 3: a fixed
   30% share, so the cache hit ratio does not hinge on the seed. *)
let hot i = i mod 10 < 3

(* Open-loop rate, queries per second: about half the closed-loop
   capacity of a one-worker daemon on a 2-core x86-64 machine. *)
let rate = 80.0

(* Queries per phase at --seconds 20, scaled to the run length: every
   run of one length asks the daemon the same work.  The open loop holds
   the 1000 queries a p99 needs. *)
let warmup_queries = 200
let open_queries = 1040
let closed_queries = 2000

type q = { query : Protocol.query; inst : Instance.t }

let disaster g rng =
  let demands =
    Netrec_experiments.Common.feasible_demands ~rng ~count:pairs ~amount g
  in
  let failure = Netrec_disrupt.Models.gaussian ~rng ~variance g in
  let inst = Instance.make ~graph:g ~demands ~failure () in
  let module F = Netrec_disrupt.Failure in
  { query =
      { Protocol.algorithm = Protocol.Isp; deadline_s = None; no_cache = false;
        demands =
          List.map
            (fun (d : Netrec_flow.Commodity.t) -> (d.src, d.dst, d.amount))
            demands;
        broken_vertices = F.broken_vertex_list failure;
        broken_edges = F.broken_edge_list failure };
    inst }

(* The query pool: hot slots re-ask one of [hot_set] disasters, the
   others ask a disaster of their own. *)
let generate ~seed g =
  let rng = Rng.create seed in
  let hots = Array.init hot_set (fun _ -> disaster g (Rng.split rng)) in
  Array.init pool_size (fun i ->
      let r = Rng.split rng in
      if hot i then hots.(Rng.int rng hot_set) else disaster g r)

(* ---- the daemon ---- *)

type daemon = { pid : int; address : Server.address; metrics : string }

let spawn ~recover ~dir =
  let sock = Filename.concat dir "query.sock" in
  let metrics = Filename.concat dir "daemon-metrics.jsonl" in
  let log = Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (* One core stays with the generator, so the two processes do not
     fight over the CPU. *)
  let jobs = max 1 (Domain.recommended_domain_count () - 1) in
  (* No fault injection, whatever the environment says. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"NETREC_INJECT=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Unix.create_process_env recover
      [| recover; "serve"; "--topology"; "bell-canada"; "--socket"; sock;
         "-j"; string_of_int jobs; "--metrics"; metrics |]
      env Unix.stdin log log
  in
  Unix.close log;
  { pid; address = Server.Unix_socket sock; metrics }

let rec await_pong d ~deadline =
  let pong =
    match Client.with_connection d.address Client.ping with
    | Ok () -> true
    | Error _ -> false
  in
  if pong then ()
  else if Report.now () > deadline then failwith "daemon did not answer ping"
  else begin
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up");
    Thread.delay 0.005;
    await_pong d ~deadline
  end

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let live : daemon option ref = ref None

let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | None -> ())

let stats d =
  match Client.with_connection d.address Client.stats with
  | Ok kvs -> kvs
  | Error e -> failwith ("stats: " ^ Client.error_to_string e)

let stat kvs k = float_of_int (Option.value ~default:0 (List.assoc_opt k kvs))

(* The daemon's --metrics export, as a library telemetry snapshot. *)
let read_export path =
  let ic = open_in path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec loop acc =
          match input_line ic with l -> loop (l :: acc) | exception End_of_file -> acc
        in
        loop [])
  in
  let num k j = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.number) in
  let str k j = Option.value ~default:"" (Option.bind (Json.member k j) Json.string_val) in
  List.fold_left
    (fun (snap : Layers.snap) line ->
      match Json.parse line with
      | exception Json.Parse_error _ -> snap
      | j -> (
        match str "type" j with
        | "counter" ->
          { snap with counters = (str "name" j, int_of_float (num "value" j)) :: snap.counters }
        | "span" ->
          { snap with
            spans =
              { Netrec_obs.Obs.path = str "path" j; calls = int_of_float (num "calls" j);
                total_s = num "total_s" j; self_s = num "self_s" j;
                minor_words = num "minor_words" j; major_words = num "major_words" j;
                compactions = int_of_float (num "compactions" j) }
              :: snap.spans }
        | _ -> snap))
    { Layers.counters = []; spans = [] }
    lines

(* ---- queries ---- *)

type answer = {
  text : string;  (** the serialized plan *)
  cost : float;
  seconds : float;  (** the daemon's service time: queue wait + solve *)
  rtt : float;  (** the client's round trip *)
}

(* One query: send, check the reply, re-certify its plan against the
   instance the generator built. *)
let ask conn pool k =
  let { query; inst } = pool.(k mod pool_size) in
  Report.attempt ();
  Spans.with_span "query" ~index:k (fun () ->
      let reply, rtt =
        Spans.with_span "client.query" ~index:k (fun () ->
            Report.timed (fun () -> Client.query conn query))
      in
      match reply with
      | Error e ->
        Report.fail "query %d: %s" k (Client.error_to_string e);
        None
      | Ok (Protocol.Error (kind, msg)) ->
        Report.fail "query %d: %s: %s" k (Protocol.error_kind_to_string kind) msg;
        None
      | Ok (Protocol.Ok_plan r) ->
        if !Spans.enabled then begin
          (* The client's codec cost: the same encode Client.query made,
             and a parse of the reply's encoding. *)
          let req = Spans.with_span "protocol.encode" ~index:k (fun () ->
              Protocol.encode_request (Protocol.Query query)) in
          let resp = Protocol.encode_response (Protocol.Ok_plan r) in
          ignore req;
          ignore (Spans.with_span "protocol.parse" ~index:k (fun () ->
              Protocol.parse_response resp))
        end;
        let cert =
          Spans.with_span "check.certify" ~index:k (fun () ->
              Check.certify ~reported_cost:r.Protocol.cost inst r.Protocol.solution)
        in
        if r.Protocol.shed then Report.fail "query %d: shed to %s" k r.Protocol.answered_by
        else if not r.Protocol.complete then Report.fail "query %d: incomplete plan" k
        else if not (Check.ok cert) then
          Report.fail "query %d: plan does not certify: %s" k
            (Check.certificate_to_string cert);
        Some
          { text =
              Netrec_core.Serialize.solution_to_string ~cost:r.Protocol.cost
                r.Protocol.solution;
            cost = r.Protocol.cost; seconds = r.Protocol.seconds; rtt }
      | Ok _ ->
        Report.fail "query %d: unexpected response kind" k;
        None)

let connect d =
  match Client.connect d.address with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)

(* Run [body c conn] on each of the connections, one thread each. *)
let on_connections conns body =
  let threads = Array.mapi (fun c conn -> Thread.create (fun () -> body c conn) ()) conns in
  Array.iter Thread.join threads

(* Closed loop: every connection sends its next query as soon as the
   previous reply is in, until [count] queries are answered.  Returns
   the round-trip times (query to certified plan). *)
let closed_loop conns pool ~next ~count =
  let stop = Atomic.get next + count in
  let rtts = Array.make (Array.length conns) [] in
  on_connections conns (fun c conn ->
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < stop then begin
          let _, dt = Report.timed (fun () -> ask conn pool k) in
          rtts.(c) <- dt :: rtts.(c);
          loop ()
        end
      in
      loop ());
  Atomic.set next stop;
  Array.of_list (List.concat (Array.to_list rtts))

let run ~seed ~seconds ~trace ~out ~recover =
  if recover = "" then failwith "query-bell-canada needs --recover PATH";
  let g = Netrec_topo.Bell_canada.graph () in
  let setup () =
    Option.iter
      (fun d -> Report.check (stop d) "daemon did not drain and exit cleanly")
      !live;
    live := None;
    let t0 = Report.now () in
    let d = spawn ~recover ~dir:out in
    live := Some d;
    await_pong d ~deadline:(t0 +. 60.0);
    let start_s = Report.now () -. t0 in
    let pool, gen_s = Report.timed (fun () -> generate ~seed g) in
    (d, pool, start_s, gen_s)
  in
  let (d, pool, start_s, gen_s), setup_s = Report.median_setup setup in
  Report.set "setup_s" setup_s;
  Report.set "setup.topology_ms" (Report.ms start_s);
  Report.set "setup.instances_ms" (Report.ms gen_s);
  let conns = Array.init connections (fun _ -> connect d) in
  let next = Atomic.make 0 in
  ignore (closed_loop conns pool ~next ~count:(Pipeline.scaled ~seconds warmup_queries));
  let before = stats d in
  (* Open loop: query i is due at start + i / rate, on connection i mod 2. *)
  let n_open = Pipeline.scaled ~seconds open_queries in
  let first = Atomic.fetch_and_add next n_open in
  let start = Report.now () +. 0.01 in
  let dues = Loadgen.schedule ~start ~rate n_open in
  let records = Array.make n_open None and answers = Array.make n_open None in
  on_connections conns (fun c conn ->
      let mine = List.filter (fun i -> i mod connections = c) (List.init n_open Fun.id) in
      let idx = Array.of_list mine in
      let recs =
        Loadgen.run ~now:Report.now ~sleep_until:Loadgen.wall_sleep_until
          ~send:(fun j -> answers.(idx.(j)) <- ask conn pool (first + idx.(j)))
          (Array.map (fun i -> dues.(i)) idx)
      in
      Array.iteri (fun j r -> records.(idx.(j)) <- Some r) recs);
  let records = Array.map Option.get records in
  let latencies = Array.map Loadgen.latency records in
  (* Closed loop on both connections: capacity and time per plan. *)
  let rtts, closed_s =
    Report.timed (fun () ->
        closed_loop conns pool ~next ~count:(Pipeline.scaled ~seconds closed_queries))
  in
  let after = stats d in
  let answered = Array.to_list answers |> List.filter_map Fun.id |> Array.of_list in
  Report.set "plan_p50_ms" (Report.ms (Report.median rtts));
  Report.set "plans_per_s" (float_of_int (Array.length rtts) /. closed_s);
  Report.set "query_capacity_rps" (float_of_int (Array.length rtts) /. closed_s);
  Report.set "repair_cost_mean" (Report.mean (Array.map (fun a -> a.cost) answered));
  Report.set "query_p50_ms" (Report.ms (Report.median latencies));
  Option.iter (fun v -> Report.set "query_p99_ms" (Report.ms v)) (Stats.percentile ~p:99 latencies);
  Option.iter (fun v -> Report.set "loadgen.lag_p99_ms" (Report.ms v))
    (Stats.percentile ~p:99 (Array.map Loadgen.lag records));
  let service = Array.map (fun a -> a.seconds) answered in
  Report.set "serve.service_p50_ms" (Report.ms (Report.median service));
  Option.iter (fun v -> Report.set "serve.service_p99_ms" (Report.ms v))
    (Stats.percentile ~p:99 service);
  Report.set "serve.transport_p50_ms"
    (Report.ms (Report.median (Array.map (fun a -> a.rtt -. a.seconds) answered)));
  let d_hits = stat after "serve.cache_hits" -. stat before "serve.cache_hits" in
  let d_miss = stat after "serve.cache_misses" -. stat before "serve.cache_misses" in
  Report.set "serve.cache_hit_ratio" (Layers.ratio d_hits (d_hits +. d_miss));
  Report.set "serve.queue_peak" (stat after "serve.queue_peak");
  Printf.printf
    "query-bell-canada: %d open-loop queries at %.0f/s, %d closed-loop in %.2f s\n"
    n_open rate (Array.length rtts) closed_s;
  if trace then begin
    (* The same queries untraced and traced, uncached so each solves. *)
    let m = 64 in
    let base = Atomic.fetch_and_add next m in
    let uncached = Array.map (fun q -> { q with query = { q.query with no_cache = true } }) pool in
    let text k = match ask conns.(0) uncached (base + k) with Some a -> a.text | None -> "" in
    let untraced, untraced_s = Report.timed (fun () -> Array.init m text) in
    let traced_s, spans = Pipeline.traced_passes ~n:m ~untraced ~output:Fun.id text in
    Pipeline.set_overhead ~untraced_s ~traced_s;
    Report.set "check.certify_ms"
      (Report.ms (Spans.total spans "check.certify") /. float_of_int m);
    Report.set "protocol.codec_us"
      (1e6
      *. (Spans.total spans "protocol.encode" +. Spans.total spans "protocol.parse")
      /. float_of_int m);
    Report.set "trace.unattributed_share" (Pipeline.unattributed_share spans);
    Pipeline.write_spans ~dir:out ~name:"query-bell-canada" spans
  end;
  Report.set "peak_rss_mb" (Report.peak_rss_mb (string_of_int d.pid));
  let served = stat (stats d) "serve.ok" in
  Array.iter Client.close conns;
  live := None;
  Report.check (stop d) "daemon did not drain and exit cleanly";
  if trace then begin
    (* Library telemetry of the daemon's whole life, per answered query. *)
    Layers.add_delta "daemon" { Layers.counters = []; spans = [] } (read_export d.metrics);
    let per x = Layers.ratio x served in
    let ms leaf = per (Report.ms (Layers.self_s leaf)) in
    let cnt k = float_of_int (Layers.count k) in
    Report.set "isp.prune_pass.self_ms" (ms "isp.prune_pass");
    Report.set "isp.split_step.self_ms" (ms "isp.split_step");
    Report.set "isp.oracle.self_ms" (ms "isp.oracle");
    Report.set "isp.iterations" (per (cnt "isp.iterations"));
    Report.set "dijkstra.settled" (per (cnt "dijkstra.settled"));
    Report.set "maxflow.calls" (per (cnt "maxflow.calls"));
    Report.set "centrality.cache_hit_ratio"
      (Layers.ratio (cnt "centrality.cache_hits")
         (cnt "centrality.cache_hits" +. cnt "centrality.cache_misses"))
  end
