(** Blocking client for the recovery daemon.

    One {!t} is one connection; requests on a single connection are
    sequential (send a frame, read a frame).  Concurrency comes from
    opening several connections — that is what the chaos script and
    perfbench's query generator do.

    Every failure is an [Error _] result ([`Io] for transport problems,
    [`Protocol] for unparseable responses); nothing here raises on bad
    daemon behaviour, so test harnesses can assert on the exact
    disposition. *)

type t

type error = [ `Io of string | `Protocol of string ]

val error_to_string : error -> string

val connect : Server.address -> (t, error) result
(** Open a connection to a listening daemon. *)

val close : t -> unit
(** Close the connection (idempotent). *)

val roundtrip :
  ?max_frame:int -> t -> Protocol.request -> (Protocol.response, error) result
(** Send one request and block for its response.  [max_frame] bounds
    the accepted response size (default {!Wire.default_max_frame}). *)

val query :
  ?max_frame:int -> t -> Protocol.query -> (Protocol.response, error) result
(** [roundtrip] of [Query q]. *)

val ping : t -> (unit, error) result
(** [roundtrip] of [Ping]; [Ok ()] on [Pong], [Error] otherwise. *)

val stats : t -> ((string * int) list, error) result
(** [roundtrip] of [Stats]. *)

val with_connection :
  Server.address -> (t -> ('a, error) result) -> ('a, error) result
(** Connect, run, close (also on exceptions). *)
