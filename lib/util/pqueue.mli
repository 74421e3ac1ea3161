(** Mutable binary min-heap keyed by floats.

    Used by [Milp]'s best-bound node queue ([Dijkstra], which
    Garg–Könemann calls, keeps its own array heap).  Decrease-key is handled lazily: callers
    may insert the same element several times with decreasing priorities
    and drop stale pop results (the "lazy deletion" idiom), so no handle
    bookkeeping is needed. *)

type 'a t
(** Min-heap of ['a] elements with float priorities. *)

val create : unit -> 'a t
(** Fresh empty heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] holds when no element is stored. *)

val size : 'a t -> int
(** Number of stored (possibly stale) entries. *)

val length : 'a t -> int
(** Alias of {!size}, matching the stdlib container naming. *)

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority entry, or [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** Minimum-priority entry without removing it. *)

val clear : 'a t -> unit
(** Remove every entry. *)
