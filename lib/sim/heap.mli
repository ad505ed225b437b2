(** Binary min-heap of timestamped events.

    The heap orders entries by [(time, seq)]: earlier times first, and for
    equal times the entry inserted first pops first. The tiebreaker makes the
    whole simulation deterministic — two events scheduled for the same
    instant always run in scheduling order. *)

type 'a t
(** A min-heap holding payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] inserts [v] keyed by [(time, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum entry as [(time, seq, payload)],
    or [None] if the heap is empty. *)

val clear : 'a t -> unit
(** Remove all entries. *)
