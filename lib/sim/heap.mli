(** Binary min-heap of timestamped events.

    The heap orders entries by [(time, seq)]: earlier times first, and for
    equal times the smaller [seq] first. The engine hands out [seq] from a
    counter bumped on every schedule, so two events scheduled for the same
    instant always run in scheduling order — the tiebreaker that makes the
    whole simulation deterministic.

    Keys and payloads are kept in parallel arrays: {!push}, {!min_time} and
    {!pop_exn} allocate nothing (except when the arrays double), and every
    slot an entry leaves — by a pop, {!clear} or growth — is reset, so the
    heap never keeps a removed payload reachable. *)

type 'a t
(** A min-heap holding payloads of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] inserts [v] keyed by [(time, seq)]. *)

val min_time : 'a t -> int
(** Time of the minimum entry, or [max_int] if the heap is empty. *)

val pop_exn : 'a t -> 'a
(** [pop_exn h] removes the minimum entry and returns its payload. Read
    its time first with {!min_time} if needed.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum entry as [(time, seq, payload)],
    or [None] if the heap is empty. Allocating wrapper over {!pop_exn}. *)

val clear : 'a t -> unit
(** Remove all entries. *)
