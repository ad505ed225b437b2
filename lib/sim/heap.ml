(* Struct-of-arrays binary min-heap. Entry [i] is [(time.(i), seq.(i),
   data.(i))]; push and pop move the keys and payload through a hole
   instead of swapping, and allocate nothing unless the arrays grow.

   Payloads live in an [Obj.t array] built from an immediate, so the array
   is never a flat float array whatever ['a] is, and [empty] (an
   immediate) can overwrite every vacated slot: a popped payload must not
   stay reachable from the heap. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable data : Obj.t array;
  mutable size : int;
}

let empty = Obj.repr 0

let create () =
  {
    time = Array.make 64 0;
    seq = Array.make 64 0;
    data = Array.make 64 empty;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0
let min_time h = if h.size = 0 then max_int else Array.unsafe_get h.time 0

let grow h =
  let n = 2 * Array.length h.time in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.time <- extend h.time 0;
  h.seq <- extend h.seq 0;
  h.data <- extend h.data empty

let[@inline] before (t1 : int) (s1 : int) t2 s2 =
  t1 < t2 || (t1 = t2 && s1 < s2)

(* Move the entry at [j] into slot [i]. *)
let move h ~from:j i =
  Array.unsafe_set h.time i (Array.unsafe_get h.time j);
  Array.unsafe_set h.seq i (Array.unsafe_get h.seq j);
  Array.unsafe_set h.data i (Array.unsafe_get h.data j)

let push h ~time ~seq payload =
  if h.size = Array.length h.time then grow h;
  (* sift the hole up from the new last slot *)
  let i = ref h.size in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if
      before time seq (Array.unsafe_get h.time parent)
        (Array.unsafe_get h.seq parent)
    then begin
      move h ~from:parent !i;
      i := parent
    end
    else sifting := false
  done;
  Array.unsafe_set h.time !i time;
  Array.unsafe_set h.seq !i seq;
  Array.unsafe_set h.data !i (Obj.repr payload);
  h.size <- h.size + 1

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = Array.unsafe_get h.data 0 in
  let last = h.size - 1 in
  h.size <- last;
  (* sift the hole down from the root, carrying the last entry *)
  let time = Array.unsafe_get h.time last
  and seq = Array.unsafe_get h.seq last in
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= last then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < last
          && before (Array.unsafe_get h.time r) (Array.unsafe_get h.seq r)
               (Array.unsafe_get h.time l) (Array.unsafe_get h.seq l)
        then r
        else l
      in
      if before (Array.unsafe_get h.time c) (Array.unsafe_get h.seq c) time seq
      then begin
        move h ~from:c !i;
        i := c
      end
      else sifting := false
    end
  done;
  if last > 0 then move h ~from:last !i;
  Array.unsafe_set h.data last empty;
  Obj.obj top

let pop h =
  if h.size = 0 then None
  else begin
    let time = h.time.(0) and seq = h.seq.(0) in
    Some (time, seq, pop_exn h)
  end

let clear h =
  Array.fill h.data 0 h.size empty;
  h.size <- 0
