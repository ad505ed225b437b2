type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a entry option array; mutable size : int }

let create () = { arr = Array.make 64 None; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get h i =
  match h.arr.(i) with
  | Some e -> e
  | None -> assert false

let grow h =
  let arr = Array.make (2 * Array.length h.arr) None in
  Array.blit h.arr 0 arr 0 h.size;
  h.arr <- arr

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt (get h i) (get h parent) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && lt (get h l) (get h !smallest) then smallest := l;
  if r < h.size && lt (get h r) (get h !smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(!smallest);
    h.arr.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~time ~seq payload =
  if h.size = Array.length h.arr then grow h;
  h.arr.(h.size) <- Some { time; seq; payload };
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let top = get h 0 in
    h.size <- h.size - 1;
    h.arr.(0) <- h.arr.(h.size);
    h.arr.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    Some (top.time, top.seq, top.payload)
  end

let clear h =
  Array.fill h.arr 0 h.size None;
  h.size <- 0
