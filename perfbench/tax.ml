(* The one benchmark module that touches the tracing layer: it turns the
   program's existing spans on for a traced round, marks each open-loop
   request as a trace root, and breaks the simulated time of those roots
   down into the disaggregation-tax categories with Obs.Analysis. *)

module Span = Fractos_obs.Span
module Analysis = Fractos_obs.Analysis

let enable () =
  Span.reset ();
  Span.set_limit 5_000_000;
  Span.set_enabled true

let disable () = Span.set_enabled false

(* Run [f] as one request's trace root; exactly [f ()] with tracing off. *)
let request f = Span.with_ ~node:"client" ~name:"request" f

type shares = {
  ctrl : float;
  fabric : float;
  queue : float;
  device : float;
  client : float;
  idle : float;  (** the root waiting with no span under it *)
}

(* Share of the traced roots' summed end-to-end simulated time spent in
   each category. Fails if the span ring overflowed, since a truncated
   trace would under-count. *)
let shares () =
  if Span.dropped () > 0 then
    failwith
      (Printf.sprintf "trace truncated: %d spans dropped" (Span.dropped ()));
  let per_cat, total = Analysis.totals (Analysis.analyze ~root_name:"request" ()) in
  let get c =
    if total = 0 then 0.
    else float_of_int (List.assoc c per_cat) /. float_of_int total
  in
  {
    ctrl = get Analysis.Ctrl;
    fabric = get Analysis.Fabric;
    queue = get Analysis.Queue;
    device = get Analysis.Device;
    client = get Analysis.Client;
    idle = get Analysis.Idle;
  }

(* The paper's measure: time in controllers and on the fabric. *)
let tax_share s = s.ctrl +. s.fabric +. s.queue
