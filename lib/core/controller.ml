open State

type t = ctrl

(* Domain-local: controller ids seed the shard map and copy ids name
   sessions, so sibling simulations must mint from their own counters. *)
let next_ctrl_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let next_copy_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let config ctrl = Net.Fabric.config ctrl.fabric
let kind ctrl = ctrl.cnode.Net.Node.kind
let node_name ctrl = ctrl.cnode.Net.Node.name

(* Observability: metrics are always on (integer arithmetic on handles
   interned once at Controller.create — see State.ctrl_metrics); spans
   only when tracing is enabled, with the attribute thunk left
   unevaluated otherwise. *)
let g_captable ctrl = ctrl.cm.cm_captable
let g_revtree ctrl = ctrl.cm.cm_revtree

let span ctrl ?(attrs = fun () -> []) name f =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~node:(node_name ctrl) ~attrs:(attrs ()) ~name f
  else f ()

(* Capability audit log (see Obs.Audit): one event per capability
   lifecycle transition, keyed by the object's global address. Off by
   default; when disabled this is one branch and the detail thunk is
   never evaluated. *)
let audit ctrl kind ?pid ?cid ?detail addr =
  if Obs.Audit.enabled () then
    Obs.Audit.record ~node:(node_name ctrl) ~kind ~ctrl:addr.a_ctrl
      ~epoch:addr.a_epoch ~oid:addr.a_oid ?pid ?cid
      ?detail:(match detail with Some f -> Some (f ()) | None -> None)
      ()

(* Flight recorder (see Obs.Journal): discrete incidents — admissions,
   sheds, credit stalls, cache invalidations, crashes — with the ambient
   trace id attached. Off by default; when disabled this is one branch
   and the detail thunk is never evaluated. *)
let journal ctrl sev kind detail =
  if Obs.Journal.enabled () then
    Obs.Journal.record_lazy ~node:(node_name ctrl) ~sev ~kind ~detail ()

(* Charge controller software cost: occupies one of the controller's two
   cores for the class-scaled duration (queueing under load is implicit). *)
let charge ctrl units =
  let d = Net.Cost.v (config ctrl) (kind ctrl) units in
  if d > 0 then Sim.Resource.use ctrl.cpu ~duration:d

let charge_scaled ctrl cls base =
  let d = Net.Cost.scaled (config ctrl) (kind ctrl) cls base in
  if d > 0 then Sim.Resource.use ctrl.cpu ~duration:d

(* ------------------------------------------------------------------ *)
(* Messaging helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Replies and raw deliveries ride the fabric outside the endpoint layer,
   so they see duplicated messages (fault injection) as repeated callback
   runs: fill ivars with [try_fill] and guard side-effecting deliveries
   with [once] so a retransmission is absorbed, as an RDMA RC QP would. *)
let once f =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      f ()
    end

let reply_to ctrl (r : _ reply) v =
  Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  charge ctrl [ (Net.Cost.Msg, 1) ];
  Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst:r.r_proc.pnode
    ~size:Wire.response (fun () -> ignore (Sim.Ivar.try_fill r.r_ivar v))

let rreply_to ctrl (rr : _ rreply) v =
  Obs.Span.instant ~node:(node_name ctrl) ~name:"ctrl.reply" ();
  charge ctrl [ (Net.Cost.Msg, 1) ];
  Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst:rr.rr_ctrl.cnode
    ~size:Wire.response (fun () -> ignore (Sim.Ivar.try_fill rr.rr_ivar v))

let send_peer ctrl (dst : ctrl) ~size msg =
  Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst.peer_ep ~size msg

let peer_of_addr ctrl addr =
  if addr.a_ctrl = ctrl.ctrl_id then Some ctrl
  else List.find_opt (fun c -> c.ctrl_id = addr.a_ctrl) ctrl.peers

let peer_of_id ctrl id =
  if id = ctrl.ctrl_id then Some ctrl
  else List.find_opt (fun c -> c.ctrl_id = id) ctrl.peers

(* ------------------------------------------------------------------ *)
(* Shard directory                                                     *)
(* ------------------------------------------------------------------ *)

let slot_of_ctrl_id (g : shard_group) id =
  let n = Array.length g.sg_slots in
  let rec go i =
    if i >= n then None
    else if g.sg_slots.(i).ctrl_id = id then Some i
    else go (i + 1)
  in
  go 0

(* Authoritative owner for addresses minted by [minting_id]: the shard
   map routes the minting slot to its first live successor. *)
let shard_owner_id (g : shard_group) minting_id =
  match slot_of_ctrl_id g minting_id with
  | None -> None
  | Some slot -> (
    let n = Array.length g.sg_slots in
    match Shard.route ~n ~live:(fun i -> g.sg_live.(i)) slot with
    | None -> None
    | Some s -> Some g.sg_slots.(s).ctrl_id)

(* Locate the controller currently owning [addr]. Without a shard group
   this is exactly the flat peer list (bit-identical to the pre-shard
   code). With one, the directory cache memoizes minting-id -> owner-id,
   stamped with the group's liveness generation and reset wholesale on a
   mismatch — the PR 4 translation-cache discipline applied to routing.
   A miss is priced controller work (one Lookup): the directory is
   consulted locally from the shared map, never over the fabric, so a
   lookup can neither be dropped nor hang. *)
let locate ctrl addr =
  match ctrl.shard with
  | None -> peer_of_addr ctrl addr
  | Some g ->
    if addr.a_ctrl = ctrl.ctrl_id then Some ctrl
    else begin
      let cfg = config ctrl in
      let cached =
        if not cfg.shard_dir_cache then None
        else begin
          if ctrl.dir_gen <> g.sg_gen then begin
            Hashtbl.reset ctrl.dir_cache;
            ctrl.dir_gen <- g.sg_gen;
            Obs.Metrics.incr ctrl.cm.cm_dir_invalidations
          end;
          Hashtbl.find_opt ctrl.dir_cache addr.a_ctrl
        end
      in
      match cached with
      | Some owner_id ->
        Obs.Metrics.incr ctrl.cm.cm_dir_hits;
        if Obs.Span.enabled () then
          Obs.Span.set_attr (Obs.Span.current ()) "dir" "hit";
        peer_of_id ctrl owner_id
      | None -> (
        Obs.Metrics.incr ctrl.cm.cm_dir_misses;
        charge ctrl [ (Net.Cost.Lookup, 1) ];
        if Obs.Span.enabled () then
          Obs.Span.set_attr (Obs.Span.current ()) "dir" "miss";
        match slot_of_ctrl_id g addr.a_ctrl with
        | None ->
          (* minted outside the group: flat routing *)
          peer_of_addr ctrl addr
        | Some slot -> (
          let n = Array.length g.sg_slots in
          match Shard.route ~n ~live:(fun i -> g.sg_live.(i)) slot with
          | None -> None (* every slot down *)
          | Some s ->
            let owner_id = g.sg_slots.(s).ctrl_id in
            if owner_id <> addr.a_ctrl then
              Obs.Metrics.incr ctrl.cm.cm_shard_reroutes;
            if cfg.shard_dir_cache then begin
              if Hashtbl.length ctrl.dir_cache >= cfg.dir_cache_cap then
                Hashtbl.reset ctrl.dir_cache;
              Hashtbl.replace ctrl.dir_cache addr.a_ctrl owner_id
            end;
            peer_of_id ctrl owner_id))
    end

(* Run a peer operation at the owner of [addr]: locally when we are the
   owner, otherwise by sending [make_msg] and awaiting the remote reply.
   [serialize] charges the wire-marshaling cost class on the sending side.
   When shard failover routes a dead minter's address to us (we are its
   live successor), the operation runs locally and the object table
   answers the foreign address with typed [Stale] — the owner-side
   metadata handoff surfaces as staleness, exactly like a reboot. *)
let at_owner ctrl addr ~size ~local ~make_msg =
  if addr.a_ctrl = ctrl.ctrl_id then local ()
  else
    match locate ctrl addr with
    | None -> Error Error.Ctrl_unreachable
    | Some owner when owner == ctrl -> local ()
    | Some peer ->
      charge ctrl [ (Net.Cost.Serialize, 1) ];
      let iv = Sim.Ivar.create () in
      send_peer ctrl peer ~size (make_msg { rr_ivar = iv; rr_ctrl = ctrl });
      Sim.Ivar.await iv

(* ------------------------------------------------------------------ *)
(* Capability spaces                                                   *)
(* ------------------------------------------------------------------ *)

let space_of ctrl (proc : proc) =
  match Hashtbl.find_opt ctrl.capspaces proc.pid with
  | Some s -> Ok s
  | None -> Error (Error.Bad_argument "process not attached to controller")

(* Insert a capability, enforcing the per-Process quota and — under the
   track_delegations ablation — notifying the remote owner's reference
   count (on the critical path: exactly the cost the paper's design
   avoids). [op] records how the capability came to exist (Mint for a
   freshly created object, Delegate for delegation-on-invoke / grant) in
   the audit log. *)
let insert_cap ?audit_detail ctrl space addr ~counts ~op =
  let cfg = config ctrl in
  if Hashtbl.length space.cs_caps >= cfg.capspace_quota then
    Error Error.Quota_exceeded
  else begin
    let cid = space.cs_next in
    space.cs_next <- cid + 1;
    Hashtbl.replace space.cs_caps cid
      {
        e_addr = addr;
        e_delegator = false;
        e_counts = counts;
        e_born = Sim.Engine.now ();
      };
    Obs.Metrics.add (g_captable ctrl) 1;
    audit ctrl op ~pid:space.cs_proc.pid ~cid ?detail:audit_detail addr;
    if cfg.track_delegations then
      if addr.a_ctrl = ctrl.ctrl_id then (
        match Hashtbl.find_opt ctrl.objects addr.a_oid with
        | Some obj -> obj.o_remote_refs <- obj.o_remote_refs + 1
        | None -> ())
      else (
        match peer_of_addr ctrl addr with
        | Some peer ->
          (* reliable tracking: wait for the owner's acknowledgment — the
             critical-path cost the paper's design avoids. The wait is
             bounded: if the ack never arrives (owner crashed
             mid-delegation, partition, message loss) the insertion
             proceeds best-effort rather than blocking the delegation
             forever; the owner's count may briefly overshoot, which only
             delays a tombstone until its next reboot. *)
          let iv = Sim.Ivar.create () in
          send_peer ctrl peer ~size:Wire.credit
            (P_ref_inc { addr; reply = { rr_ivar = iv; rr_ctrl = ctrl } });
          let timeout = cfg.peer_ack_timeout in
          if timeout <= 0 then ignore (Sim.Ivar.await iv)
          else (
            match Sim.Ivar.await_timeout iv ~timeout with
            | Some _ -> ()
            | None ->
              Obs.Metrics.incr ctrl.cm.cm_ref_inc_timeouts;
              journal ctrl Obs.Journal.Warn "ctrl.ref_inc_timeout" (fun () ->
                  Printf.sprintf "peer=%d" addr.a_ctrl);
              Logs.debug (fun m ->
                  m "ref_inc ack from ctrl %d timed out; continuing"
                    addr.a_ctrl))
        | None -> ());
    Ok cid
  end

let resolve_cid ctrl proc cid =
  match space_of ctrl proc with
  | Error _ as e -> e
  | Ok space -> (
    match Hashtbl.find_opt space.cs_caps cid with
    | Some entry -> Ok entry
    | None -> Error Error.Invalid_cap)

(* Translation fast path (Config.translation_cache): memoize cid -> entry
   per capability space, stamped with the controller's capability
   generation. Every entry removal (revoke, cleanup, process death) and
   every reboot bumps the generation, invalidating all memos wholesale —
   coarse, but it keeps invalidation off the revocation fast path and
   makes a stale cached grant impossible by construction. Entries are
   never replaced in place (cids are minted monotonically), so a valid
   memo always aliases the live entry record. The object table's
   epoch/validity checks still run on every use downstream, so a cached
   translation can never outlive the object or epoch it names.

   [charged_resolve ctrl proc ~base cids] charges [base] plus one Lookup
   per cid and resolves the cids in order. With the memo off this is a
   single combined charge (identical to the pre-cache cost model); with
   it on, memo hits skip their Lookup charge — the class with the largest
   SmartNIC multiplier, which is exactly where the paper's wimpy-core
   controllers hurt. *)
let memo_invalidate ctrl =
  ctrl.cap_gen <- ctrl.cap_gen + 1;
  journal ctrl Obs.Journal.Debug "ctrl.tcache_invalidate" (fun () ->
      Printf.sprintf "gen=%d" ctrl.cap_gen)

let resolve_cid_memo ctrl proc cid =
  match space_of ctrl proc with
  | Error _ as e -> (e, false)
  | Ok space ->
    if space.cs_memo_gen <> ctrl.cap_gen then begin
      Hashtbl.reset space.cs_memo;
      space.cs_memo_gen <- ctrl.cap_gen
    end;
    (match Hashtbl.find_opt space.cs_memo cid with
    | Some entry ->
      Obs.Metrics.incr ctrl.cm.cm_tcache_hits;
      (Ok entry, true)
    | None ->
      Obs.Metrics.incr ctrl.cm.cm_tcache_misses;
      (match Hashtbl.find_opt space.cs_caps cid with
      | Some entry ->
        Hashtbl.replace space.cs_memo cid entry;
        (Ok entry, false)
      | None -> (Error Error.Invalid_cap, false)))

let charged_resolve ctrl proc ~base cids =
  if not (config ctrl).translation_cache then begin
    charge ctrl (base @ [ (Net.Cost.Lookup, List.length cids) ]);
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | cid :: rest -> (
        match resolve_cid ctrl proc cid with
        | Error _ as e -> e
        | Ok entry -> go (entry :: acc) rest)
    in
    go [] cids
  end
  else begin
    let misses = ref 0 in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | cid :: rest -> (
        match resolve_cid_memo ctrl proc cid with
        | (Error _ as e), _ ->
          (* a failed translation still walked the table *)
          incr misses;
          e
        | Ok entry, hit ->
          if not hit then incr misses;
          go (entry :: acc) rest)
    in
    let resolved = go [] cids in
    charge ctrl (base @ [ (Net.Cost.Lookup, !misses) ]);
    resolved
  end

let charged_resolve1 ctrl proc ~base cid =
  match charged_resolve ctrl proc ~base [ cid ] with
  | Error _ as e -> e
  | Ok [ entry ] -> Ok entry
  | Ok _ -> assert false

let charged_resolve2 ctrl proc ~base a b =
  match charged_resolve ctrl proc ~base [ a; b ] with
  | Error _ as e -> e
  | Ok [ ea; eb ] -> Ok (ea, eb)
  | Ok _ -> assert false

(* Resolve a list of capability arguments to (addr, monitored) pairs, where
   monitored records whether the argument came from a monitor_delegator
   capability (its delegation must be counted, §3.6). *)
let resolve_cap_args ctrl proc cids =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | cid :: rest -> (
      match resolve_cid ctrl proc cid with
      | Error e -> Error e
      | Ok entry -> go ((entry.e_addr, entry.e_delegator) :: acc) rest)
  in
  go [] cids

(* ------------------------------------------------------------------ *)
(* Monitor plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let post_monitor_event ctrl (watcher : proc) ev =
  charge ctrl [ (Net.Cost.Msg, 1) ];
  Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst:watcher.pnode
    ~size:Wire.monitor_cb
    (once (fun () ->
         if watcher.alive then Sim.Channel.send watcher.monitor_box ev))

(* Fire-and-forget counter update at the owner of a monitored delegator
   object. *)
let send_counter ctrl addr msg_of_addr =
  (* Even self-directed updates travel the loopback queue pair, so the
     accounting is uniform across placements. *)
  match peer_of_addr ctrl addr with
  | None -> ()
  | Some peer -> send_peer ctrl peer ~size:Wire.credit (msg_of_addr addr)

let apply_increment ctrl addr =
  match Objects.find ctrl addr with
  | Error _ -> ()
  | Ok obj -> (
    match obj.o_mon_delegator with
    | Some md -> md.md_outstanding <- md.md_outstanding + 1
    | None -> ())

let apply_decrement ctrl addr =
  match Hashtbl.find_opt ctrl.objects addr.a_oid with
  | None -> ()
  | Some obj when addr.a_epoch <> ctrl.epoch -> ignore obj
  | Some obj -> (
    match obj.o_mon_delegator with
    | Some md ->
      md.md_outstanding <- md.md_outstanding - 1;
      if md.md_outstanding = 0 && md.md_watcher.alive then
        post_monitor_event ctrl md.md_watcher (Delegate_cb md.md_cb)
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Entry removal (revocation / cleanup / death all funnel here)        *)
(* ------------------------------------------------------------------ *)

let drop_entry ctrl space cid (entry : entry) =
  Hashtbl.remove space.cs_caps cid;
  (* any removal invalidates every translation memo (epoch-style bump) *)
  memo_invalidate ctrl;
  Obs.Metrics.add (g_captable ctrl) (-1);
  audit ctrl Obs.Audit.Drop ~pid:space.cs_proc.pid ~cid
    ~detail:(fun () ->
      Printf.sprintf "age=%s"
        (Sim.Time.to_string (Sim.Engine.now () - entry.e_born)))
    entry.e_addr;
  if (config ctrl).track_delegations then begin
    let addr = entry.e_addr in
    if addr.a_ctrl = ctrl.ctrl_id then (
      match Hashtbl.find_opt ctrl.objects addr.a_oid with
      | Some obj ->
        obj.o_remote_refs <- obj.o_remote_refs - 1;
        if (not obj.o_valid) && obj.o_remote_refs <= 0 then
          Objects.remove ctrl addr.a_oid
      | None -> ())
    else
      match peer_of_addr ctrl addr with
      | Some peer -> send_peer ctrl peer ~size:Wire.credit (P_ref_dec { addr })
      | None -> ()
  end;
  match entry.e_counts with
  | Some a -> send_counter ctrl a (fun addr -> P_decrement { addr })
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Revocation at the owner                                             *)
(* ------------------------------------------------------------------ *)

(* Remove local capability entries referencing [addr]; part of the cleanup
   step (the owner also cleans itself). *)
let cleanup_local ctrl addr =
  Hashtbl.iter
    (fun _pid space ->
      let doomed =
        Hashtbl.fold
          (fun cid entry acc ->
            if addr_equal entry.e_addr addr then (cid, entry) :: acc else acc)
          space.cs_caps []
      in
      List.iter (fun (cid, entry) -> drop_entry ctrl space cid entry) doomed)
    ctrl.capspaces

(* Broadcast-based cleanup (§3.5: outside the critical path): ask every
   peer to drop capabilities referencing the invalidated objects, then
   delete the tombstones. *)
let cleanup_broadcast ctrl addrs =
  Sim.Engine.spawn (fun () ->
      List.iter (fun addr -> cleanup_local ctrl addr) addrs;
      let acks =
        List.concat_map
          (fun peer ->
            List.map
              (fun addr ->
                let iv = Sim.Ivar.create () in
                charge ctrl [ (Net.Cost.Msg, 1) ];
                send_peer ctrl peer ~size:Wire.peer_fixed
                  (P_cleanup { addr; reply = { rr_ivar = iv; rr_ctrl = ctrl } });
                iv)
              addrs)
          ctrl.peers
      in
      List.iter (fun iv -> ignore (Sim.Ivar.await iv)) acks;
      List.iter (fun addr -> Objects.remove ctrl addr.a_oid) addrs)

(* Invalidate an object subtree at this controller (we are the owner):
   immediate revocation, monitor_receive callbacks, then async cleanup. *)
let invalidate_at_owner ctrl obj =
  let invalidated = Objects.invalidate ctrl obj in
  charge ctrl [ (Net.Cost.Revoke, List.length invalidated) ];
  (* one Revoke event per invalidated object, subtree root first (the
     order Objects.invalidate walks the revocation tree) *)
  List.iter
    (fun o ->
      audit ctrl Obs.Audit.Revoke
        ~detail:(fun () -> Printf.sprintf "subtree_root=%d" obj.o_id)
        { a_ctrl = ctrl.ctrl_id; a_epoch = ctrl.epoch; a_oid = o.o_id })
    invalidated;
  List.iter
    (fun o ->
      List.iter
        (fun (watcher, cb) ->
          if watcher.alive then post_monitor_event ctrl watcher (Receive_cb cb))
        o.o_mon_receivers)
    invalidated;
  let addrs =
    List.map
      (fun o -> { a_ctrl = ctrl.ctrl_id; a_epoch = ctrl.epoch; a_oid = o.o_id })
      invalidated
  in
  if (config ctrl).track_delegations then
    (* reference-counted cleanup (ablation): no broadcast — tombstones die
       when their remote reference count drains; unreferenced ones now *)
    List.iter
      (fun o -> if o.o_remote_refs <= 0 then Objects.remove ctrl o.o_id)
      invalidated
  else if addrs <> [] then cleanup_broadcast ctrl addrs

let do_revoke ctrl addr =
  charge ctrl [ (Net.Cost.Lookup, 1) ];
  match Objects.find ctrl addr with
  | Error e -> Error e
  | Ok obj ->
    invalidate_at_owner ctrl obj;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Memory diminish / revtree at the owner                              *)
(* ------------------------------------------------------------------ *)

let do_diminish ctrl addr ~off ~len ~drop =
  charge ctrl [ (Net.Cost.Lookup, 2) ];
  match Objects.find ctrl addr with
  | Error e -> Error e
  | Ok obj -> (
    match Objects.resolve_payload ctrl obj with
    | Error e -> Error e
    | Ok (payload, _hops) -> (
      match payload.o_kind with
      | O_memory m ->
        if off < 0 || len < 0 || off + len > m.m_len then Error Error.Bounds
        else begin
          let child_mem =
            {
              m_buf = m.m_buf;
              m_off = m.m_off + off;
              m_len = len;
              m_perms = Perms.drop m.m_perms ~drop;
              m_owner = m.m_owner;
            }
          in
          Ok (Objects.add_memory ctrl ~parent:obj child_mem)
        end
      | O_request _ | O_indirect ->
        Error (Error.Bad_argument "memory_diminish on a non-Memory object")))

let do_revtree ctrl addr =
  charge ctrl [ (Net.Cost.Lookup, 1) ];
  match Objects.find ctrl addr with
  | Error e -> Error e
  | Ok obj -> Ok (Objects.add_indirect ctrl ~parent:obj)

(* ------------------------------------------------------------------ *)
(* Request invocation chain                                            *)
(* ------------------------------------------------------------------ *)

let rreply_opt ctrl rr v =
  match rr with
  | Some rr -> rreply_to ctrl rr v
  | None -> (
    match v with
    | Ok () -> ()
    | Error e ->
      (* already acknowledged: chain-tail failures are the application's
         business (error continuations); we only log them *)
      Logs.debug (fun m ->
          m "invoke chain failed past the ack point: %s" (Error.to_string e)))

(* Deliver a fully materialized request to its provider process, delegating
   capability arguments into the provider's space. *)
let deliver ctrl (r : req) imms caps rr =
  span ctrl
    ~attrs:(fun () ->
      [ ("tag", r.r_tag); ("caps", string_of_int (List.length caps)) ])
    "ctrl.deliver"
  @@ fun () ->
  let provider = r.r_provider in
  if not provider.alive then rreply_opt ctrl rr (Error Error.Provider_dead)
  else
    match space_of ctrl provider with
    | Error e -> rreply_opt ctrl rr (Error e)
    | Ok space ->
      charge ctrl [ (Net.Cost.Cap_transfer, List.length caps) ];
      let delegated =
        span ctrl "ctrl.delegate" @@ fun () ->
        List.fold_left
          (fun acc (addr, monitored) ->
            match acc with
            | Error _ as e -> e
            | Ok cids -> (
              let counts = if monitored then Some addr else None in
              match
                insert_cap ctrl space addr ~counts ~op:Obs.Audit.Delegate
                  ~audit_detail:(fun () -> "invoke tag=" ^ r.r_tag)
              with
              | Error _ as e -> e
              | Ok cid ->
                if monitored then
                  send_counter ctrl addr (fun addr -> P_increment { addr });
                Ok (cid :: cids)))
          (Ok []) caps
      in
      match delegated with
      | Error e -> rreply_opt ctrl rr (Error e)
      | Ok rev_cids ->
      let cids = List.rev rev_cids in
      match Hashtbl.find_opt ctrl.windows provider.pid with
      | None ->
        (* the controller restarted while this invoke was in flight: the
           window table was reset, so this epoch no longer knows the
           provider — surface it as a dead provider, don't crash *)
        rreply_opt ctrl rr (Error Error.Provider_dead)
      | Some window ->
        Sim.Semaphore.acquire window;
        Obs.Metrics.incr ctrl.cm.cm_delivered;
        let size = Wire.invoke ~imms ~caps:(List.length caps) in
        Net.Fabric.send ctrl.fabric ~src:ctrl.cnode ~dst:provider.pnode ~size
          (once (fun () ->
               if provider.alive then
                 Sim.Channel.send provider.inbox
                   { d_tag = r.r_tag; d_imms = imms; d_caps = cids }));
        rreply_opt ctrl rr (Ok ())

(* Process one hop of an invocation: [addr] names a Request object at this
   controller; [suffix] holds the arguments accumulated from more-derived
   Requests. Either deliver (root) or forward toward the parent. The
   caller's posting acknowledgment is sent by the first owner that
   validates the invocation; forwarded hops carry no reply path. *)
let rec do_invoke ctrl addr suffix_imms suffix_caps rr =
  span ctrl
    ~attrs:(fun () -> [ ("oid", string_of_int addr.a_oid) ])
    "ctrl.invoke"
  @@ fun () ->
  audit ctrl Obs.Audit.Invoke addr;
  charge ctrl [ (Net.Cost.Lookup, 1) ];
  match Objects.find ctrl addr with
  | Error e -> rreply_opt ctrl rr (Error e)
  | Ok obj -> (
    match Objects.resolve_payload ctrl obj with
    | Error e -> rreply_opt ctrl rr (Error e)
    | Ok (payload, hops) -> (
      charge ctrl [ (Net.Cost.Lookup, hops) ];
      match payload.o_kind with
      | O_request r -> (
        let imms = r.r_imms @ suffix_imms in
        let caps = r.r_caps @ suffix_caps in
        match r.r_parent with
        | None -> deliver ctrl r imms caps rr
        | Some parent_addr -> (
          let next =
            if parent_addr.a_ctrl = ctrl.ctrl_id then Some ctrl
            else locate ctrl parent_addr
          in
          match next with
          | None -> rreply_opt ctrl rr (Error Error.Ctrl_unreachable)
          | Some owner when owner == ctrl ->
            (* self, or we are the failover successor of the parent's
               dead minter: continue the chain here. The recursion is
               bounded — a foreign parent address fails typed-Stale in
               the recursive call's own lookup. *)
            do_invoke ctrl parent_addr imms caps rr
          | Some peer ->
            charge ctrl [ (Net.Cost.Serialize, 1) ];
            (* acknowledge the posting before forwarding: the local part
               of the chain validated *)
            rreply_opt ctrl rr (Ok ());
            let size = Wire.invoke ~imms ~caps:(List.length caps) in
            send_peer ctrl peer ~size
              (P_invoke
                 {
                   addr = parent_addr;
                   suffix_imms = imms;
                   suffix_caps = caps;
                   reply = None;
                 })))
      | O_memory _ | O_indirect ->
        rreply_opt ctrl rr
          (Error (Error.Bad_argument "request_invoke on a non-Request object"))))

(* ------------------------------------------------------------------ *)
(* memory_copy engine                                                  *)
(* ------------------------------------------------------------------ *)

let chunk_sizes total chunk =
  (* [Config.validate] rejects non-positive bounce_chunk at fabric
     construction; this guard is defense in depth against a hand-built
     config reaching the engine (the recursion below would never
     terminate). *)
  if chunk <= 0 then invalid_arg "memory_copy: non-positive bounce_chunk";
  let rec go off acc =
    if off >= total then List.rev acc
    else
      let n = min chunk (total - off) in
      go (off + n) ((off, n) :: acc)
  in
  if total = 0 then [ (0, 0) ] else go 0 []

(* Knob defaults (window = streams = 1) select the serial engine below,
   byte- and cost-identical to the pre-windowing code path; anything else
   selects the pipelined engine. *)
let pipelined (cfg : Net.Config.t) = cfg.copy_window > 1 || cfg.copy_streams > 1

(* Grant [credits] flow-control credits for [copy_id] back to the source
   controller (pipelined engine only; the serial source never waits). *)
let grant_credit ctrl ~src_ctrl ~copy_id ~credits =
  match peer_of_id ctrl src_ctrl with
  | Some src ->
    send_peer ctrl src ~size:Wire.credit (P_copy_credit { copy_id; credits })
  | None -> ()

(* Orphan reclamation. A dropped [P_copy_open] (fault injection) leaves its
   session's chunks parked in [copy_pending] — and a dropped final chunk
   leaves an open-time failure parked in [copy_failures] — forever. Sweep
   the entry after [copy_open_timeout]: a reclaimed final chunk replies
   [Timeout] so the caller's retry path gets a typed completion, and parked
   pipelined chunks refund their flow-control credits so the source's
   stream fibers unblock. In fault-free runs the open (or final chunk)
   always lands first and the sweep is a no-op. *)
let schedule_pending_sweep ctrl copy_id q =
  let timeout = (config ctrl).Net.Config.copy_open_timeout in
  if timeout > 0 then
    Sim.Engine.schedule timeout (fun () ->
        match Hashtbl.find_opt ctrl.copy_pending copy_id with
        | Some q' when q' == q ->
          Hashtbl.remove ctrl.copy_pending copy_id;
          Obs.Metrics.incr ctrl.cm.cm_copy_orphans;
          journal ctrl Obs.Journal.Warn "ctrl.copy_orphan" (fun () ->
              Printf.sprintf "copy=%d pending" copy_id);
          (* scheduled events run outside any fiber: the refunds and the
             Timeout reply charge cpu time, so hop into a fresh fiber *)
          Sim.Engine.spawn (fun () ->
              Queue.iter
                (fun (src_ctrl, ck) ->
                  if pipelined (config ctrl) then
                    grant_credit ctrl ~src_ctrl ~copy_id ~credits:1;
                  match ck.ck_last with
                  | Some rr -> rreply_to ctrl rr (Error Error.Timeout)
                  | None -> ())
                q')
        | Some _ | None -> ())

let schedule_failure_sweep ctrl copy_id =
  let timeout = (config ctrl).Net.Config.copy_open_timeout in
  if timeout > 0 then
    Sim.Engine.schedule timeout (fun () ->
        if Hashtbl.mem ctrl.copy_failures copy_id then begin
          Hashtbl.remove ctrl.copy_failures copy_id;
          Obs.Metrics.incr ctrl.cm.cm_copy_orphans;
          journal ctrl Obs.Journal.Warn "ctrl.copy_orphan" (fun () ->
              Printf.sprintf "copy=%d failure" copy_id)
        end)

(* Destination side: one writer fiber per copy session, consuming in-order
   chunks, staging them through the bounce buffer and RDMA-writing into the
   destination process's memory. The writer counts delivered bytes: if the
   final chunk lands with incomplete coverage (a middle chunk was dropped
   by fault injection — the endpoint layer already absorbs duplicates), it
   must answer with a typed error, not ack a silent hole. Fault-free
   sessions always cover [total] exactly. *)
let start_copy_session ctrl ~copy_id ~total ~dst_mem =
  let chan = Sim.Channel.create () in
  Hashtbl.replace ctrl.copy_sessions copy_id chan;
  Sim.Engine.spawn (fun () ->
      let cfg = config ctrl in
      let received = ref 0 in
      let rec loop () =
        let ck = Sim.Channel.recv chan in
        let len = Bytes.length ck.ck_data in
        received := !received + len;
        (span ctrl
           ~attrs:(fun () ->
             [ ("off", string_of_int ck.ck_off); ("len", string_of_int len) ])
           "ctrl.copy.write"
        @@ fun () ->
        (* staging memcpy through the bounce buffer *)
        if len > 0 then
          Sim.Resource.use ctrl.cpu
            ~duration:
              (Net.Config.scale_time cfg.scale_ctrl
                 (Net.Config.bytes_time ~bw_bps:cfg.memcpy_bw_bps len));
        if len > 0 then
          Membuf.write dst_mem.m_buf ~off:(dst_mem.m_off + ck.ck_off) ck.ck_data;
        (* RDMA write from the bounce buffer into process memory *)
        if len > 0 then
          Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode
            ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len ());
        match ck.ck_last with
        | Some rr ->
          Hashtbl.remove ctrl.copy_sessions copy_id;
          rreply_to ctrl rr
            (if !received >= total then Ok () else Error Error.Timeout)
        | None -> loop ()
      in
      loop ())

(* Pipelined destination writer (copy_window > 1 or copy_streams > 1).
   Chunks may arrive out of order — multiple source streams, fault-injected
   delays — so the writer keeps a reorder set of staged offsets and writes
   each fresh chunk at its own offset as it lands (destination-side
   coalescing); duplicates are absorbed. One flow-control credit goes back
   to the source per drained bounce-buffer slot. Staging is charged to the
   controller's copy engine, not its syscall cores, so a bulk copy does not
   head-of-line-block unrelated traffic. Completion needs full byte
   coverage, the final-chunk marker, and every RDMA write-out landed. *)
let start_copy_session_pipelined ctrl ~copy_id ~src_ctrl ~total ~dst_mem =
  let chan = Sim.Channel.create () in
  Hashtbl.replace ctrl.copy_sessions copy_id chan;
  Sim.Engine.spawn (fun () ->
      let cfg = config ctrl in
      let seen = Hashtbl.create 16 in
      let received = ref 0 in
      let outstanding = ref 0 in
      let rr_slot = ref None in
      let last_seen = ref false in
      let replied = ref false in
      let grant () = grant_credit ctrl ~src_ctrl ~copy_id ~credits:1 in
      let maybe_finish () =
        if
          !last_seen && (not !replied) && !received >= total
          && !outstanding = 0
        then begin
          replied := true;
          Hashtbl.remove ctrl.copy_sessions copy_id;
          match !rr_slot with
          | Some rr -> rreply_to ctrl rr (Ok ())
          | None -> ()
        end
      in
      let write_out ck len =
        span ctrl
          ~attrs:(fun () ->
            [ ("off", string_of_int ck.ck_off); ("len", string_of_int len) ])
          "ctrl.copy.write"
        @@ fun () ->
        if len > 0 then begin
          Sim.Resource.use ctrl.copy_engine
            ~duration:
              (Net.Config.scale_time cfg.scale_ctrl
                 (Net.Config.bytes_time ~bw_bps:cfg.memcpy_bw_bps len));
          Membuf.write dst_mem.m_buf ~off:(dst_mem.m_off + ck.ck_off)
            ck.ck_data;
          (* asynchronous RDMA write out of the bounce buffer; the slot's
             credit is granted when the write-out completes *)
          incr outstanding;
          Net.Fabric.send ctrl.fabric ~src:ctrl.cnode
            ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:len
            (once (fun () ->
                 (* completion callbacks run outside any fiber; granting the
                    credit sends a peer message, so hop into a fresh fiber *)
                 Sim.Engine.spawn (fun () ->
                     decr outstanding;
                     grant ();
                     maybe_finish ())))
        end
        else grant ()
      in
      let rec loop () =
        let ck = Sim.Channel.recv chan in
        let len = Bytes.length ck.ck_data in
        if Hashtbl.mem seen ck.ck_off then
          (* duplicate delivery: its slot was already drained *)
          grant ()
        else begin
          Hashtbl.replace seen ck.ck_off ();
          received := !received + len;
          write_out ck len
        end;
        (match ck.ck_last with
        | Some rr ->
          last_seen := true;
          (match !rr_slot with None -> rr_slot := Some rr | Some _ -> ())
        | None -> ());
        maybe_finish ();
        if not (!last_seen && !received >= total) then loop ()
      in
      loop ())

(* Validate and open a copy session on the first (optimistic) chunk. On
   failure the error is parked until the final chunk's reply path. *)
let do_copy_open ctrl ~copy_id ~src_ctrl ~dst ~total =
  charge ctrl [ (Net.Cost.Lookup, 2) ];
  let validated =
    match Objects.find ctrl dst with
    | Error e -> Error e
    | Ok obj -> (
      match Objects.resolve_payload ctrl obj with
      | Error e -> Error e
      | Ok (payload, _) -> (
        match payload.o_kind with
        | O_memory m ->
          if not m.m_perms.Perms.write then Error Error.Perm_denied
          else if total > m.m_len then Error Error.Bounds
          else if not m.m_owner.alive then Error Error.Provider_dead
          else Ok m
        | O_request _ | O_indirect ->
          Error (Error.Bad_argument "memory_copy destination is not Memory")))
  in
  match validated with
  | Ok m ->
    if pipelined (config ctrl) then
      start_copy_session_pipelined ctrl ~copy_id ~src_ctrl ~total ~dst_mem:m
    else start_copy_session ctrl ~copy_id ~total ~dst_mem:m;
    Ok ()
  | Error e ->
    Hashtbl.replace ctrl.copy_failures copy_id e;
    schedule_failure_sweep ctrl copy_id;
    Error e

(* Source side (we own the source object): validate, open the session at
   the destination owner, then stream chunks. With double buffering the
   next chunk is read while the previous one is on the wire; without it we
   run chunks strictly in series (ablation). The final chunk carries the
   original caller's ack, so completion is signaled by the destination
   controller directly to the origin (paper's decentralized data path). *)
(* Serial chunk loop: the pre-windowing engine, kept verbatim as the
   default path (bit-for-bit with copy_window = copy_streams = 1). *)
let do_copy_chunks_serial ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id
    (rr : unit rreply) =
  let cfg = config ctrl in
  let chunks = chunk_sizes m.m_len cfg.bounce_chunk in
  let n = List.length chunks in
  List.iteri
    (fun i (off, len) ->
      span ctrl
        ~attrs:(fun () ->
          [ ("off", string_of_int off); ("len", string_of_int len) ])
        "ctrl.copy.chunk"
      @@ fun () ->
      (* RDMA read from source process memory into the bounce
         buffer *)
      if len > 0 then
        Net.Fabric.transfer ctrl.fabric ~src:m.m_buf.Membuf.node
          ~dst:ctrl.cnode ~cls:Net.Stats.Data ~size:len ();
      if len > 0 then
        Sim.Resource.use ctrl.cpu
          ~duration:
              (Net.Config.scale_time cfg.scale_ctrl
                 (Net.Config.bytes_time ~bw_bps:cfg.memcpy_bw_bps len));
      let data =
        if len = 0 then Bytes.empty
        else Membuf.read m.m_buf ~off:(m.m_off + off) ~len
      in
      let last = i = n - 1 in
      let ck =
        {
          ck_off = off;
          ck_data = data;
          ck_last = (if last then Some rr else None);
        }
      in
      let size = len + Wire.chunk_header in
      let msg =
        if i = 0 then
          (* the first chunk opens the session optimistically *)
          P_copy_open
            {
              copy_id;
              src_ctrl = ctrl.ctrl_id;
              dst;
              total = m.m_len;
              chunk = ck;
            }
        else P_copy_chunk { copy_id; src_ctrl = ctrl.ctrl_id; chunk = ck }
      in
      Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst_ctrl.peer_ep
        ~cls:Net.Stats.Data ~size msg;
      Obs.Metrics.incr ~by:len ctrl.cm.cm_copy_bytes;
      if not cfg.double_buffering then
        (* strict serial chunks: wait out the wire time before
           reading the next chunk *)
        Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode ~dst:dst_ctrl.cnode
          ~cls:Net.Stats.Control ~size:1 ())
    chunks

(* Pipelined source (copy_window > 1 or copy_streams > 1): chunks fan out
   round-robin over [copy_streams] stream fibers (modeling multi-QP RDMA),
   each chunk waiting for a flow-control credit before its RDMA read, so at
   most [copy_window] uncredited chunks are in flight. Staging memcpys are
   charged to the copy engine, keeping the syscall cores free for unrelated
   traffic. The chunk at index 0 carries the session open and is posted
   before the streams start, so the destination cannot see data from this
   controller ahead of the session parameters. *)
let do_copy_chunks_pipelined ctrl ~dst ~dst_ctrl ~(m : mem) ~copy_id
    (rr : unit rreply) =
  let cfg = config ctrl in
  let chunks = Array.of_list (chunk_sizes m.m_len cfg.bounce_chunk) in
  let n = Array.length chunks in
  let window = cfg.copy_window in
  let streams = min cfg.copy_streams n in
  let credits = Sim.Semaphore.create window in
  Hashtbl.replace ctrl.copy_credits copy_id credits;
  let max_inflight = ref 0 in
  let send_chunk i =
    let off, len = chunks.(i) in
    span ctrl
      ~attrs:(fun () ->
        [ ("off", string_of_int off); ("len", string_of_int len) ])
      "ctrl.copy.chunk"
    @@ fun () ->
    if Sim.Semaphore.available credits = 0 then
      journal ctrl Obs.Journal.Debug "ctrl.copy.credit_stall" (fun () ->
          Printf.sprintf "copy=%d chunk=%d" copy_id i);
    Sim.Semaphore.acquire credits;
    let inflight = window - Sim.Semaphore.available credits in
    if inflight > !max_inflight then max_inflight := inflight;
    Obs.Metrics.add ctrl.cm.cm_copy_inflight 1;
    if len > 0 then begin
      (* RDMA read from source process memory into the bounce buffer *)
      Net.Fabric.transfer ctrl.fabric ~src:m.m_buf.Membuf.node ~dst:ctrl.cnode
        ~cls:Net.Stats.Data ~size:len ();
      Sim.Resource.use ctrl.copy_engine
        ~duration:
              (Net.Config.scale_time cfg.scale_ctrl
                 (Net.Config.bytes_time ~bw_bps:cfg.memcpy_bw_bps len))
    end;
    let data =
      if len = 0 then Bytes.empty
      else Membuf.read m.m_buf ~off:(m.m_off + off) ~len
    in
    let last = i = n - 1 in
    let ck =
      { ck_off = off; ck_data = data; ck_last = (if last then Some rr else None) }
    in
    let size = len + Wire.chunk_header in
    let msg =
      if i = 0 then
        P_copy_open
          { copy_id; src_ctrl = ctrl.ctrl_id; dst; total = m.m_len; chunk = ck }
      else P_copy_chunk { copy_id; src_ctrl = ctrl.ctrl_id; chunk = ck }
    in
    Net.Endpoint.post ctrl.fabric ~src:ctrl.cnode dst_ctrl.peer_ep
      ~cls:Net.Stats.Data ~size msg;
    Obs.Metrics.incr ~by:len ctrl.cm.cm_copy_bytes
  in
  send_chunk 0;
  if n > 1 then begin
    let wg = Sim.Waitgroup.create () in
    for s = 0 to streams - 1 do
      Sim.Waitgroup.spawn wg (fun () ->
          span ctrl
            ~attrs:(fun () -> [ ("stream", string_of_int s) ])
            "ctrl.copy.stream"
          @@ fun () ->
          let i = ref (1 + s) in
          while !i < n do
            send_chunk !i;
            i := !i + streams
          done)
    done;
    Sim.Waitgroup.wait wg
  end;
  (* all chunks posted: retire the window. Credits still in flight find no
     session and are dropped; the inflight gauge gives back exactly the
     permits this session still holds. *)
  Hashtbl.remove ctrl.copy_credits copy_id;
  Obs.Metrics.add ctrl.cm.cm_copy_inflight
    (Sim.Semaphore.available credits - window);
  Obs.Span.set_attr (Obs.Span.current ()) "max_inflight"
    (string_of_int !max_inflight)

let do_copy_pull ctrl ~src ~dst (rr : unit rreply) =
  let pcfg = config ctrl in
  span ctrl
    ~attrs:(fun () ->
      let base = [ ("src_oid", string_of_int src.a_oid) ] in
      if pipelined pcfg then
        base
        @ [
            ("window", string_of_int pcfg.copy_window);
            ("streams", string_of_int pcfg.copy_streams);
          ]
      else base)
    "ctrl.copy"
  @@ fun () ->
  let cfg = config ctrl in
  charge_scaled ctrl Net.Cost.Serialize cfg.copy_setup;
  charge ctrl [ (Net.Cost.Lookup, 2) ];
  match Objects.find ctrl src with
  | Error e -> rreply_to ctrl rr (Error e)
  | Ok obj -> (
    match Objects.resolve_payload ctrl obj with
    | Error e -> rreply_to ctrl rr (Error e)
    | Ok (payload, _) -> (
      match payload.o_kind with
      | O_memory m -> (
        if not m.m_perms.Perms.read then
          rreply_to ctrl rr (Error Error.Perm_denied)
        else if not m.m_owner.alive then
          (* symmetric with do_copy_open's destination check: never read a
             dead owner's buffer *)
          rreply_to ctrl rr (Error Error.Provider_dead)
        else
          (* destination routing goes through the shard directory too: a
             self-successor destination loops back through our own peer
             endpoint, where the open fails typed-Stale and the final
             chunk carries the error home *)
          match locate ctrl dst with
          | None -> rreply_to ctrl rr (Error Error.Ctrl_unreachable)
          | Some dst_ctrl ->
            let next_copy_id = Domain.DLS.get next_copy_id in
            incr next_copy_id;
            let copy_id = !next_copy_id in
            if pipelined cfg then
              do_copy_chunks_pipelined ctrl ~dst ~dst_ctrl ~m ~copy_id rr
            else do_copy_chunks_serial ctrl ~dst ~dst_ctrl ~m ~copy_id rr)
      | O_request _ | O_indirect ->
        rreply_to ctrl rr
          (Error (Error.Bad_argument "memory_copy source is not Memory"))))

(* Hardware third-party RDMA (the paper's "HW copies" projection): the
   caller's controller programs the NIC; data moves once, directly between
   the two process buffers, with no controller staging. *)
let do_copy_hw ctrl ~src_mem ~dst_mem (rr : unit rreply) =
  (* async span, finished from the completion callback: --breakdown then
     attributes the one-sided transfer to the copy engine instead of
     leaving it as untraced idle time *)
  let sp =
    if Obs.Span.enabled () then
      Obs.Span.start ~node:(node_name ctrl) ~name:"ctrl.copy"
        ~attrs:[ ("hw", "true"); ("len", string_of_int src_mem.m_len) ]
        ()
    else 0
  in
  Membuf.blit ~src:src_mem.m_buf ~src_off:src_mem.m_off ~dst:dst_mem.m_buf
    ~dst_off:dst_mem.m_off ~len:src_mem.m_len;
  Obs.Metrics.incr ~by:src_mem.m_len ctrl.cm.cm_copy_bytes;
  Net.Fabric.send ctrl.fabric ~src:src_mem.m_buf.Membuf.node
    ~dst:dst_mem.m_buf.Membuf.node ~cls:Net.Stats.Data ~size:src_mem.m_len
    (once (fun () ->
         Obs.Span.finish sp;
         Net.Fabric.send ctrl.fabric ~src:dst_mem.m_buf.Membuf.node
           ~dst:rr.rr_ctrl.cnode ~size:Wire.response (fun () ->
             ignore (Sim.Ivar.try_fill rr.rr_ivar (Ok ())))))

(* ------------------------------------------------------------------ *)
(* Shard placement                                                     *)
(* ------------------------------------------------------------------ *)

(* Pick the shard-map home for a fresh object, or [None] to mint locally
   (no group, Config.shard_placement off, or the map chose this very
   controller). The key is a per-controller sequence folded with the
   controller id, so placement is deterministic yet spreads by hash
   instead of hammering one slot. Only fresh Memory objects and derived
   Requests shard: root Requests stay pinned to their provider's
   controller (delivery needs the provider's capspace locally), and
   diminish / revtree children stay on their parent's (revocation trees
   use controller-local oids). *)
let shard_home ctrl =
  match ctrl.shard with
  | None -> None
  | Some g ->
    let cfg = config ctrl in
    if not cfg.shard_placement then None
    else begin
      let key = (ctrl.ctrl_id * 1_000_003) + ctrl.place_seq in
      ctrl.place_seq <- ctrl.place_seq + 1;
      let n = Array.length g.sg_slots in
      match
        Shard.place ~n ~live:(fun i -> g.sg_live.(i)) ~seed:cfg.shard_seed key
      with
      | None -> None
      | Some s ->
        let home = g.sg_slots.(s) in
        if home == ctrl then None else Some home
    end

(* Mint an object at [home] and wait (bounded) for its address. The wait
   mirrors the P_ref_inc ack discipline: if the home crashed or the reply
   was dropped, the caller gets a typed [Timeout] — never a hang.

   The home minted the object the moment it processed the message, so a
   caller-side timeout leaves an orphan behind: the home guards every
   placement with a lease (see [place_lease_arm]) and the caller confirms
   receipt with a fire-and-forget [P_place_ack]. A timed-out (or
   dropped-reply) placement is reclaimed by the home when its lease
   expires; no caller-driven cancel is attempted because that cancel
   could itself be lost to fault injection. *)
let place_remote ctrl (home : ctrl) ~size make_msg =
  charge ctrl [ (Net.Cost.Serialize, 1) ];
  let key = ctrl.place_ack_seq in
  ctrl.place_ack_seq <- ctrl.place_ack_seq + 1;
  let iv = Sim.Ivar.create () in
  send_peer ctrl home ~size (make_msg key { rr_ivar = iv; rr_ctrl = ctrl });
  let timeout = (config ctrl).peer_ack_timeout in
  let confirm r =
    (match r with
    | Ok _ ->
      charge ctrl [ (Net.Cost.Msg, 1) ];
      send_peer ctrl home ~size:Wire.peer_fixed
        (P_place_ack { caller = ctrl.ctrl_id; key })
    | Error _ -> ());
    r
  in
  if timeout <= 0 then confirm (Sim.Ivar.await iv)
  else
    match Sim.Ivar.await_timeout iv ~timeout with
    | Some r -> confirm r
    | None ->
      Obs.Metrics.incr ctrl.cm.cm_place_timeouts;
      journal ctrl Obs.Journal.Warn "ctrl.place_timeout" (fun () ->
          Printf.sprintf "home=%d" home.ctrl_id);
      Error Error.Timeout

(* Home side of the placement lease: remember the freshly minted object
   under the caller's key and reclaim it if no P_place_ack lands within
   twice the caller's wait (once for the caller's own timeout, once as
   transit slack for the ack). Reclamation goes through the ordinary
   revocation path — the Revoke is audited and remote capabilities are
   cleaned up — so Invariants' live-object accounting stays balanced.
   With peer_ack_timeout <= 0 the caller waits forever and can never
   abandon a placement, so no lease is needed. *)
let place_lease_arm ctrl ~caller ~key addr =
  let timeout = (config ctrl).peer_ack_timeout in
  if timeout > 0 then begin
    Hashtbl.replace ctrl.placed_pending (caller, key) addr;
    let armed_epoch = ctrl.epoch in
    Sim.Engine.spawn (fun () ->
        Sim.Engine.sleep (2 * timeout);
        match Hashtbl.find_opt ctrl.placed_pending (caller, key) with
        | None -> () (* confirmed (or the table was reset by a reboot) *)
        | Some addr ->
          Hashtbl.remove ctrl.placed_pending (caller, key);
          if ctrl.running && ctrl.epoch = armed_epoch then (
            match Objects.find ctrl addr with
            | Ok obj when obj.o_valid ->
              Obs.Metrics.incr ctrl.cm.cm_place_reclaims;
              journal ctrl Obs.Journal.Warn "ctrl.place_reclaim" (fun () ->
                  Printf.sprintf "caller=%d oid=%d" caller addr.a_oid);
              invalidate_at_owner ctrl obj
            | Ok _ | Error _ -> ()))
  end

(* ------------------------------------------------------------------ *)
(* Syscall handlers                                                    *)
(* ------------------------------------------------------------------ *)

let sys_mem_create ctrl ~caller buf ~off ~len perms (reply : int reply) =
  charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
  match space_of ctrl caller with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok space ->
    if off < 0 || len < 0 || off + len > Membuf.size buf then
      reply_to ctrl reply (Error Error.Bounds)
    else (
      match shard_home ctrl with
      | Some home -> (
        match
          place_remote ctrl home ~size:Wire.peer_fixed (fun key rr ->
              P_place_mem
                { buf; off; len; perms; owner = caller; key; reply = rr })
        with
        | Error e -> reply_to ctrl reply (Error e)
        | Ok addr ->
          (* the home audited the Mint; this side only gains a capability *)
          reply_to ctrl reply
            (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Delegate
               ~audit_detail:(fun () -> "shard placement")))
      | None ->
        let addr =
          Objects.add_memory ctrl
            { m_buf = buf; m_off = off; m_len = len; m_perms = perms;
              m_owner = caller }
        in
        reply_to ctrl reply
          (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () -> "memory perms=" ^ Perms.to_string perms)))

let sys_mem_diminish ctrl ~caller cid ~off ~len ~drop (reply : int reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry -> (
    let res =
      at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () -> do_diminish ctrl entry.e_addr ~off ~len ~drop)
        ~make_msg:(fun rr ->
          P_diminish { addr = entry.e_addr; off; len; drop; reply = rr })
    in
    match res with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok child_addr -> (
      match space_of ctrl caller with
      | Error e -> reply_to ctrl reply (Error e)
      | Ok space ->
        reply_to ctrl reply
          (insert_cap ctrl space child_addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () ->
               "memory diminish drop=" ^ Perms.to_string drop))))

let sys_mem_copy ctrl ~caller ~src ~dst (reply : unit reply) =
  let cfg = config ctrl in
  match charged_resolve2 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] src dst with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok (src_e, dst_e) ->
    let rr_iv = Sim.Ivar.create () in
    let rr = { rr_ivar = rr_iv; rr_ctrl = ctrl } in
    (if cfg.hw_copies then begin
       (* Third-party RDMA: the caller's controller must be able to resolve
          both extents. The hw-copies projection (Fig. 5) is measured with
          objects registered at the caller's controller; remote owners fall
          back on a peer extent query. *)
       let resolve addr =
         if addr.a_ctrl = ctrl.ctrl_id then
           match Objects.find ctrl addr with
           | Error e -> Error e
           | Ok obj -> (
             match Objects.resolve_payload ctrl obj with
             | Error e -> Error e
             | Ok (p, _) -> (
               match p.o_kind with
               | O_memory m -> Ok m
               | O_request _ | O_indirect ->
                 Error (Error.Bad_argument "not memory")))
         else
           match peer_of_addr ctrl addr with
           | None -> Error Error.Ctrl_unreachable
           | Some peer -> (
             match Objects.find peer addr with
             | Error e -> Error e
             | Ok obj -> (
               match Objects.resolve_payload peer obj with
               | Error e -> Error e
               | Ok (p, _) -> (
                 match p.o_kind with
                 | O_memory m ->
                   (* extent metadata fetch: one control round trip *)
                   Net.Fabric.transfer ctrl.fabric ~src:ctrl.cnode
                     ~dst:peer.cnode ~size:Wire.peer_fixed ();
                   Net.Fabric.transfer ctrl.fabric ~src:peer.cnode
                     ~dst:ctrl.cnode ~size:Wire.response ();
                   Ok m
                 | O_request _ | O_indirect ->
                   Error (Error.Bad_argument "not memory"))))
       in
       match (resolve src_e.e_addr, resolve dst_e.e_addr) with
       | Error e, _ | _, Error e -> Sim.Ivar.fill rr_iv (Error e)
       | Ok sm, Ok dm ->
         if not sm.m_perms.Perms.read then
           Sim.Ivar.fill rr_iv (Error Error.Perm_denied)
         else if not dm.m_perms.Perms.write then
           Sim.Ivar.fill rr_iv (Error Error.Perm_denied)
         else if sm.m_len > dm.m_len then Sim.Ivar.fill rr_iv (Error Error.Bounds)
         else do_copy_hw ctrl ~src_mem:sm ~dst_mem:dm rr
     end
     else if src_e.e_addr.a_ctrl = ctrl.ctrl_id then
       Sim.Engine.spawn (fun () ->
           do_copy_pull ctrl ~src:src_e.e_addr ~dst:dst_e.e_addr rr)
     else
       match locate ctrl src_e.e_addr with
       | None -> Sim.Ivar.fill rr_iv (Error Error.Ctrl_unreachable)
       | Some owner when owner == ctrl ->
         (* failover successor of the source's minter: pull locally; the
            source lookup answers the foreign address with typed Stale *)
         Sim.Engine.spawn (fun () ->
             do_copy_pull ctrl ~src:src_e.e_addr ~dst:dst_e.e_addr rr)
       | Some peer ->
         charge ctrl [ (Net.Cost.Serialize, 1) ];
         send_peer ctrl peer ~size:Wire.peer_fixed
           (P_copy_pull { src = src_e.e_addr; dst = dst_e.e_addr; reply = rr }));
    let result = Sim.Ivar.await rr_iv in
    reply_to ctrl reply result

let sys_req_create ctrl ~caller ~tag ~imms ~caps (reply : int reply) =
  charge ctrl
    [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1 + List.length caps) ];
  match space_of ctrl caller with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok space -> (
    match resolve_cap_args ctrl caller caps with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok cap_args ->
      let addr =
        Objects.add_request ctrl
          {
            r_provider = caller;
            r_tag = tag;
            r_imms = imms;
            r_caps = cap_args;
            r_parent = None;
          }
      in
      reply_to ctrl reply
        (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
           ~audit_detail:(fun () -> "request tag=" ^ tag)))

let sys_req_derive ctrl ~caller ~parent ~imms ~caps (reply : int reply) =
  charge ctrl
    [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 2 + List.length caps) ];
  match (space_of ctrl caller, resolve_cid ctrl caller parent) with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok parent_entry -> (
    match resolve_cap_args ctrl caller caps with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok cap_args -> (
      match shard_home ctrl with
      | Some home -> (
        match
          place_remote ctrl home ~size:Wire.peer_fixed (fun key rr ->
              P_place_req
                {
                  provider = caller;
                  imms;
                  caps = cap_args;
                  parent = parent_entry.e_addr;
                  key;
                  reply = rr;
                })
        with
        | Error e -> reply_to ctrl reply (Error e)
        | Ok addr ->
          reply_to ctrl reply
            (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Delegate
               ~audit_detail:(fun () -> "shard placement")))
      | None ->
        let addr =
          Objects.add_request ctrl
            {
              r_provider = caller (* unused on derived requests *);
              r_tag = "";
              r_imms = imms;
              r_caps = cap_args;
              r_parent = Some parent_entry.e_addr;
            }
        in
        reply_to ctrl reply
          (insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Mint
             ~audit_detail:(fun () ->
               Printf.sprintf "request derive parent_oid=%d"
                 parent_entry.e_addr.a_oid))))

let sys_req_invoke ctrl ~caller cid (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let rr_iv = Sim.Ivar.create () in
    let rr = { rr_ivar = rr_iv; rr_ctrl = ctrl } in
    (if entry.e_addr.a_ctrl = ctrl.ctrl_id then
       Sim.Engine.spawn (fun () -> do_invoke ctrl entry.e_addr [] [] (Some rr))
     else
       match locate ctrl entry.e_addr with
       | None -> Sim.Ivar.fill rr_iv (Error Error.Ctrl_unreachable)
       | Some owner when owner == ctrl ->
         (* failover successor of the minter: run the chain here (the
            lookup answers a foreign address with typed Stale) *)
         Sim.Engine.spawn (fun () ->
             do_invoke ctrl entry.e_addr [] [] (Some rr))
       | Some peer ->
         charge ctrl [ (Net.Cost.Serialize, 1) ];
         send_peer ctrl peer
           ~size:(Wire.invoke ~imms:[] ~caps:0)
           (P_invoke
              { addr = entry.e_addr; suffix_imms = []; suffix_caps = [];
                reply = Some rr }));
    let result = Sim.Ivar.await rr_iv in
    reply_to ctrl reply result

let sys_revtree_create ctrl ~caller cid (reply : int reply) =
  match
    ( space_of ctrl caller,
      charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid )
  with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok entry -> (
    let res =
      at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
        ~local:(fun () -> do_revtree ctrl entry.e_addr)
        ~make_msg:(fun rr -> P_revtree { addr = entry.e_addr; reply = rr })
    in
    match res with
    | Error e -> reply_to ctrl reply (Error e)
    | Ok child_addr ->
      reply_to ctrl reply
        (insert_cap ctrl space child_addr ~counts:None ~op:Obs.Audit.Mint
           ~audit_detail:(fun () -> "revtree")))

let sys_revoke ctrl ~caller cid (reply : unit reply) =
  match
    ( space_of ctrl caller,
      charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid )
  with
  | Error e, _ | _, Error e -> reply_to ctrl reply (Error e)
  | Ok space, Ok entry ->
    drop_entry ctrl space cid entry;
    if entry.e_counts <> None then
      (* A monitored-delegation capability is a counted reference: revoking
         it destroys the delegatee's own capability (decrementing the
         delegator's child counter via [drop_entry]) without invalidating
         the shared object. This is the behavioral equivalent of the
         paper's per-delegation revocable marks on the revocation tree —
         other delegatees of the same object are unaffected. *)
      reply_to ctrl reply (Ok ())
    else
      let res =
        at_owner ctrl entry.e_addr ~size:Wire.peer_fixed
          ~local:(fun () -> do_revoke ctrl entry.e_addr)
          ~make_msg:(fun rr -> P_revoke { addr = entry.e_addr; reply = rr })
      in
      reply_to ctrl reply res

let sys_mon_delegate ctrl ~caller cid ~cb (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let register () =
      match Objects.find ctrl entry.e_addr with
      | Error e -> Error e
      | Ok obj ->
        if obj.o_rev_children <> [] then
          Error (Error.Bad_argument "monitor_delegate: object has children")
        else if obj.o_mon_delegator <> None then
          Error (Error.Bad_argument "monitor_delegate: already monitored")
        else begin
          obj.o_mon_delegator <-
            Some { md_watcher = caller; md_cb = cb; md_outstanding = 0 };
          Ok ()
        end
    in
    let res =
      at_owner ctrl entry.e_addr ~size:Wire.peer_fixed ~local:register
        ~make_msg:(fun rr ->
          P_mon_delegate { addr = entry.e_addr; watcher = caller; cb; reply = rr })
    in
    (match res with
    | Ok () ->
      entry.e_delegator <- true;
      audit ctrl Obs.Audit.Monitor_delegate ~pid:caller.pid ~cid entry.e_addr
    | Error _ -> ());
    reply_to ctrl reply res

let sys_mon_receive ctrl ~caller cid ~cb (reply : unit reply) =
  match charged_resolve1 ctrl caller ~base:[ (Net.Cost.Msg, 1) ] cid with
  | Error e -> reply_to ctrl reply (Error e)
  | Ok entry ->
    let register () =
      match Objects.find ctrl entry.e_addr with
      | Error e -> Error e
      | Ok obj ->
        obj.o_mon_receivers <- (caller, cb) :: obj.o_mon_receivers;
        Ok ()
    in
    let res =
      at_owner ctrl entry.e_addr ~size:Wire.peer_fixed ~local:register
        ~make_msg:(fun rr ->
          P_mon_receive { addr = entry.e_addr; watcher = caller; cb; reply = rr })
    in
    (match res with
    | Ok () ->
      audit ctrl Obs.Audit.Monitor_receive ~pid:caller.pid ~cid entry.e_addr
    | Error _ -> ());
    reply_to ctrl reply res

let dispatch_syscall ctrl msg =
  match msg with
  | Sys_null reply ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    reply_to ctrl reply (Ok ())
  | Sys_mem_create { buf; off; len; perms; reply } ->
    sys_mem_create ctrl ~caller:reply.r_proc buf ~off ~len perms reply
  | Sys_mem_diminish { cid; off; len; drop; reply } ->
    sys_mem_diminish ctrl ~caller:reply.r_proc cid ~off ~len ~drop reply
  | Sys_mem_copy { src; dst; reply } ->
    sys_mem_copy ctrl ~caller:reply.r_proc ~src ~dst reply
  | Sys_req_create { tag; imms; caps; reply } ->
    sys_req_create ctrl ~caller:reply.r_proc ~tag ~imms ~caps reply
  | Sys_req_derive { parent; imms; caps; reply } ->
    sys_req_derive ctrl ~caller:reply.r_proc ~parent ~imms ~caps reply
  | Sys_req_invoke { cid; reply } ->
    sys_req_invoke ctrl ~caller:reply.r_proc cid reply
  | Sys_revtree_create { cid; reply } ->
    sys_revtree_create ctrl ~caller:reply.r_proc cid reply
  | Sys_revoke { cid; reply } -> sys_revoke ctrl ~caller:reply.r_proc cid reply
  | Sys_mon_delegate { cid; cb; reply } ->
    sys_mon_delegate ctrl ~caller:reply.r_proc cid ~cb reply
  | Sys_mon_receive { cid; cb; reply } ->
    sys_mon_receive ctrl ~caller:reply.r_proc cid ~cb reply
  | Sys_credit proc -> (
    match Hashtbl.find_opt ctrl.windows proc.pid with
    | Some w -> Sim.Semaphore.release w
    | None -> ())

let syscall_name = function
  | Sys_null _ -> "null"
  | Sys_mem_create _ -> "memory_create"
  | Sys_mem_diminish _ -> "memory_diminish"
  | Sys_mem_copy _ -> "memory_copy"
  | Sys_req_create _ -> "request_create"
  | Sys_req_derive _ -> "request_derive"
  | Sys_req_invoke _ -> "request_invoke"
  | Sys_revtree_create _ -> "cap_create_revtree"
  | Sys_revoke _ -> "cap_revoke"
  | Sys_mon_delegate _ -> "monitor_delegate"
  | Sys_mon_receive _ -> "monitor_receive"
  | Sys_credit _ -> "credit"

let handle_syscall ctrl msg =
  match msg with
  | Sys_credit _ ->
    (* flow-control credits are not requests: keep them out of the
       syscall counter and trace *)
    dispatch_syscall ctrl msg
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_syscalls;
    Obs.Metrics.set ctrl.cm.cm_sys_backlog (Net.Endpoint.pending ctrl.sys_ep);
    journal ctrl Obs.Journal.Debug "ctrl.admit" (fun () -> syscall_name msg);
    if Obs.Span.enabled () then
      span ctrl ("ctrl." ^ syscall_name msg) (fun () ->
          dispatch_syscall ctrl msg)
    else dispatch_syscall ctrl msg

(* Fail a syscall's reply path without running any controller software:
   used when the controller has crashed (the caller's QP times out,
   [Ctrl_unreachable]) and when the bounded request queue sheds at
   admission ([Overloaded]). *)
let fail_syscall err msg =
  let kill : type a. a reply -> unit =
   fun r -> ignore (Sim.Ivar.try_fill r.r_ivar (Error err))
  in
  match msg with
  | Sys_null r -> kill r
  | Sys_mem_create { reply; _ } -> kill reply
  | Sys_mem_diminish { reply; _ } -> kill reply
  | Sys_mem_copy { reply; _ } -> kill reply
  | Sys_req_create { reply; _ } -> kill reply
  | Sys_req_derive { reply; _ } -> kill reply
  | Sys_req_invoke { reply; _ } -> kill reply
  | Sys_revtree_create { reply; _ } -> kill reply
  | Sys_revoke { reply; _ } -> kill reply
  | Sys_mon_delegate { reply; _ } -> kill reply
  | Sys_mon_receive { reply; _ } -> kill reply
  | Sys_credit _ -> ()

(* Reject a syscall at "transport level" when the controller has crashed. *)
let reject_syscall msg = fail_syscall Error.Ctrl_unreachable msg

(* Admission control for the bounded syscall queue (receiver-not-ready,
   as an RC QP would RNR-NAK): shed the request with a typed, retryable
   [Overloaded] instead of queueing without limit. Flow-control credits
   are never shed — losing one would leak a congestion-window slot
   forever. *)
let shed_syscall ctrl msg =
  match msg with
  | Sys_credit _ -> false
  | _ ->
    Obs.Metrics.incr ctrl.cm.cm_overloads;
    journal ctrl Obs.Journal.Warn "ctrl.shed" (fun () -> syscall_name msg);
    fail_syscall Error.Overloaded msg;
    true

(* ------------------------------------------------------------------ *)
(* Peer message handlers                                               *)
(* ------------------------------------------------------------------ *)

let dispatch_peer ctrl msg =
  match msg with
  | P_invoke { addr; suffix_imms; suffix_caps; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Serialize, 1) ];
    do_invoke ctrl addr suffix_imms suffix_caps reply
  | P_diminish { addr; off; len; drop; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_diminish ctrl addr ~off ~len ~drop)
  | P_revtree { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_revtree ctrl addr)
  | P_revoke { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    rreply_to ctrl reply (do_revoke ctrl addr)
  | P_cleanup { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    cleanup_local ctrl addr;
    rreply_to ctrl reply (Ok ())
  | P_increment { addr } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    apply_increment ctrl addr
  | P_decrement { addr } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    apply_decrement ctrl addr
  | P_ref_inc { addr; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    (match Hashtbl.find_opt ctrl.objects addr.a_oid with
    | Some obj when addr.a_epoch = ctrl.epoch ->
      obj.o_remote_refs <- obj.o_remote_refs + 1
    | Some _ | None -> ());
    rreply_to ctrl reply (Ok ())
  | P_ref_dec { addr } -> (
    charge ctrl [ (Net.Cost.Msg, 1) ];
    match Hashtbl.find_opt ctrl.objects addr.a_oid with
    | Some obj when addr.a_epoch = ctrl.epoch ->
      obj.o_remote_refs <- obj.o_remote_refs - 1;
      if (not obj.o_valid) && obj.o_remote_refs <= 0 then
        Objects.remove ctrl addr.a_oid
    | Some _ | None -> ())
  | P_mon_delegate { addr; watcher; cb; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    let res =
      match Objects.find ctrl addr with
      | Error e -> Error e
      | Ok obj ->
        if obj.o_rev_children <> [] then
          Error (Error.Bad_argument "monitor_delegate: object has children")
        else if obj.o_mon_delegator <> None then
          Error (Error.Bad_argument "monitor_delegate: already monitored")
        else begin
          obj.o_mon_delegator <-
            Some { md_watcher = watcher; md_cb = cb; md_outstanding = 0 };
          Ok ()
        end
    in
    rreply_to ctrl reply res
  | P_mon_receive { addr; watcher; cb; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    let res =
      match Objects.find ctrl addr with
      | Error e -> Error e
      | Ok obj ->
        obj.o_mon_receivers <- (watcher, cb) :: obj.o_mon_receivers;
        Ok ()
    in
    rreply_to ctrl reply res
  | P_copy_pull { src; dst; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    do_copy_pull ctrl ~src ~dst reply
  | P_copy_open { copy_id; src_ctrl; dst; total; chunk } -> (
    charge ctrl [ (Net.Cost.Msg, 1) ];
    let drain_pending deliver =
      match Hashtbl.find_opt ctrl.copy_pending copy_id with
      | None -> ()
      | Some q ->
        Hashtbl.remove ctrl.copy_pending copy_id;
        Queue.iter deliver q
    in
    match do_copy_open ctrl ~copy_id ~src_ctrl ~dst ~total with
    | Ok () -> (
      match Hashtbl.find_opt ctrl.copy_sessions copy_id with
      | Some chan ->
        Sim.Channel.send chan chunk;
        drain_pending (fun (_, ck) -> Sim.Channel.send chan ck)
      | None -> ())
    | Error e ->
      (* rejected chunks never reach a writer, so their flow-control
         credits must come back from here or the pipelined source's
         stream fibers wedge on the window semaphore *)
      let reject (ck : copy_chunk) =
        if pipelined (config ctrl) then
          grant_credit ctrl ~src_ctrl ~copy_id ~credits:1;
        match ck.ck_last with
        | Some rr ->
          Hashtbl.remove ctrl.copy_failures copy_id;
          rreply_to ctrl rr (Error e)
        | None -> ()
      in
      reject chunk;
      drain_pending (fun (_, ck) -> reject ck))
  | P_copy_chunk { copy_id; src_ctrl; chunk } -> (
    match Hashtbl.find_opt ctrl.copy_sessions copy_id with
    | Some chan -> Sim.Channel.send chan chunk
    | None -> (
      match Hashtbl.find_opt ctrl.copy_failures copy_id with
      | Some e -> (
        (* session rejected at open time: the final chunk carries the
           error back; the chunk's credit is refunded (see above) *)
        if pipelined (config ctrl) then
          grant_credit ctrl ~src_ctrl ~copy_id ~credits:1;
        match chunk.ck_last with
        | Some rr ->
          Hashtbl.remove ctrl.copy_failures copy_id;
          rreply_to ctrl rr (Error e)
        | None -> ())
      | None ->
        (* the open is still being processed (handlers run concurrently):
           park the chunk until the session resolves *)
        let q =
          match Hashtbl.find_opt ctrl.copy_pending copy_id with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace ctrl.copy_pending copy_id q;
            (* a lost open (fault injection) would park these forever:
               reclaim after copy_open_timeout *)
            schedule_pending_sweep ctrl copy_id q;
            q
        in
        Queue.add (src_ctrl, chunk) q))
  | P_copy_credit { copy_id; credits } -> (
    charge ctrl [ (Net.Cost.Msg, 1) ];
    match Hashtbl.find_opt ctrl.copy_credits copy_id with
    | Some sem ->
      for _ = 1 to credits do
        Sim.Semaphore.release sem
      done;
      Obs.Metrics.add ctrl.cm.cm_copy_inflight (-credits)
    | None ->
      (* session already retired (all chunks posted): late credits are
         dropped; the source settled the inflight gauge at retirement *)
      ())
  | P_place_mem { buf; off; len; perms; owner; key; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Lookup, 1) ];
    let addr =
      Objects.add_memory ctrl
        { m_buf = buf; m_off = off; m_len = len; m_perms = perms;
          m_owner = owner }
    in
    Obs.Metrics.incr ctrl.cm.cm_shard_placed;
    (* the home records the Mint, so live-object accounting balances
       even when the address reply below is dropped by fault injection *)
    audit ctrl Obs.Audit.Mint ~detail:(fun () -> "shard placement") addr;
    place_lease_arm ctrl ~caller:reply.rr_ctrl.ctrl_id ~key addr;
    rreply_to ctrl reply (Ok addr)
  | P_place_req { provider; imms; caps; parent; key; reply } ->
    charge ctrl [ (Net.Cost.Msg, 1); (Net.Cost.Serialize, 1) ];
    let addr =
      Objects.add_request ctrl
        {
          r_provider = provider (* unused on derived requests *);
          r_tag = "";
          r_imms = imms;
          r_caps = caps;
          r_parent = Some parent;
        }
    in
    Obs.Metrics.incr ctrl.cm.cm_shard_placed;
    audit ctrl Obs.Audit.Mint ~detail:(fun () -> "shard placement") addr;
    place_lease_arm ctrl ~caller:reply.rr_ctrl.ctrl_id ~key addr;
    rreply_to ctrl reply (Ok addr)
  | P_place_ack { caller; key } ->
    charge ctrl [ (Net.Cost.Msg, 1) ];
    Hashtbl.remove ctrl.placed_pending (caller, key)

let peer_name = function
  | P_invoke _ -> "invoke"
  | P_diminish _ -> "diminish"
  | P_revtree _ -> "revtree"
  | P_revoke _ -> "revoke"
  | P_cleanup _ -> "cleanup"
  | P_increment _ -> "increment"
  | P_decrement _ -> "decrement"
  | P_ref_inc _ -> "ref_inc"
  | P_ref_dec _ -> "ref_dec"
  | P_mon_delegate _ -> "mon_delegate"
  | P_mon_receive _ -> "mon_receive"
  | P_copy_pull _ -> "copy_pull"
  | P_copy_open _ -> "copy_open"
  | P_copy_chunk _ -> "copy_chunk"
  | P_copy_credit _ -> "copy_credit"
  | P_place_mem _ -> "place_mem"
  | P_place_req _ -> "place_req"
  | P_place_ack _ -> "place_ack"

let handle_peer ctrl msg =
  Obs.Metrics.incr ctrl.cm.cm_peer_msgs;
  Obs.Metrics.set ctrl.cm.cm_peer_backlog (Net.Endpoint.pending ctrl.peer_ep);
  if Obs.Span.enabled () then
    span ctrl ("ctrl.peer." ^ peer_name msg) (fun () -> dispatch_peer ctrl msg)
  else dispatch_peer ctrl msg

let reject_peer msg =
  let kill : type a. a rreply -> unit =
   fun rr -> Sim.Ivar.fill rr.rr_ivar (Error Error.Ctrl_unreachable)
  in
  match msg with
  | P_invoke { reply = Some rr; _ } -> kill rr
  | P_invoke { reply = None; _ } -> ()
  | P_diminish { reply; _ } -> kill reply
  | P_revtree { reply; _ } -> kill reply
  | P_revoke { reply; _ } -> kill reply
  | P_cleanup { reply; _ } ->
    (* a dead controller holds no capabilities: cleanup trivially done *)
    Sim.Ivar.fill reply.rr_ivar (Ok ())
  | P_increment _ | P_decrement _ | P_ref_dec _ -> ()
  | P_ref_inc { reply; _ } -> kill reply
  | P_mon_delegate { reply; _ } -> kill reply
  | P_mon_receive { reply; _ } -> kill reply
  | P_copy_pull { reply; _ } -> kill reply
  | P_copy_open { chunk; _ } | P_copy_chunk { chunk; _ } -> (
    match chunk.ck_last with
    | Some rr -> kill rr
    | None -> ())
  | P_copy_credit _ -> ()
  | P_place_mem { reply; _ } -> kill reply
  | P_place_req { reply; _ } -> kill reply
  | P_place_ack _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create fabric ~node =
  let next_ctrl_id = Domain.DLS.get next_ctrl_id in
  incr next_ctrl_id;
  let id = !next_ctrl_id in
  let cfg = Net.Fabric.config fabric in
  let nn = node.Net.Node.name in
  let ctrl =
    {
      ctrl_id = id;
      cnode = node;
      epoch = 0;
      cpu = Sim.Resource.create ~servers:2 ();
      copy_engine = Sim.Resource.create ~servers:2 ();
      sys_ep =
        (* the syscall queue carries the admission bound; the peer queue
           stays unbounded — shedding the peer protocol (acks, copy
           chunks) would wedge in-flight operations, and its volume is
           already limited by the syscall admission upstream *)
        Net.Endpoint.create ~node ~capacity:cfg.Net.Config.ctrl_queue_bound
          (Printf.sprintf "ctrl%d.sys" id);
      peer_ep = Net.Endpoint.create ~node (Printf.sprintf "ctrl%d.peer" id);
      objects = Hashtbl.create 64;
      next_oid = 1;
      capspaces = Hashtbl.create 8;
      procs = Hashtbl.create 8;
      peers = [];
      fabric;
      running = true;
      windows = Hashtbl.create 8;
      copy_sessions = Hashtbl.create 8;
      copy_failures = Hashtbl.create 8;
      copy_pending = Hashtbl.create 8;
      copy_credits = Hashtbl.create 8;
      cap_gen = 0;
      shard = None;
      shard_slot = -1;
      dir_cache = Hashtbl.create 8;
      dir_gen = 0;
      place_seq = 0;
      place_ack_seq = 0;
      placed_pending = Hashtbl.create 8;
      cm =
        {
          cm_captable = Obs.Metrics.gauge ~node:nn "ctrl.captable";
          cm_revtree = Obs.Metrics.gauge ~node:nn "ctrl.revtree";
          cm_syscalls = Obs.Metrics.counter ~node:nn "ctrl.syscalls";
          cm_sys_backlog = Obs.Metrics.gauge ~node:nn "ctrl.sys_backlog";
          cm_peer_msgs = Obs.Metrics.counter ~node:nn "ctrl.peer_msgs";
          cm_peer_backlog = Obs.Metrics.gauge ~node:nn "ctrl.peer_backlog";
          cm_delivered = Obs.Metrics.counter ~node:nn "ctrl.requests_delivered";
          cm_overloads = Obs.Metrics.counter ~node:nn "ctrl.overloads";
          cm_tcache_hits = Obs.Metrics.counter ~node:nn "ctrl.tcache_hits";
          cm_tcache_misses = Obs.Metrics.counter ~node:nn "ctrl.tcache_misses";
          cm_ref_inc_timeouts =
            Obs.Metrics.counter ~node:nn "ctrl.ref_inc_timeouts";
          cm_copy_bytes = Obs.Metrics.counter ~node:nn "ctrl.copy_bytes";
          cm_copy_inflight = Obs.Metrics.gauge ~node:nn "ctrl.copy_inflight";
          cm_copy_orphans = Obs.Metrics.counter ~node:nn "ctrl.copy_orphans";
          cm_dir_hits = Obs.Metrics.counter ~node:nn "ctrl.dir_hits";
          cm_dir_misses = Obs.Metrics.counter ~node:nn "ctrl.dir_misses";
          cm_dir_invalidations =
            Obs.Metrics.counter ~node:nn "ctrl.dir_invalidations";
          cm_shard_placed = Obs.Metrics.counter ~node:nn "ctrl.shard_placed";
          cm_shard_reroutes =
            Obs.Metrics.counter ~node:nn "ctrl.shard_reroutes";
          cm_handoff_rejects =
            Obs.Metrics.counter ~node:nn "ctrl.handoff_rejects";
          cm_place_timeouts =
            Obs.Metrics.counter ~node:nn "ctrl.place_timeouts";
          cm_place_reclaims =
            Obs.Metrics.counter ~node:nn "ctrl.place_reclaims";
        };
    }
  in
  Net.Endpoint.set_overflow ctrl.sys_ep (shed_syscall ctrl);
  ctrl

let connect ctrls =
  List.iter
    (fun c ->
      c.peers <- List.filter (fun o -> o.ctrl_id <> c.ctrl_id) ctrls)
    ctrls

(* Connect [ctrls] into one sharded capability space: full peer mesh plus
   a shared shard group (slots sorted by controller id so every member —
   and every run — agrees on the slot numbering). *)
let connect_shards ctrls =
  connect ctrls;
  let slots =
    Array.of_list
      (List.sort (fun a b -> compare a.ctrl_id b.ctrl_id) ctrls)
  in
  let group =
    {
      sg_slots = slots;
      sg_live = Array.map (fun c -> c.running) slots;
      sg_gen = 0;
    }
  in
  Array.iteri
    (fun i c ->
      c.shard <- Some group;
      c.shard_slot <- i;
      Hashtbl.reset c.dir_cache;
      c.dir_gen <- 0)
    slots

(* Record a liveness flip in the group's authoritative bitmap and move
   the generation, invalidating every member's directory cache on its
   next lookup. *)
let shard_mark ctrl live =
  match ctrl.shard with
  | None -> ()
  | Some g ->
    if ctrl.shard_slot >= 0 && g.sg_live.(ctrl.shard_slot) <> live then begin
      g.sg_live.(ctrl.shard_slot) <- live;
      g.sg_gen <- g.sg_gen + 1;
      journal ctrl Obs.Journal.Info "ctrl.shard_gen" (fun () ->
          Printf.sprintf "slot=%d live=%b gen=%d" ctrl.shard_slot live
            g.sg_gen)
    end

(* Message-loop skeleton shared by the syscall and peer endpoints. One
   blocking [recv] wakes the loop (paying the doorbell charge, if the
   config splits one out of c_msg), then up to [ctrl_batch - 1] further
   already-queued messages are drained with [try_recv] under the same
   wakeup — doorbell coalescing. With the default knobs (batch = 1,
   doorbell = 0) this is exactly the seed's recv/spawn loop. *)
let service_loop ctrl ~name ep handle reject =
  let cfg = config ctrl in
  let batch = max 1 cfg.Net.Config.ctrl_batch in
  let doorbell = cfg.Net.Config.c_doorbell in
  Sim.Engine.spawn ~name (fun () ->
      let dispatch msg =
        if ctrl.running then Sim.Engine.spawn (fun () -> handle ctrl msg)
        else reject msg
      in
      let rec loop () =
        let msg = Net.Endpoint.recv ep in
        if doorbell > 0 then charge_scaled ctrl Net.Cost.Msg doorbell;
        dispatch msg;
        let rec drain k =
          if k < batch then
            match Net.Endpoint.try_recv ep with
            | Some msg ->
              dispatch msg;
              drain (k + 1)
            | None -> ()
        in
        drain 1;
        loop ()
      in
      loop ())

let start ctrl =
  service_loop ctrl ~name:"ctrl.sys" ctrl.sys_ep handle_syscall reject_syscall;
  service_loop ctrl ~name:"ctrl.peer" ctrl.peer_ep handle_peer reject_peer

let attach ctrl proc =
  (match proc.pctrl with
  | Some _ -> invalid_arg "Controller.attach: process already attached"
  | None -> ());
  proc.pctrl <- Some ctrl;
  Hashtbl.replace ctrl.procs proc.pid proc;
  Hashtbl.replace ctrl.capspaces proc.pid
    {
      cs_proc = proc;
      cs_next = 1;
      cs_caps = Hashtbl.create 16;
      cs_memo = Hashtbl.create 16;
      cs_memo_gen = ctrl.cap_gen;
    };
  Hashtbl.replace ctrl.windows proc.pid
    (Sim.Semaphore.create (config ctrl).congestion_window)

let grant ctrl proc addr =
  match space_of ctrl proc with
  | Error _ -> invalid_arg "Controller.grant: process not attached"
  | Ok space -> (
    match
      insert_cap ctrl space addr ~counts:None ~op:Obs.Audit.Delegate
        ~audit_detail:(fun () -> "grant")
    with
    | Ok cid -> cid
    | Error e ->
      invalid_arg ("Controller.grant: " ^ Error.to_string e))

let addr_of_cid ctrl proc cid =
  match resolve_cid ctrl proc cid with
  | Ok entry -> Some entry.e_addr
  | Error _ -> None

let fail_process ctrl proc =
  proc.alive <- false;
  (* decrement monitored-delegation counters for every capability the dead
     process held *)
  (match Hashtbl.find_opt ctrl.capspaces proc.pid with
  | Some space ->
    let entries = Hashtbl.fold (fun cid e acc -> (cid, e) :: acc) space.cs_caps [] in
    List.iter (fun (cid, e) -> drop_entry ctrl space cid e) entries
  | None -> ());
  Hashtbl.remove ctrl.capspaces proc.pid;
  Hashtbl.remove ctrl.windows proc.pid;
  Hashtbl.remove ctrl.procs proc.pid;
  (* invalidate every object the process owns (its Memory registrations and
     the Requests it provides) — failure translates into revocation *)
  let owned =
    Hashtbl.fold
      (fun _ obj acc ->
        if not obj.o_valid then acc
        else
          match obj.o_kind with
          | O_memory m when m.m_owner == proc -> obj :: acc
          | O_request r when r.r_provider == proc && r.r_parent = None ->
            obj :: acc
          | O_memory _ | O_request _ | O_indirect -> acc)
      ctrl.objects []
  in
  List.iter
    (fun obj -> if obj.o_valid then invalidate_at_owner ctrl obj)
    owned

let fail ctrl =
  journal ctrl Obs.Journal.Error "ctrl.crash" (fun () ->
      Printf.sprintf "epoch=%d" ctrl.epoch);
  ctrl.running <- false;
  shard_mark ctrl false;
  Hashtbl.iter (fun _ p -> p.alive <- false) ctrl.procs

let restart ctrl =
  journal ctrl Obs.Journal.Info "ctrl.reboot" (fun () ->
      Printf.sprintf "epoch=%d" (ctrl.epoch + 1));
  ctrl.epoch <- ctrl.epoch + 1;
  Hashtbl.reset ctrl.objects;
  Hashtbl.reset ctrl.capspaces;
  Hashtbl.reset ctrl.procs;
  Hashtbl.reset ctrl.windows;
  Hashtbl.reset ctrl.copy_sessions;
  Hashtbl.reset ctrl.copy_failures;
  Hashtbl.reset ctrl.copy_pending;
  Hashtbl.reset ctrl.copy_credits;
  ctrl.next_oid <- 1;
  ctrl.running <- true;
  (* reboot invalidates every outstanding translation memo (the epoch
     bump already invalidates the capabilities themselves) *)
  memo_invalidate ctrl;
  (* rejoin the shard group (moves sg_gen: every member's directory
     forgets the failover routes) and restart our own directory cold *)
  shard_mark ctrl true;
  Hashtbl.reset ctrl.dir_cache;
  (match ctrl.shard with
  | Some g -> ctrl.dir_gen <- g.sg_gen
  | None -> ());
  ctrl.place_seq <- 0;
  ctrl.place_ack_seq <- 0;
  Hashtbl.reset ctrl.placed_pending;
  (* the tables were reset wholesale: re-zero the incremental gauges *)
  Obs.Metrics.set (g_captable ctrl) 0;
  Obs.Metrics.set (g_revtree ctrl) 0

let live_objects ctrl = Objects.live_count ctrl
let tombstones ctrl = Objects.tombstone_count ctrl
let copy_pending_count ctrl = Hashtbl.length ctrl.copy_pending
let copy_failures_count ctrl = Hashtbl.length ctrl.copy_failures
let placed_pending_count ctrl = Hashtbl.length ctrl.placed_pending
let is_running ctrl = ctrl.running
let epoch ctrl = ctrl.epoch
let id ctrl = ctrl.ctrl_id
let shard_slot ctrl = ctrl.shard_slot
let shard_gen ctrl = match ctrl.shard with Some g -> g.sg_gen | None -> -1
let dir_cache_size ctrl = Hashtbl.length ctrl.dir_cache

(* Directory-coherence check (Fault.Invariants pass 6): every entry of a
   current-generation directory cache must name exactly the owner the
   shard map computes, and that owner must be running. A cache stamped
   with an older generation makes no claims — it is reset wholesale on
   its next use — so it is vacuously coherent; reporting it would flag
   every crash as a violation. *)
let dir_incoherences ctrl =
  match ctrl.shard with
  | None -> []
  | Some g ->
    if ctrl.dir_gen <> g.sg_gen then []
    else
      Hashtbl.fold
        (fun minting owner acc ->
          let expect = shard_owner_id g minting in
          let owner_running =
            match peer_of_id ctrl owner with
            | Some c -> c.running
            | None -> false
          in
          if expect = Some owner && owner_running then acc
          else
            Printf.sprintf
              "ctrl %d: orphaned directory entry %d->%d (shard map says %s)"
              ctrl.ctrl_id minting owner
              (match expect with
              | Some o -> string_of_int o
              | None -> "unroutable")
            :: acc)
        ctrl.dir_cache []

(* Reset the module-global id counters so two in-process simulation runs
   (e.g. back-to-back chaos runs compared for bit-determinism) mint
   identical controller and copy-session ids. Call only between engine
   runs. *)
let reset_ids () =
  Domain.DLS.get next_ctrl_id := 0;
  Domain.DLS.get next_copy_id := 0

type memory_report = {
  mr_proc_buffers : int;
  mr_peer_buffers : int;
  mr_capspace : int;
  mr_objects : int;
  mr_total : int;
}

(* §4's cost model: 64 MiB of RoCE buffers per managed Process, 64 MiB per
   peer Controller, per-entry capability-space cost, 24 B per
   revocation-tree object. *)
let roce_buffer_bytes = 64 * 1024 * 1024
let cap_entry_bytes = 48
let object_bytes = 24

let memory_report ctrl =
  let procs = Hashtbl.length ctrl.procs in
  let peers = List.length ctrl.peers in
  let entries =
    Hashtbl.fold (fun _ s n -> n + Hashtbl.length s.cs_caps) ctrl.capspaces 0
  in
  let objects = Hashtbl.length ctrl.objects in
  let mr_proc_buffers = procs * roce_buffer_bytes in
  let mr_peer_buffers = peers * roce_buffer_bytes in
  let mr_capspace = entries * cap_entry_bytes in
  let mr_objects = objects * object_bytes in
  {
    mr_proc_buffers;
    mr_peer_buffers;
    mr_capspace;
    mr_objects;
    mr_total = mr_proc_buffers + mr_peer_buffers + mr_capspace + mr_objects;
  }

let pp_memory_report fmt r =
  let mib b = float_of_int b /. 1024. /. 1024. in
  Format.fprintf fmt
    "@[<v>process buffers: %.0f MiB@,peer buffers: %.0f MiB@,\
     capability space: %d B@,object table: %d B@,total: %.1f MiB@]"
    (mib r.mr_proc_buffers) (mib r.mr_peer_buffers) r.mr_capspace r.mr_objects
    (mib r.mr_total)

let enqueue_syscall ctrl msg ~size ~src =
  Net.Endpoint.post ctrl.fabric ~src ctrl.sys_ep ~size msg
