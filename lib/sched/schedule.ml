open Lams_dist
open Lams_sim

type transfer = {
  src_proc : int;
  dst_proc : int;
  elements : int;
  src_side : Pack.side;
  dst_side : Pack.side;
}

type round = transfer list

type t = {
  src_procs : int;
  dst_procs : int;
  total : int;
  locals : transfer list;
  rounds : round list;
  max_degree : int;
  weighted : bool;
}

let c_builds =
  Lams_obs.Obs.counter "sched.builds" ~units:"schedules"
    ~doc:"communication schedules lowered from comm sets"

let c_rounds =
  Lams_obs.Obs.counter "sched.rounds" ~units:"rounds"
    ~doc:"contention-free rounds emitted by the inspector"

let d_congestion =
  Lams_obs.Obs.distribution "sched.max_congestion" ~units:"messages"
    ~doc:
      "per-schedule max transfer degree: messages the busiest processor \
       must serialize (lower bound on rounds, met by the coloring)"

(* Bipartite edge coloring with at most Δ colors (König's theorem,
   constructive form). Senders and receivers are the two vertex sets —
   a rank may both send and receive in the same round. For each edge
   (u, v): take α = smallest color free at u, β = smallest free at v.
   If one color is free at both, use it; otherwise flip the maximal
   α/β-alternating path starting at v — in a proper partial coloring
   the α/β subgraph has max degree 2, so the walk is a simple path, and
   it cannot end at u (it would have to arrive there on an α edge, but
   α is free at u) — after which α is free at both ends. Every edge
   therefore gets a color < Δ, i.e. rounds <= max degree. *)
let color_edges ~n_src ~n_dst (edges : (int * int) array) =
  let ne = Array.length edges in
  let deg_s = Array.make (max 1 n_src) 0 in
  let deg_d = Array.make (max 1 n_dst) 0 in
  Array.iter
    (fun (u, v) ->
      deg_s.(u) <- deg_s.(u) + 1;
      deg_d.(v) <- deg_d.(v) + 1)
    edges;
  let delta =
    max (Array.fold_left max 0 deg_s) (Array.fold_left max 0 deg_d)
  in
  let width = max 1 delta in
  (* src_at.(u).(c) / dst_at.(v).(c): edge id colored [c] at that
     vertex, or -1. *)
  let src_at = Array.make_matrix (max 1 n_src) width (-1) in
  let dst_at = Array.make_matrix (max 1 n_dst) width (-1) in
  let colors = Array.make (max 1 ne) (-1) in
  let free_at mat x =
    let c = ref 0 in
    while mat.(x).(!c) >= 0 do
      incr c
    done;
    !c
  in
  Array.iteri
    (fun e (u, v) ->
      let a = free_at src_at u in
      let b = free_at dst_at v in
      let c =
        if a = b || dst_at.(v).(a) < 0 then a
        else begin
          (* Walk the α/β path from v: α-edge at a receiver, β-edge at
             a sender, alternating. Collect, then flip in two passes
             (clear-then-set avoids ordering hazards at shared
             vertices). *)
          let path = ref [] in
          let continue_ = ref true in
          let at_dst = ref true in
          let vertex = ref v in
          while !continue_ do
            let edge =
              if !at_dst then dst_at.(!vertex).(a)
              else src_at.(!vertex).(b)
            in
            if edge < 0 then continue_ := false
            else begin
              path := edge :: !path;
              let eu, ev = edges.(edge) in
              vertex := (if !at_dst then eu else ev);
              at_dst := not !at_dst
            end
          done;
          let path = List.rev !path in
          List.iter
            (fun e' ->
              let eu, ev = edges.(e') in
              let c' = colors.(e') in
              if src_at.(eu).(c') = e' then src_at.(eu).(c') <- -1;
              if dst_at.(ev).(c') = e' then dst_at.(ev).(c') <- -1)
            path;
          List.iter
            (fun e' ->
              let eu, ev = edges.(e') in
              let c' = if colors.(e') = a then b else a in
              colors.(e') <- c';
              src_at.(eu).(c') <- e';
              dst_at.(ev).(c') <- e')
            path;
          a
        end
      in
      colors.(e) <- c;
      src_at.(u).(c) <- e;
      dst_at.(v).(c) <- e)
    edges;
  (colors, delta)

let build ~src_layout ~src_section ~dst_layout ~dst_section =
  let cs = Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section in
  let lower (tr : Comm_sets.transfer) =
    { src_proc = tr.Comm_sets.src_proc;
      dst_proc = tr.Comm_sets.dst_proc;
      elements = tr.Comm_sets.elements;
      src_side =
        Pack.build_side ~layout:src_layout ~section:src_section
          ~proc:tr.Comm_sets.src_proc tr.Comm_sets.runs;
      dst_side =
        Pack.build_side ~layout:dst_layout ~section:dst_section
          ~proc:tr.Comm_sets.dst_proc tr.Comm_sets.runs }
  in
  let locals, cross =
    List.partition
      (fun (tr : Comm_sets.transfer) ->
        tr.Comm_sets.src_proc = tr.Comm_sets.dst_proc)
      cs.Comm_sets.transfers
  in
  let locals = List.map lower locals in
  let cross = Array.of_list (List.map lower cross) in
  let edges = Array.map (fun tr -> (tr.src_proc, tr.dst_proc)) cross in
  let colors, delta =
    color_edges ~n_src:src_layout.Layout.p ~n_dst:dst_layout.Layout.p edges
  in
  (* Bucket edges by color in one pass (the Δ·E rescans this replaces
     were quadratic in the transfer count); cons-then-reverse keeps each
     round in the deterministic edge order the filteri produced. *)
  let rounds =
    let buckets = Array.make (max 1 delta) [] in
    Array.iteri (fun e tr -> buckets.(colors.(e)) <- tr :: buckets.(colors.(e))) cross;
    Array.to_list buckets
    |> List.filter_map (function [] -> None | r -> Some (List.rev r))
  in
  let t =
    { src_procs = src_layout.Layout.p;
      dst_procs = dst_layout.Layout.p;
      total = cs.Comm_sets.total;
      locals;
      rounds;
      max_degree = delta;
      weighted = false }
  in
  Lams_obs.Obs.incr c_builds;
  Lams_obs.Obs.add c_rounds (List.length rounds);
  Lams_obs.Obs.observe d_congestion (float_of_int delta);
  t

let rounds_count t = List.length t.rounds

(* ------------------------------------------------------------------ *)
(* Cost-aware rounds.                                                  *)

let c_reweights =
  Lams_obs.Obs.counter "sched.reweights" ~units:"schedules"
    ~doc:"schedules rebuilt into cost-aware weighted rounds"

let c_splits =
  Lams_obs.Obs.counter "sched.splits" ~units:"transfers"
    ~doc:"transfers split across rounds by the per-round budget"

let weigh tr ~cost =
  float_of_int tr.elements *. cost ~src:tr.src_proc ~dst:tr.dst_proc

let critical_path t ~cost =
  List.fold_left
    (fun acc round ->
      acc
      +. List.fold_left (fun m tr -> Float.max m (weigh tr ~cost)) 0. round)
    0. t.rounds

(* Cut one transfer into [parts] near-equal pieces at buffer-position
   boundaries. Both sides share the buffer order by construction, so
   cutting them at the same positions yields transfers that move the
   same elements. Clamped so every piece keeps at least one element. *)
let split_transfer tr ~parts =
  let parts = max 1 (min parts tr.elements) in
  if parts = 1 then [ tr ]
  else begin
    let n = tr.elements in
    let rec go tr i acc =
      if i = parts - 1 then List.rev (tr :: acc)
      else begin
        let len = ((i + 1) * n / parts) - (i * n / parts) in
        let src_l, src_r = Pack.split tr.src_side ~at:len in
        let dst_l, dst_r = Pack.split tr.dst_side ~at:len in
        let piece =
          { tr with elements = len; src_side = src_l; dst_side = dst_l }
        in
        go
          { tr with
            elements = tr.elements - len;
            src_side = src_r;
            dst_side = dst_r }
          (i + 1) (piece :: acc)
      end
    in
    Lams_obs.Obs.incr c_splits;
    go tr 0 []
  end

(* Greedy weighted grouping: place transfers heaviest-first into
   conflict-free rounds, minimizing the schedule's critical path
   (sum over rounds of the heaviest transfer in the round). Best-fit
   order: a round whose current maximum already dominates the new
   weight costs nothing (prefer the tightest such fit, keeping roomy
   rounds available for heavy transfers); otherwise the round with the
   largest maximum minimizes the increase; otherwise open a new round.
   Scanning in creation order with first-wins ties keeps the result
   deterministic. *)
type 'tag group = {
  mutable members : (transfer * 'tag) list;
  srcs : (int, unit) Hashtbl.t;
  dsts : (int, unit) Hashtbl.t;
  mutable max_w : float;
}

let regroup ~weight items =
  let weighted = List.map (fun ((tr, _) as it) -> (it, weight tr)) items in
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) weighted
  in
  let groups : 'tag group list ref = ref [] in
  List.iter
    (fun (((tr : transfer), _) as item, w) ->
      let fits g =
        (not (Hashtbl.mem g.srcs tr.src_proc))
        && not (Hashtbl.mem g.dsts tr.dst_proc)
      in
      let best =
        List.fold_left
          (fun best g ->
            if not (fits g) then best
            else
              match best with
              | None -> Some g
              | Some b ->
                  (* Dominating rounds beat non-dominating; among
                     dominating prefer the smallest max, among
                     non-dominating the largest. *)
                  let dom g = g.max_w >= w in
                  if dom g && ((not (dom b)) || g.max_w < b.max_w) then Some g
                  else if (not (dom g)) && (not (dom b)) && g.max_w > b.max_w
                  then Some g
                  else best)
          None !groups
      in
      let g =
        match best with
        | Some g -> g
        | None ->
            let g =
              { members = []; srcs = Hashtbl.create 8;
                dsts = Hashtbl.create 8; max_w = 0. }
            in
            groups := !groups @ [ g ];
            g
      in
      g.members <- item :: g.members;
      Hashtbl.add g.srcs tr.src_proc ();
      Hashtbl.add g.dsts tr.dst_proc ();
      if w > g.max_w then g.max_w <- w)
    sorted;
  List.map (fun g -> List.rev g.members) !groups

let reweight ?budget t ~cost =
  let cross = List.concat t.rounds in
  if cross = [] then t
  else begin
    let neutral_budget =
      List.fold_left (fun a tr -> Float.max a (float_of_int tr.elements)) 1.
        cross
    in
    let budget =
      match budget with
      | Some b -> if b <= 0. then invalid_arg "Schedule.reweight: budget <= 0" else b
      | None -> neutral_budget
    in
    let neutral =
      List.for_all
        (fun tr -> cost ~src:tr.src_proc ~dst:tr.dst_proc = 1.0)
        cross
    in
    if neutral && List.for_all (fun tr -> weigh tr ~cost <= budget) cross then
      (* No health signal and nothing over budget: the unweighted König
         schedule is already optimal; hand it back untouched so the
         adaptive path is bit-identical to the cost-blind one. *)
      t
    else begin
      let pieces =
        List.concat_map
          (fun tr ->
            let w = weigh tr ~cost in
            if w > budget then
              split_transfer tr
                ~parts:(int_of_float (ceil (w /. budget)))
            else [ tr ])
          cross
      in
      let rounds =
        regroup ~weight:(fun tr -> weigh tr ~cost)
          (List.map (fun tr -> (tr, ())) pieces)
        |> List.map (List.map fst)
      in
      Lams_obs.Obs.incr c_reweights;
      { t with rounds; weighted = true }
    end
  end

let cross_elements t =
  List.fold_left
    (fun acc round ->
      List.fold_left (fun acc tr -> acc + tr.elements) acc round)
    0 t.rounds

let rebase t ~src_delta ~dst_delta =
  if src_delta = 0 && dst_delta = 0 then t
  else begin
    let shift tr =
      { tr with
        src_side = Pack.shift tr.src_side src_delta;
        dst_side = Pack.shift tr.dst_side dst_delta }
    in
    { t with
      locals = List.map shift t.locals;
      rounds = List.map (List.map shift) t.rounds }
  end

let validate t =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let check_round i round =
    let seen_src = Hashtbl.create 8 and seen_dst = Hashtbl.create 8 in
    List.fold_left
      (fun acc tr ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
            if tr.src_proc = tr.dst_proc then
              fail "round %d contains self-transfer on %d" i tr.src_proc
            else if Hashtbl.mem seen_src tr.src_proc then
              fail "round %d: processor %d sends twice" i tr.src_proc
            else if Hashtbl.mem seen_dst tr.dst_proc then
              fail "round %d: processor %d receives twice" i tr.dst_proc
            else begin
              Hashtbl.add seen_src tr.src_proc ();
              Hashtbl.add seen_dst tr.dst_proc ();
              Ok ()
            end)
      (Ok ()) round
  in
  let check_sides tr acc =
    match acc with
    | Error _ as e -> e
    | Ok () ->
        if tr.src_side.Pack.elements <> tr.elements then
          fail "transfer %d->%d: src side has %d of %d elements" tr.src_proc
            tr.dst_proc tr.src_side.Pack.elements tr.elements
        else if tr.dst_side.Pack.elements <> tr.elements then
          fail "transfer %d->%d: dst side has %d of %d elements" tr.src_proc
            tr.dst_proc tr.dst_side.Pack.elements tr.elements
        else begin
          match (Pack.check_side tr.src_side, Pack.check_side tr.dst_side) with
          | Error msg, _ ->
              fail "transfer %d->%d: src side: %s" tr.src_proc tr.dst_proc msg
          | _, Error msg ->
              fail "transfer %d->%d: dst side: %s" tr.src_proc tr.dst_proc msg
          | Ok (), Ok () -> Ok ()
        end
  in
  let rec rounds_ok i = function
    | [] -> Ok ()
    | r :: rest -> begin
        match check_round i r with
        | Error _ as e -> e
        | Ok () -> rounds_ok (i + 1) rest
      end
  in
  match rounds_ok 0 t.rounds with
  | Error _ as e -> e
  | Ok () ->
      let all = t.locals @ List.concat t.rounds in
      let delivered = List.fold_left (fun a tr -> a + tr.elements) 0 all in
      if delivered <> t.total then
        fail "schedule delivers %d of %d elements" delivered t.total
      else if (not t.weighted) && List.length t.rounds > t.max_degree then
        (* The constructive König coloring guarantees <= Δ colors; an
           unweighted schedule needing more is a coloring bug, not slack
           to allow. Weighted schedules may trade extra rounds for a
           shorter critical path (split transfers serialize their
           pieces), so only the conflict-freedom and delivery checks
           bind there. *)
        fail "%d rounds exceed max degree %d" (List.length t.rounds)
          t.max_degree
      else List.fold_left (fun acc tr -> check_sides tr acc) (Ok ()) all

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%d elements (%d local in %d pairs), %d rounds, max degree %d%s@,"
    t.total
    (List.fold_left (fun a tr -> a + tr.elements) 0 t.locals)
    (List.length t.locals) (List.length t.rounds) t.max_degree
    (if t.weighted then " (weighted)" else "");
  List.iteri
    (fun i round ->
      Format.fprintf ppf "  round %d:" i;
      List.iter
        (fun tr ->
          Format.fprintf ppf " %d->%d (%d el, %d+%d blk)" tr.src_proc
            tr.dst_proc tr.elements
            (Pack.block_count tr.src_side)
            (Pack.block_count tr.dst_side))
        round;
      Format.fprintf ppf "@,")
    t.rounds;
  Format.fprintf ppf "@]"
