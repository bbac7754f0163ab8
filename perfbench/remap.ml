(* The three redistribution workloads.

   remap-cold   every op is a schedule-cache miss: the inspector and the
                pack lowering dominate, the data plane does little.
   remap-warm   a few large redistributions repeated with their
                schedules cached and the payload pool warm: pack, rounds
                and unpack dominate, the inspector runs only in set-up.
   remap-lossy  cached schedules through the reliable protocol and the
                adaptive planner on a fresh faulty fabric per op.

   Every op runs in the executor's default sequential mode and is
   checked against the legacy Section_ops.copy oracle outside the timed
   interval. *)

open Common
module Section = Lams_dist.Section
module Distribution = Lams_dist.Distribution
module Darray = Lams_sim.Darray
module Local_store = Lams_sim.Local_store
module Comm_sets = Lams_sim.Comm_sets
module Section_ops = Lams_sim.Section_ops
module Network = Lams_sim.Network
module Fault_model = Lams_sim.Fault_model
module Fbuf = Lams_util.Fbuf
module Schedule = Lams_sched.Schedule
module Executor = Lams_sched.Executor
module Pack = Lams_sched.Pack
module Cache = Lams_sched.Cache
module Pool = Lams_sched.Pool
module Link_health = Lams_sched.Link_health

(* --- ops --- *)

type op = {
  cls : string;  (** regime and machine size; names the op's arrays *)
  p : int;
  n : int;
  k_src : int;
  k_dst : int;
  src_sec : Section.t;
  dst_sec : Section.t;
}

type regime = {
  name : string;
  ks : int;
  kd : int;
  sections : n:int -> Prng.t -> Section.t * Section.t;
}

(* Both sides take the same section, trimmed by a seeded amount at each
   end so no two ops share a redistribution. *)
let contiguous ~n g =
  let lo = Prng.int g 64 and trim = Prng.int g 64 in
  let s = Section.make ~lo ~hi:(n - 1 - trim) ~stride:1 in
  (s, s)

(* The source walks down one element at a time while the destination
   steps by three: a descending and a non-unit stride in one op. *)
let reversed_strided ~n g =
  let lo = Prng.int g 64 and trim = Prng.int g 64 in
  let count = (n - lo - trim) / 3 in
  let top = n - 1 - trim in
  ( Section.make ~lo:top ~hi:(top - count + 1) ~stride:(-1),
    Section.make ~lo ~hi:(lo + (3 * (count - 1))) ~stride:3 )

let whole ~n _ =
  let s = Section.whole ~n in
  (s, s)

let regime name ks kd = { name; ks; kd; sections = contiguous }

let make_op g ~p ~n r =
  let src_sec, dst_sec = r.sections ~n g in
  { cls = Printf.sprintf "%s@p%d" r.name p; p; n; k_src = r.ks; k_dst = r.kd;
    src_sec; dst_sec }

let describe o =
  let sec (s : Section.t) = Printf.sprintf "%d:%d:%d" s.lo s.hi s.stride in
  Printf.sprintf "%s n=%d cyclic(%d)->cyclic(%d) %s -> %s" o.cls o.n o.k_src
    o.k_dst (sec o.src_sec) (sec o.dst_sec)

(* Cold: five regimes at three machine sizes, n = 2048 p, with p = 8
   taking three shares of every cycle. Per-op cost grows steeply with
   p, and the large ops slow down most when other tenants load the
   machine's memory system; in equal shares the median falls among them
   or at a gap between classes, and moves by a third from run to run.
   With the extra shares it falls among the small, cache-resident ops,
   while the large ones still set most of ops_per_s and the tail. *)
let cold_regimes =
  [ regime "coarse" 64 256; regime "fine" 1 64; regime "identity" 1 1;
    regime "odd" 7 13;
    { name = "reversed-strided"; ks = 8; kd = 16; sections = reversed_strided } ]

let cold_classes =
  List.concat_map (fun p -> List.map (fun r -> (p, r)) cold_regimes) [ 8; 8; 8; 32; 64 ]

(* Warm and lossy repeat whole-array remaps of fixed shapes: how an
   unaligned section cuts the blocks changes an op's cost severalfold,
   and a repeated op must cost the same under every seed. *)
let fixed name ks kd = { name; ks; kd; sections = whole }

(* Warm: long blocks (coarse both ways) and short blocks (a cyclic(1)
   side, 31 rounds), sized so one cycle of the three moves more bytes
   than a 105 MiB last-level cache holds. *)
let warm_shapes =
  [ (8, 3 lsl 20, fixed "coarse" 512 2048);
    (32, 1 lsl 20, fixed "fine" 1 64);
    (8, 3 lsl 20, fixed "coarse-back" 2048 512) ]

let lossy_shapes =
  [ (8, 16384, fixed "coarse" 64 256); (8, 16384, fixed "fine" 1 64);
    (8, 16384, fixed "odd" 7 13) ]

(* Cold ops cycle through every class, in a seeded order per cycle;
   warm and lossy ops repeat their shapes in a fixed rotation (the
   order of the set-up builds decides the heap's peak, so it must not
   move with the seed). *)
let cold_ops ~seed ~count =
  let g = rng ~seed ~salt:1 in
  let classes = Array.of_list cold_classes in
  Array.concat
    (List.init (count / Array.length classes) (fun _ ->
         let order = Array.copy classes in
         Prng.shuffle g order;
         Array.map (fun (p, r) -> make_op g ~p ~n:(2048 * p) r) order))

let rotation ~count shapes =
  (* whole-array sections draw nothing from the generator *)
  let g = Prng.create 0L in
  let fixed = Array.of_list (List.map (fun (p, n, r) -> make_op g ~p ~n r) shapes) in
  Array.init count (fun i -> fixed.(i mod Array.length fixed))

(* --- arrays --- *)

type slot = { src : Darray.t; dst : Darray.t; check : Darray.t }

let data d m = Local_store.data (Darray.local d m)

let iter_stores d f =
  for m = 0 to Darray.procs d - 1 do
    f (data d m)
  done

(* Source contents: a seeded xorshift stream per store, cheap enough
   that filling the warm arrays stays a small part of set-up. *)
let make_slot g o =
  let mk name k = Darray.create ~name ~n:o.n ~p:o.p ~dist:(Distribution.Block_cyclic k) in
  let src = mk "S" o.k_src in
  iter_stores src (fun b ->
      let x = ref (1 + Prng.int g 0x3FFFFFFF) in
      for i = 0 to Fbuf.length b - 1 do
        x := !x lxor (!x lsl 13) land 0xFFFFFFFF;
        x := !x lxor (!x lsr 17);
        x := !x lxor (!x lsl 5) land 0xFFFFFFFF;
        Fbuf.unsafe_set b i (float_of_int !x)
      done);
  { src; dst = mk "D" o.k_dst; check = mk "C" o.k_dst }

let slots_for ~seed ops =
  let g = rng ~seed ~salt:3 in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun o -> if not (Hashtbl.mem tbl o.cls) then Hashtbl.add tbl o.cls (make_slot g o))
    ops;
  tbl

(* A hash of every source element's bits: what `perfbench.exe ops`
   prints so two seeds can be told apart by their inputs. *)
let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  iter_stores s.src (fun b ->
      for i = 0 to Fbuf.length b - 1 do
        let x = Int64.mul (Int64.logxor !h (Int64.bits_of_float (Fbuf.unsafe_get b i))) 0x100000001b3L in
        h := Int64.logxor x (Int64.shift_right_logical x 32)
      done);
  !h

let same_contents a b =
  let ok = ref true in
  for m = 0 to Darray.procs a - 1 do
    if not (Fbuf.equal (data a m) (data b m)) then ok := false
  done;
  !ok

let poison = -1.0

let oracle o s =
  ignore
    (Section_ops.copy ~src:s.src ~src_section:o.src_sec ~dst:s.check
       ~dst_section:o.dst_sec ()
      : Network.t)

(* Overwrite a seeded sample of the destination section so an op that
   silently did nothing cannot pass the comparison. *)
let poison_sample g o s =
  let count = Section.count o.dst_sec in
  for _ = 1 to 16 do
    Darray.set s.dst (Section.nth o.dst_sec (Prng.int g count)) poison
  done

(* --- the fabric of remap-lossy --- *)

let fault_rates =
  { Fault_model.drop = 0.05; duplicate = 0.03; reorder = 0.05; corrupt = 0.02;
    delay = 0.05 }

(* Links 0->1 and 1->0 carry one element per tick. *)
let slow_link ~p link = if link = 1 || link = p then Some 1.0 else None

let lossy_net ~seed o =
  let net = Network.create ~p:o.p in
  Network.set_faults net
    (Some
       (Fault_model.create ~rates:fault_rates ~bandwidth:(slow_link ~p:o.p) ~seed ()));
  net

(* The fabric of the next lossy op, made fresh and untimed in its
   preparation. Its fault seed is the next draw of a stream seeded by
   the workload seed: the run replays exactly, and a run's figures
   average over many fault sequences instead of riding on one. *)
let fabric = ref (Network.create ~p:1)

(* --- one op, three ways --- *)

type workload = {
  ops : op array;
  slots : (string, slot) Hashtbl.t;
  prep : op -> slot -> unit;  (** untimed *)
  exec : op -> slot -> int;  (** timed; returns the simulated ticks *)
  verify : op -> slot -> bool;  (** untimed *)
  cycle : int;  (** ops in one cycle of the mix *)
  warm_cycles : int;  (** untimed cycles that end set-up *)
  cold : bool;
  lossy : bool;  (** runs on [!fabric] through the adaptive planner *)
}

let distinct ops =
  let seen = Hashtbl.create 8 in
  Array.to_list ops
  |> List.filter (fun o ->
         if Hashtbl.mem seen o.cls then false
         else begin
           Hashtbl.add seen o.cls ();
           true
         end)

let redistribute ?net ?adaptive o s =
  Executor.redistribute ?net ?adaptive ~src:s.src ~src_section:o.src_sec ~dst:s.dst
    ~dst_section:o.dst_sec ()

let cold_workload ~seed ~count =
  let ops = cold_ops ~seed ~count in
  let slots = slots_for ~seed ops in
  {
    ops;
    slots;
    (* A cold op also starts from a collected heap: the inspector's
       garbage is large, and without this each op would pay for the
       major-GC debt its predecessors left behind. *)
    prep =
      (fun _ s ->
        iter_stores s.dst (fun b -> Fbuf.fill b poison);
        iter_stores s.check (fun b -> Fbuf.fill b poison);
        Cache.clear ();
        Lams_core.Plan_cache.clear ();
        Pool.clear ();
        Gc.full_major ());
    exec = (fun o s -> Network.now (redistribute o s));
    verify =
      (fun o s ->
        oracle o s;
        same_contents s.dst s.check);
    cycle = List.length cold_classes;
    warm_cycles = 1;
    cold = true;
    lossy = false;
  }

(* Warm and lossy: the destination holds the expected result after
   set-up, so the oracle runs once per shape and each op is compared
   against it. *)
let cached_workload ~seed ~ops ~exec ~lossy =
  let slots = slots_for ~seed ops in
  let g = rng ~seed ~salt:4 in
  { ops; slots; prep = poison_sample g; exec;
    verify = (fun _ s -> same_contents s.dst s.check); cycle = List.length (distinct ops);
    warm_cycles = 1;
    cold = false; lossy }

let warm_workload ~seed ~count =
  cached_workload ~seed
    ~ops:(rotation ~count warm_shapes)
    ~exec:(fun o s -> Network.now (redistribute o s))
    ~lossy:false

let lossy_workload ~seed ~count =
  let w =
    cached_workload ~seed
      ~ops:(rotation ~count lossy_shapes)
      ~exec:(fun o s -> Network.now (redistribute ~net:!fabric ~adaptive:true o s))
      ~lossy:true
  in
  let faults = rng ~seed ~salt:6 in
  { w with
    prep =
      (fun o s ->
        w.prep o s;
        fabric := lossy_net ~seed:(Prng.int faults 0x3FFFFFFF) o);
    warm_cycles = 10 }

(* Set-up ends with untimed cycles of the op mix: on the cached
   workloads they build every schedule through the cache and warm the
   pool, and on remap-lossy they also give the link-health table a
   history to plan from; on remap-cold one cycle grows the heap to its
   working size, so the first timed ops do not pay for that. The oracle
   result is recorded afterwards, outside set-up: it is the check, not
   the system. *)
let warm_up w =
  for _ = 1 to w.warm_cycles do
    Array.iteri
      (fun i o ->
        if i < w.cycle then begin
          let s = Hashtbl.find w.slots o.cls in
          w.prep o s;
          ignore (w.exec o s : int)
        end)
      w.ops
  done

let record_expected w =
  List.iter (fun o -> oracle o (Hashtbl.find w.slots o.cls)) (distinct w.ops)

(* --- timed loop --- *)

type run = {
  latencies : float list;  (** successful ops, in op order *)
  failed : int;
  ticks : int;
}

let empty_run = { latencies = []; failed = 0; ticks = 0 }

(* One op: untimed preparation, the timed call (with Obs switched on
   around it alone when [traced], so the oracle's own traffic is never
   counted), then the untimed check. *)
let run_op ?(traced = false) w acc o =
  let s = Hashtbl.find w.slots o.cls in
  w.prep o s;
  if traced then Obs.set_enabled true;
  let outcome =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
        match time_us (fun () -> w.exec o s) with
        | r -> Ok r
        | exception e -> Error e)
  in
  match outcome with
  | Ok (t, us) ->
      if w.verify o s then { acc with latencies = us :: acc.latencies; ticks = acc.ticks + t }
      else begin
        Printf.eprintf "oracle mismatch: %s\n%!" (describe o);
        { acc with failed = acc.failed + 1 }
      end
  | Error e ->
      Printf.eprintf "op raised %s: %s\n%!" (Printexc.to_string e) (describe o);
      { acc with failed = acc.failed + 1 }

let finish_run r = { r with latencies = List.rev r.latencies }

(* --- the traced run: layers timed from outside --- *)

let transfers (sch : Schedule.t) = sch.locals @ List.concat sch.rounds

type profile = {
  comm_sets_us : float;
  build_side_us : float;
  color_us : float;  (** derived: Schedule.build minus the two above *)
  find_us : float;
  run_us : float;
  pack_us : float;
  unpack_us : float;
  side_elements : int;
  blocks : int;
  rounds : int;
  max_degree : int;
  critical_path : float;
}

let lowering o s =
  let src_layout = Darray.layout s.src and dst_layout = Darray.layout s.dst in
  let cs, comm_sets_us =
    time_us (fun () ->
        Comm_sets.build ~src_layout ~src_section:o.src_sec ~dst_layout
          ~dst_section:o.dst_sec)
  in
  let (), build_side_us =
    time_us (fun () ->
        List.iter
          (fun (tr : Comm_sets.transfer) ->
            ignore
              (Pack.build_side ~layout:src_layout ~section:o.src_sec
                 ~proc:tr.src_proc tr.runs
                : Pack.side);
            ignore
              (Pack.build_side ~layout:dst_layout ~section:o.dst_sec
                 ~proc:tr.dst_proc tr.runs
                : Pack.side))
          cs.transfers)
  in
  let _, build_us =
    time_us (fun () ->
        Schedule.build ~src_layout ~src_section:o.src_sec ~dst_layout
          ~dst_section:o.dst_sec)
  in
  (comm_sets_us, build_side_us, build_us -. comm_sets_us -. build_side_us)

(* Pack in the executor's order (rank by rank, each rank's transfers
   in schedule order) and unpack in round order, so the standalone
   calls walk memory the way the exchange does. *)
let pack_unpack (sch : Schedule.t) s =
  let trs = transfers sch in
  let bufs = List.map (fun (tr : Schedule.transfer) -> (tr, Pool.acquire tr.elements)) trs in
  let procs = max sch.src_procs sch.dst_procs in
  let by_rank side =
    List.concat
      (List.init procs (fun m ->
           List.filter (fun ((tr : Schedule.transfer), _) -> side tr = m) bufs))
  in
  let packs = by_rank (fun tr -> tr.src_proc) in
  let (), pack_us =
    time_us (fun () ->
        List.iter
          (fun ((tr : Schedule.transfer), buf) ->
            Pack.pack tr.src_side ~data:(data s.src tr.src_proc) ~buf)
          packs)
  in
  let (), unpack_us =
    time_us (fun () ->
        List.iter
          (fun ((tr : Schedule.transfer), buf) ->
            Pack.unpack tr.dst_side ~buf ~data:(data s.dst tr.dst_proc))
          bufs)
  in
  List.iter (fun (_, buf) -> Pool.release buf) bufs;
  (pack_us, unpack_us)

(* Layer-by-layer replay of a chunk of ops (one cycle of the mix). Each
   stage walks the whole chunk before the next starts, so no op's data
   is still in cache from its previous stage — on remap-warm one cycle
   moves more bytes than the last-level cache holds. Lowering is timed
   once per distinct redistribution on the cached workloads, where it
   is set-up work paid once per shape. *)
let profile_chunk w lowered chunk =
  let runs =
    List.map
      (fun o ->
        let s = Hashtbl.find w.slots o.cls in
        w.prep o s;
        let sch, find_us =
          time_us (fun () ->
              Cache.find ~src_layout:(Darray.layout s.src) ~src_section:o.src_sec
                ~dst_layout:(Darray.layout s.dst) ~dst_section:o.dst_sec)
        in
        let net = if w.lossy then Some !fabric else None in
        let _, run_us =
          time_us (fun () ->
              Executor.run ?net ~adaptive:w.lossy sch ~src:s.src ~dst:s.dst)
        in
        (o, s, sch, find_us, run_us))
      chunk
  in
  let packs = List.map (fun (_, s, sch, _, _) -> pack_unpack sch s) runs in
  List.map2
    (fun (o, s, sch, find_us, run_us) (pack_us, unpack_us) ->
      (* the plan the adaptive executor would make next, under the link
         costs the chunk left behind; made after the timed calls so its
         garbage is collected on nobody's clock *)
      let critical_path =
        Schedule.critical_path
          (Schedule.reweight sch ~cost:Link_health.cost)
          ~cost:Link_health.cost
      in
      let comm_sets_us, build_side_us, color_us =
        match Hashtbl.find_opt lowered o.cls with
        | Some l when not w.cold -> l
        | _ ->
            let l = lowering o s in
            Hashtbl.replace lowered o.cls l;
            l
      in
      let trs = transfers sch in
      {
        comm_sets_us;
        build_side_us;
        color_us;
        find_us;
        run_us;
        pack_us;
        unpack_us;
        side_elements =
          2 * List.fold_left (fun a (tr : Schedule.transfer) -> a + tr.elements) 0 trs;
        blocks =
          List.fold_left
            (fun a (tr : Schedule.transfer) ->
              a + Pack.block_count tr.src_side + Pack.block_count tr.dst_side)
            0 trs;
        rounds = Schedule.rounds_count sch;
        max_degree = sch.max_degree;
        critical_path;
      })
    runs packs

let sum_us r = List.fold_left ( +. ) 0. r.latencies

(* Per-layer metrics of one remap workload. [a] is the untraced half,
   [b] the same ops with Obs on, [snap] the counters [b] left behind,
   [profiles] the layer-by-layer replay of the first [c_ops]. *)
let layers ~a ~b ~snap ~b_ops ~c_ops ~profiles =
  let per_op name = ratio (counter snap name) b_ops in
  let sum names = List.fold_left (fun acc n -> acc + counter snap n) 0 names in
  let pf f = mean (List.map f profiles) in
  let pack_us = pf (fun p -> p.pack_us) and unpack_us = pf (fun p -> p.unpack_us) in
  let side_elements = pf (fun p -> float_of_int p.side_elements) in
  let blocks = pf (fun p -> float_of_int p.blocks) in
  let acks = counter snap "sched.reliable.acks" in
  let data_sends =
    acks + counter snap "sched.reliable.downgrades" + counter snap "sched.reliable.retransmits"
  in
  (* Op time of the same ops, untraced, from the first half. *)
  let c_op_us =
    mean (List.filteri (fun i _ -> i < c_ops) a.latencies)
  in
  let ops_per_us r = float_of_int (List.length r.latencies) /. sum_us r in
  [
    ("sim.comm_sets.build_us", pf (fun p -> p.comm_sets_us));
    ("sim.network.messages", per_op "sim.network.messages");
    ("sim.network.bytes", per_op "sim.network.bytes");
    ( "sim.network.faults.total",
      ratio
        (sum
           [ "sim.network.faults.dropped"; "sim.network.faults.duplicated";
             "sim.network.faults.reordered"; "sim.network.faults.corrupted";
             "sim.network.faults.delayed"; "sim.network.faults.crashes" ])
        b_ops );
    ("sim_ticks", float_of_int a.ticks);
    ( "core.tables_built",
      ratio (sum [ "kns.tables_built"; "fsm.tables_built"; "shared_fsm.tables_built" ]) b_ops );
    ("core.kns.points_visited", per_op "kns.points_visited");
    ("sched.pack.build_side_us", pf (fun p -> p.build_side_us));
    ("sched.schedule.color_us", pf (fun p -> p.color_us));
    ("sched.schedule.rounds", pf (fun p -> float_of_int p.rounds));
    ("sched.schedule.max_degree", pf (fun p -> float_of_int p.max_degree));
    ("sched.pack.blocks", blocks);
    ("sched.pack.mean_block_len", if blocks > 0. then side_elements /. blocks else 0.);
    ("sched.cache.find_us", pf (fun p -> p.find_us));
    ( "sched.cache.hit_ratio",
      ratio (counter snap "sched.cache.hits")
        (sum [ "sched.cache.hits"; "sched.cache.misses" ]) );
    ("sched.pack.pack_us", pack_us);
    ("sched.pack.unpack_us", unpack_us);
    (* computed: every packed element is read once and written once by
       pack, and again by unpack *)
    ( "sched.pack.gb_s",
      if pack_us +. unpack_us > 0. then
        side_elements *. 2. *. float_of_int Network.bytes_per_element
        /. (pack_us +. unpack_us) /. 1e3
      else 0. );
    ("sched.executor.exchange_us", pf (fun p -> p.run_us -. p.pack_us -. p.unpack_us));
    ( "sched.pool.hit_ratio",
      ratio (counter snap "sched.pool.hits")
        (sum [ "sched.pool.hits"; "sched.pool.misses" ]) );
    ("sched.reliable.retransmits", per_op "sched.reliable.retransmits");
    ("sched.reliable.acks", per_op "sched.reliable.acks");
    ("sched.reliable.downgrades", per_op "sched.reliable.downgrades");
    ("sched.reliable.dup_drops", per_op "sched.reliable.dup_drops");
    ("sched.reliable.corrupt_drops", per_op "sched.reliable.corrupt_drops");
    ("sched.reliable.goodput", ratio acks data_sends);
    ("sched.reweights", per_op "sched.reweights");
    ("sched.splits", per_op "sched.splits");
    ("sched.executor.replans", per_op "sched.executor.replans");
    ("sched.executor.legacy_fallbacks", per_op "sched.executor.legacy_fallbacks");
    ("sched.schedule.critical_path", pf (fun p -> p.critical_path));
    ( "trace.coverage",
      if c_op_us > 0. then pf (fun p -> p.find_us +. p.run_us) /. c_op_us else 0. );
    ("trace.overhead", if a.latencies <> [] && b.latencies <> [] then ops_per_us b /. ops_per_us a else 0.);
  ]

(* --- the workload runs --- *)

let working_set_bytes w =
  List.fold_left
    (fun acc o ->
      acc + ((2 * o.n) + Section.count o.src_sec) * Network.bytes_per_element)
    0 (distinct w.ops)

let info w ~count =
  let elements =
    Array.fold_left (fun a o -> a + Section.count o.src_sec) 0 w.ops
  in
  [ ("clients", Int 1); ("loop", Str "closed"); ("op_count", Int count);
    ("elements_per_op", Int (elements / max 1 (Array.length w.ops)));
    ("working_set_bytes", Int (working_set_bytes w)) ]

let go ~make ~repeats ~count ~trace =
  let w, setups_s =
    repeated_setup ~repeats (fun () ->
        let w = make ~count in
        warm_up w;
        w)
  in
  if not w.cold then record_expected w;
  let finish ~latencies ~timed_s ~attempted ~failed ~ticks ~layers =
    { setups_s; latencies_us = Array.of_list latencies; timed_s; attempted;
      failed; sim_ticks = ticks; daemon_status = None; info = info w ~count;
      layers }
  in
  if not trace then begin
    let r = finish_run (Array.fold_left (run_op w) empty_run w.ops) in
    finish ~latencies:r.latencies ~timed_s:(sum_us r /. 1e6) ~attempted:count
      ~failed:r.failed ~ticks:r.ticks ~layers:[]
  end
  else begin
    (* The first half of the ops runs one cycle of the mix at a time:
       untraced, then traced, then (for the first quarter) replayed
       layer by layer, so the three see the same process state and
       their ratios carry no drift. *)
    let cycle = w.cycle in
    let whole_cycles n = max cycle (n / cycle * cycle) in
    let half = Array.sub w.ops 0 (min count (whole_cycles (count / 2))) in
    let c_ops = min (Array.length half) (whole_cycles (count / 4)) in
    let lowered = Hashtbl.create 16 in
    Obs.reset ();
    let a, b, profiles =
      List.fold_left
        (fun (a, b, profiles) i ->
          let chunk = Array.to_list (Array.sub half (i * cycle) cycle) in
          let a = List.fold_left (run_op w) a chunk in
          let b = List.fold_left (run_op ~traced:true w) b chunk in
          let profiles =
            if i * cycle < c_ops then List.rev_append (profile_chunk w lowered chunk) profiles
            else profiles
          in
          (a, b, profiles))
        (empty_run, empty_run, [])
        (List.init (Array.length half / cycle) Fun.id)
    in
    let a = finish_run a and b = finish_run b and profiles = List.rev profiles in
    finish ~latencies:a.latencies ~timed_s:(sum_us a /. 1e6)
      ~attempted:(2 * Array.length half) ~failed:(a.failed + b.failed) ~ticks:a.ticks
      ~layers:
        (layers ~a ~b ~snap:(Obs.snapshot ()) ~b_ops:(Array.length half) ~c_ops ~profiles)
  end
