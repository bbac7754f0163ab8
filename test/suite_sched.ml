open Lams_dist
open Lams_sim
open Lams_sched

(* Brute-force local-address oracle for one side of a transfer: the
   pack buffer holds the transfer's elements in traversal order, so
   collect every position the progressions name, sort, and place each
   with Layout.local_address. *)
let oracle_addresses ~layout ~section runs =
  let positions =
    List.concat_map Comm_sets.positions runs |> List.sort compare
  in
  Array.of_list
    (List.map
       (fun j -> Layout.local_address layout (Section.nth section j))
       positions)

let init_src ~n ~p ~k =
  Darray.of_array ~name:"ss" ~p ~dist:(Distribution.Block_cyclic k)
    (Array.init n (fun g -> float_of_int ((2 * g) + 1)))

let fresh_dst ~n ~p ~k =
  Darray.create ~name:"sd" ~n ~p ~dist:(Distribution.Block_cyclic k)

let test_build_golden () =
  (* The paper-style machine (p=4, k=3) remapped onto cyclic(5). *)
  let src_layout = Layout.create ~p:4 ~k:3
  and dst_layout = Layout.create ~p:4 ~k:5 in
  let sec = Section.make ~lo:0 ~hi:59 ~stride:1 in
  let sched =
    Schedule.build ~src_layout ~src_section:sec ~dst_layout ~dst_section:sec
  in
  (match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Tutil.check_int "total" 60 sched.Schedule.total;
  Tutil.check_bool "coloring meets the Konig bound" true
    (Schedule.rounds_count sched <= sched.Schedule.max_degree);
  Tutil.check_int "local + cross = total" 60
    (Schedule.cross_elements sched
    + List.fold_left
        (fun a (tr : Schedule.transfer) -> a + tr.Schedule.elements)
        0 sched.Schedule.locals)

let test_pp_golden () =
  let src_layout = Layout.create ~p:2 ~k:2
  and dst_layout = Layout.create ~p:2 ~k:3 in
  let sec = Section.make ~lo:0 ~hi:11 ~stride:1 in
  let sched =
    Schedule.build ~src_layout ~src_section:sec ~dst_layout ~dst_section:sec
  in
  (* Each destination side is one block: 0->1 lands on locals {1,2,3}
     of processor 1 and 1->0 on {2,3,4} of processor 0, two traversal
     segments each that the coalescer joins because they are adjacent
     in both buffer and local space. *)
  Alcotest.(check string)
    "deterministic rendering"
    "12 elements (6 local in 2 pairs), 1 rounds, max degree 1\n\
    \  round 0: 0->1 (3 el, 2+1 blk) 1->0 (3 el, 2+1 blk)\n"
    (Format.asprintf "%a" Schedule.pp sched)

(* Both section strides (descending → step = -1 blocks, ascending →
   step = 1), each across all three marshalling paths: the tiled
   kernel, its element-at-a-time twin, and the [float array] oracle
   that marshals through the element -> local map. All must agree with the
   positional address oracle and with each other. *)
let pack_roundtrip ~section ~n =
  let layout = Layout.create ~p:3 ~k:4 in
  let cs =
    Comm_sets.build ~src_layout:layout ~src_section:section
      ~dst_layout:(Layout.create ~p:2 ~k:5)
      ~dst_section:(Section.make ~lo:0 ~hi:(Section.count section - 1) ~stride:1)
  in
  List.iter
    (fun (tr : Comm_sets.transfer) ->
      let side =
        Pack.build_side ~layout ~section ~proc:tr.Comm_sets.src_proc
          tr.Comm_sets.runs
      in
      Tutil.check_int "side elements" tr.Comm_sets.elements
        side.Pack.elements;
      Tutil.check_int_array "block walk = positional oracle"
        (oracle_addresses ~layout ~section tr.Comm_sets.runs)
        (Pack.local_addresses side);
      Tutil.check_bool "both strides appear in this fixture somewhere" true
        (List.for_all
           (fun (b : Pack.block) -> b.Pack.step = 1 || b.Pack.step = -1)
           (Array.to_list side.Pack.tile));
      (* pack into a buffer, unpack into a scratch store: the blocks
         must move exactly the values the addresses name. *)
      let extent = Layout.local_extent layout ~n ~proc:tr.Comm_sets.src_proc in
      let data_f = Array.init extent (fun a -> float_of_int (1000 + a)) in
      let data = Lams_util.Fbuf.of_array data_f in
      let buf = Lams_util.Fbuf.create side.Pack.elements in
      Pack.pack side ~data ~buf;
      let buf_el = Lams_util.Fbuf.create side.Pack.elements in
      Pack.pack_elementwise side ~data ~buf:buf_el;
      let buf_f = Array.make side.Pack.elements 0. in
      Pack_oracle.pack_floats side ~data:data_f ~buf:buf_f;
      Tutil.check_bool "blit pack = elementwise pack" true
        (Lams_util.Fbuf.equal buf buf_el);
      Tutil.check_bool "blit pack = float-array pack" true
        (Lams_util.Fbuf.equal buf (Lams_util.Fbuf.of_array buf_f));
      let back = Lams_util.Fbuf.init extent (fun _ -> -1.) in
      Pack.unpack side ~buf ~data:back;
      let back_f = Array.make extent (-1.) in
      Pack_oracle.unpack_floats side ~buf:buf_f ~data:back_f;
      Array.iter
        (fun a ->
          Alcotest.(check (float 0.))
            "roundtrip value" data_f.(a)
            (Lams_util.Fbuf.get back a);
          Alcotest.(check (float 0.))
            "float-array roundtrip value" data_f.(a) back_f.(a))
        (Pack.local_addresses side))
    cs.Comm_sets.transfers

let test_pack_roundtrip_negative_stride () =
  pack_roundtrip ~section:(Section.make ~lo:70 ~hi:1 ~stride:(-3)) ~n:71

let test_pack_roundtrip_positive_stride () =
  pack_roundtrip ~section:(Section.make ~lo:1 ~hi:70 ~stride:3) ~n:71

let gen_redistribution =
  QCheck2.Gen.(
    let* sp = int_range 1 8 in
    let* sk = int_range 1 12 in
    let* dp = int_range 1 8 in
    let* dk = int_range 1 12 in
    let* lo = int_range 0 40 in
    let* count = int_range 1 120 in
    let* stride = int_range 1 5 in
    let* reversed = bool in
    return (sp, sk, dp, dk, lo, count, stride, reversed))

let print_redistribution (sp, sk, dp, dk, lo, count, stride, reversed) =
  Printf.sprintf "sp=%d sk=%d dp=%d dk=%d lo=%d count=%d stride=%d rev=%b" sp
    sk dp dk lo count stride reversed

let sections_of (_, _, _, _, lo, count, stride, reversed) =
  let hi = lo + ((count - 1) * stride) in
  let src_section = Section.make ~lo ~hi ~stride in
  let dst_section =
    if reversed then Section.make ~lo:hi ~hi:lo ~stride:(-stride)
    else src_section
  in
  (src_section, dst_section, hi + 1)

(* The step under which block [b] continues the run [a] in the
   coalescer: adjacent in buffer and local space under a common step,
   where a single-element block fits either step. *)
let joint (a : Pack.block) (b : Pack.block) =
  let sigma =
    if a.Pack.length > 1 then a.Pack.step
    else if b.Pack.length > 1 then b.Pack.step
    else b.Pack.start_local - a.Pack.start_local
  in
  if
    b.Pack.buf_pos = a.Pack.buf_pos + a.Pack.length
    && (sigma = 1 || sigma = -1)
    && (b.Pack.length = 1 || b.Pack.step = sigma)
    && b.Pack.start_local = a.Pack.start_local + (sigma * a.Pack.length)
  then Some sigma
  else None

let mergeable a b = Option.is_some (joint a b)

let rec maximal = function
  | a :: (b :: _ as rest) -> (not (mergeable a b)) && maximal rest
  | _ -> true

(* The expanded side, read straight off its record: tile t's blocks
   moved by t·width in the buffer and t·paving in local space, cut at
   [elements]. *)
let expand (side : Pack.side) =
  let tiles =
    if side.Pack.elements = 0 then 0
    else ((side.Pack.elements - 1) / side.Pack.width) + 1
  in
  List.concat
    (List.init tiles (fun t ->
         List.filter_map
           (fun (b : Pack.block) ->
             let buf_pos = (t * side.Pack.width) + b.Pack.buf_pos in
             if buf_pos >= side.Pack.elements then None
             else
               Some
                 { b with
                   Pack.buf_pos;
                   start_local = b.Pack.start_local + (t * side.Pack.paving);
                   length = min b.Pack.length (side.Pack.elements - buf_pos) })
           (Array.to_list side.Pack.tile)))

(* The coalescer's run count over a block sequence. *)
let coalesced_count = function
  | [] -> 0
  | b0 :: rest ->
      fst
        (List.fold_left
           (fun (n, (run : Pack.block)) b ->
             match joint run b with
             | Some sigma ->
                 (n, { run with Pack.length = run.Pack.length + b.Pack.length;
                                step = sigma })
             | None -> (n + 1, b))
           (1, b0) rest)

(* gen_redistribution, with a quarter of the cases forced onto each of
   the p = 1, k = 1 and p_src <> p_dst corners. *)
let gen_lowering =
  QCheck2.Gen.(
    let* (sp, sk, dp, dk, lo, count, stride, rev) = gen_redistribution in
    let+ corner = int_range 0 3 in
    match corner with
    | 0 -> (sp, sk, dp, dk, lo, count, stride, rev)
    | 1 -> (1, sk, 1, dk, lo, count, stride, rev)
    | 2 -> (sp, 1, dp, 1, lo, count, stride, rev)
    | _ -> (sp, sk, (if dp = sp then (sp mod 8) + 1 else dp), dk, lo, count,
            stride, rev))

let prop_lowering_equals_oracle =
  Tutil.qtest "closed-form lowering = per-segment plan oracle" gen_lowering
    ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, _ = sections_of case in
      let src_layout = Layout.create ~p:sp ~k:sk
      and dst_layout = Layout.create ~p:dp ~k:dk in
      let cs =
        Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section
      in
      let check ~what ~layout ~section ~proc runs =
        let side = Pack.build_side ~layout ~section ~proc runs in
        let oracle = Pack_oracle.build_side ~layout ~section ~proc runs in
        let fail fmt =
          Printf.ksprintf
            (fun m -> QCheck2.Test.fail_reportf "%s side on %d: %s" what proc m)
            fmt
        in
        (match Pack.check_side side with
        | Ok () -> ()
        | Error msg -> fail "malformed: %s" msg);
        if side.Pack.elements <> oracle.Pack.elements then
          fail "%d elements, oracle %d" side.Pack.elements
            oracle.Pack.elements;
        if Pack.local_addresses side <> Pack.local_addresses oracle then
          fail "element -> local map differs from the oracle";
        if Pack.block_count side > Pack.block_count oracle then
          fail "%d blocks, oracle %d" (Pack.block_count side)
            (Pack.block_count oracle);
        if not (maximal (Array.to_list side.Pack.tile)) then
          fail "tile blocks not maximal";
        let expanded = coalesced_count (expand side) in
        if Pack.block_count side <> expanded then
          fail "block_count %d, coalescer over the expanded blocks %d"
            (Pack.block_count side) expanded
      in
      List.iter
        (fun (tr : Comm_sets.transfer) ->
          check ~what:"src" ~layout:src_layout ~section:src_section
            ~proc:tr.Comm_sets.src_proc tr.Comm_sets.runs;
          check ~what:"dst" ~layout:dst_layout ~section:dst_section
            ~proc:tr.Comm_sets.dst_proc tr.Comm_sets.runs)
        cs.Comm_sets.transfers;
      true)

let test_check_side_rejects_overlap () =
  let overlapping =
    [| { Pack.buf_pos = 0; start_local = 0; length = 3; step = 1 };
       { Pack.buf_pos = 2; start_local = 7; length = 2; step = 1 } |]
  in
  let side = Pack.tiled overlapping ~width:4 ~paving:0 ~elements:4 in
  (match Pack.check_side side with
  | Error msg ->
      Alcotest.(check string)
        "names the overlap"
        "block at 2 does not start where its predecessor ends (3)" msg
  | Ok () -> Alcotest.fail "check_side accepted overlapping blocks");
  (* Schedule.validate must reject the same side inside a schedule. *)
  let lay = Layout.create ~p:2 ~k:2 in
  let sec = Section.make ~lo:0 ~hi:7 ~stride:1 in
  let sched =
    Schedule.build ~src_layout:lay ~src_section:sec ~dst_layout:lay
      ~dst_section:sec
  in
  match sched.Schedule.locals with
  | tr :: rest ->
      let bad =
        { tr with
          Schedule.src_side =
            Pack.tiled overlapping ~width:4 ~paving:0
              ~elements:tr.Schedule.elements }
      in
      Tutil.check_bool "validate rejects the malformed side" true
        (Result.is_error
           (Schedule.validate
              { sched with Schedule.locals = bad :: rest }))
  | [] -> Alcotest.fail "expected local transfers"

let test_build_side_rejects_bad_input () =
  let layout = Layout.create ~p:2 ~k:2 in
  let section = Section.whole ~n:16 in
  Alcotest.check_raises "mixed periods"
    (Invalid_argument
       "Pack.build_side: progressions must share one period, with \
        strictly ascending first < period and non-increasing counts")
    (fun () ->
      ignore
        (Pack.build_side ~layout ~section ~proc:0
           [ { Comm_sets.first = 0; period = 4; count = 4 };
             { Comm_sets.first = 1; period = 8; count = 2 } ]
          : Pack.side));
  Alcotest.check_raises "outside the section"
    (Invalid_argument "Pack.build_side: position outside the section")
    (fun () ->
      ignore
        (Pack.build_side ~layout ~section ~proc:0
           [ { Comm_sets.first = 0; period = 4; count = 5 } ]
          : Pack.side));
  (* Positions 2, 6, 10, 14 sit on processor 1 (offset 2 of a row of
     4), so lowering them for processor 0 is an ownership error. *)
  Alcotest.check_raises "not owned"
    (Invalid_argument "Pack.build_side: position not owned by its processor")
    (fun () ->
      ignore
        (Pack.build_side ~layout ~section ~proc:0
           [ { Comm_sets.first = 2; period = 4; count = 4 } ]
          : Pack.side))

(* A hand-built side whose last full tile, or only its partial tile,
   escapes the local store: pack and unpack check the side's extent
   once and then run unchecked, so they must raise before writing
   either buffer. *)
let test_pack_rejects_escaping_side () =
  let module Fbuf = Lams_util.Fbuf in
  (* Tile cells land on locals 0, 1, 5 and tile t adds 6t: nine elements
     reach local 17 in their last full tile, eight reach 13 in their
     two-cell partial tile, and the descending side runs 2, 1, ..., -3. *)
  let tile =
    [| { Pack.buf_pos = 0; start_local = 0; length = 2; step = 1 };
       { Pack.buf_pos = 2; start_local = 5; length = 1; step = 1 } |]
  in
  let full = Pack.tiled tile ~width:3 ~paving:6 ~elements:9
  and partial = Pack.tiled tile ~width:3 ~paving:6 ~elements:8
  and descending =
    Pack.tiled
      [| { Pack.buf_pos = 0; start_local = 2; length = 3; step = -1 } |]
      ~width:3 ~paving:(-3) ~elements:6
  in
  let poisoned n = Fbuf.init n (fun i -> float_of_int (-1 - i)) in
  let rejects name side ~store ~buf_len =
    let data = poisoned store and buf = poisoned buf_len in
    let data0 = Fbuf.copy data and buf0 = Fbuf.copy buf in
    Alcotest.check_raises (name ^ ": pack") (Invalid_argument "Pack.pack")
      (fun () -> Pack.pack side ~data ~buf);
    Alcotest.check_raises (name ^ ": unpack")
      (Invalid_argument "Pack.unpack") (fun () -> Pack.unpack side ~buf ~data);
    Tutil.check_bool (name ^ ": nothing written") true
      (Fbuf.equal data data0 && Fbuf.equal buf buf0)
  in
  rejects "last full tile" full ~store:17 ~buf_len:9;
  rejects "partial tile" partial ~store:13 ~buf_len:8;
  rejects "below local 0" descending ~store:8 ~buf_len:6;
  rejects "short buffer" full ~store:18 ~buf_len:8;
  (* One more cell of store and both fit: the kernel moves the map. *)
  List.iter
    (fun (side, store) ->
      let data = Fbuf.init store float_of_int in
      let buf = Fbuf.create side.Pack.elements in
      Pack.pack side ~data ~buf;
      Tutil.check_int_array "packed = element -> local map"
        (Pack.local_addresses side)
        (Array.map int_of_float (Fbuf.to_array buf)))
    [ (full, 18); (partial, 14) ]

(* Every transfer side of a redistribution case, built. *)
let sides_of_case ((sp, sk, dp, dk, _, _, _, _) as case) =
  let src_section, dst_section, _ = sections_of case in
  let src_layout = Layout.create ~p:sp ~k:sk
  and dst_layout = Layout.create ~p:dp ~k:dk in
  let cs = Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section in
  List.concat_map
    (fun (tr : Comm_sets.transfer) ->
      [ Pack.build_side ~layout:src_layout ~section:src_section
          ~proc:tr.Comm_sets.src_proc tr.Comm_sets.runs;
        Pack.build_side ~layout:dst_layout ~section:dst_section
          ~proc:tr.Comm_sets.dst_proc tr.Comm_sets.runs ])
    cs.Comm_sets.transfers

let prop_tile_stable_under_growth =
  Tutil.qtest "tile unchanged when the section grows by whole periods"
    QCheck2.Gen.(pair gen_lowering (int_range 1 2))
    ~print:(fun (case, m) ->
      Printf.sprintf "%s grow=%d" (print_redistribution case) m)
    (fun ((sp, sk, dp, dk, lo, count, stride, rev), m) ->
      let src_layout = Layout.create ~p:sp ~k:sk
      and dst_layout = Layout.create ~p:dp ~k:dk in
      (* Ascending from [lo]; a descending side starts at [top], fixed
         for both sizes, so growing moves no side's first element. *)
      let comm_sets n ~top =
        let src_section =
          Section.make ~lo ~hi:(lo + ((n - 1) * stride)) ~stride
        in
        let dst_section =
          if rev then
            Section.make ~lo:top ~hi:(top - ((n - 1) * stride))
              ~stride:(-stride)
          else src_section
        in
        ( src_section,
          dst_section,
          Comm_sets.build ~src_layout ~src_section ~dst_layout ~dst_section )
      in
      let sides n ~top =
        let src_section, dst_section, cs = comm_sets n ~top in
        List.map
          (fun (tr : Comm_sets.transfer) ->
            ( (tr.Comm_sets.src_proc, tr.Comm_sets.dst_proc),
              Pack.build_side ~layout:src_layout ~section:src_section
                ~proc:tr.Comm_sets.src_proc tr.Comm_sets.runs,
              Pack.build_side ~layout:dst_layout ~section:dst_section
                ~proc:tr.Comm_sets.dst_proc tr.Comm_sets.runs ))
          cs.Comm_sets.transfers
      in
      (* From one whole joint period on every residue is present, so the
         classes, and with them the tiles, stop changing. *)
      let period =
        let _, _, cs = comm_sets count ~top:(lo + ((count - 1) * stride)) in
        (List.hd (List.hd cs.Comm_sets.transfers).Comm_sets.runs)
          .Comm_sets.period
      in
      let n1 = count + period and n2 = count + ((m + 1) * period) in
      let top = lo + ((n2 - 1) * stride) in
      (* A collapsed side is one block of its own length, which grows
         with the section; its start and step must not move. *)
      let same (a : Pack.side) (b : Pack.side) =
        (a.Pack.tile, a.Pack.width, a.Pack.paving)
        = (b.Pack.tile, b.Pack.width, b.Pack.paving)
        ||
        match (a.Pack.tile, b.Pack.tile) with
        | [| x |], [| y |] ->
            a.Pack.width = a.Pack.elements
            && b.Pack.width = b.Pack.elements
            && x.Pack.start_local = y.Pack.start_local
            && x.Pack.step = y.Pack.step
        | _ -> false
      in
      let small = sides n1 ~top and large = sides n2 ~top in
      List.length small = List.length large
      && List.for_all2
           (fun (pair, s1, d1) (pair', s2, d2) ->
             pair = pair' && same s1 s2 && same d1 d2)
           small large)

let prop_split_shift_commute =
  Tutil.qtest "split keeps the map at any cut and commutes with shift"
    QCheck2.Gen.(triple gen_lowering (int_range 0 10_000) (int_range (-64) 64))
    ~print:(fun (case, cut, delta) ->
      Printf.sprintf "%s cut=%d delta=%d" (print_redistribution case) cut
        delta)
    (fun (case, cut, delta) ->
      List.for_all
        (fun (side : Pack.side) ->
          side.Pack.elements < 2
          ||
          let at = 1 + (cut mod (side.Pack.elements - 1)) in
          let left, right = Pack.split side ~at in
          let left', right' = Pack.split (Pack.shift side delta) ~at in
          let whole (s : Pack.side) =
            Pack.check_side s = Ok ()
            && Pack.block_count s = coalesced_count (expand s)
          in
          Array.append (Pack.local_addresses left) (Pack.local_addresses right)
          = Pack.local_addresses side
          && whole left && whole right
          && left' = Pack.shift left delta
          && right' = Pack.shift right delta)
        (sides_of_case case))

let prop_identity_collapses =
  Tutil.qtest "an identity remap is one block per side"
    QCheck2.Gen.(
      quad (int_range 1 8) (int_range 1 12) (pair (int_range 0 40) bool)
        (int_range 1 300))
    ~print:(fun (p, k, (lo, rev), count) ->
      Printf.sprintf "p=%d k=%d lo=%d rev=%b count=%d" p k lo rev count)
    (fun (p, k, (lo, rev), count) ->
      let layout = Layout.create ~p ~k in
      let hi = lo + count - 1 in
      let sec =
        if rev then Section.make ~lo:hi ~hi:lo ~stride:(-1)
        else Section.make ~lo ~hi ~stride:1
      in
      let sched =
        Schedule.build ~src_layout:layout ~src_section:sec ~dst_layout:layout
          ~dst_section:sec
      in
      sched.Schedule.rounds = []
      && List.for_all
           (fun (tr : Schedule.transfer) ->
             List.for_all
               (fun (side : Pack.side) ->
                 Array.length side.Pack.tile = 1
                 && side.Pack.width = side.Pack.elements
                 && Pack.block_count side = 1)
               [ tr.Schedule.src_side; tr.Schedule.dst_side ])
           sched.Schedule.locals)

let prop_executor_equals_legacy =
  Tutil.qtest "scheduled redistribution = legacy copy" gen_redistribution
    ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, n = sections_of case in
      let src = init_src ~n ~p:sp ~k:sk in
      let legacy = fresh_dst ~n ~p:dp ~k:dk in
      let scheduled = fresh_dst ~n ~p:dp ~k:dk in
      ignore
        (Section_ops.copy ~src ~src_section ~dst:legacy ~dst_section ()
          : Network.t);
      ignore
        (Executor.redistribute ~src ~src_section ~dst:scheduled ~dst_section
           ()
          : Network.t);
      Darray.equal_contents legacy scheduled)

let prop_rounds_contention_free =
  Tutil.qtest "rounds are valid and execute contention-free"
    gen_redistribution ~print:print_redistribution
    (fun ((sp, sk, dp, dk, _, _, _, _) as case) ->
      let src_section, dst_section, n = sections_of case in
      let sched =
        Schedule.build
          ~src_layout:(Layout.create ~p:sp ~k:sk)
          ~src_section
          ~dst_layout:(Layout.create ~p:dp ~k:dk)
          ~dst_section
      in
      (match Schedule.validate sched with
      | Ok () -> ()
      | Error msg -> QCheck2.Test.fail_report msg);
      let src = init_src ~n ~p:sp ~k:sk in
      let dst = fresh_dst ~n ~p:dp ~k:dk in
      let net = Executor.run sched ~src ~dst in
      Schedule.rounds_count sched <= sched.Schedule.max_degree
      && Network.max_congestion net <= 1
      && Network.max_link_in_flight net <= 1)

let test_parallel_equals_sequential () =
  let src_section = Section.make ~lo:3 ~hi:402 ~stride:3 in
  let n = 403 in
  let src = init_src ~n ~p:6 ~k:4 in
  let seq = fresh_dst ~n ~p:5 ~k:7 in
  let par = fresh_dst ~n ~p:5 ~k:7 in
  ignore
    (Executor.redistribute ~src ~src_section ~dst:seq
       ~dst_section:src_section ()
      : Network.t);
  ignore
    (Executor.redistribute ~parallel:true ~src ~src_section ~dst:par
       ~dst_section:src_section ()
      : Network.t);
  Tutil.check_bool "parallel executor = sequential" true
    (Darray.equal_contents seq par)

let test_overlapping_shift () =
  (* src and dst alias: A(1:99) = A(0:98) must read everything before
     writing anything, like the legacy two-phase exchange. *)
  let n = 100 in
  let a = init_src ~n ~p:4 ~k:3 in
  let want =
    Array.init n (fun g ->
        if g = 0 then float_of_int ((2 * g) + 1)
        else float_of_int ((2 * (g - 1)) + 1))
  in
  ignore
    (Executor.redistribute ~src:a
       ~src_section:(Section.make ~lo:0 ~hi:(n - 2) ~stride:1)
       ~dst:a
       ~dst_section:(Section.make ~lo:1 ~hi:(n - 1) ~stride:1)
       ()
      : Network.t);
  Alcotest.(check (array (float 0.))) "shifted in place" want (Darray.gather a)

let test_congestion_scheduled_vs_legacy () =
  (* cyclic(1) -> cyclic(32) on p=8: every destination drains messages
     from many sources. The unscheduled exchange piles them up in the
     mailbox; the round schedule never exceeds depth 1. *)
  let n = 512 in
  let sec = Section.whole ~n in
  let src = init_src ~n ~p:8 ~k:1 in
  let legacy = fresh_dst ~n ~p:8 ~k:32 in
  let scheduled = fresh_dst ~n ~p:8 ~k:32 in
  let legacy_net =
    Section_ops.copy ~src ~src_section:sec ~dst:legacy ~dst_section:sec ()
  in
  let sched_net =
    Executor.redistribute ~src ~src_section:sec ~dst:scheduled
      ~dst_section:sec ()
  in
  Tutil.check_bool "legacy congests" true
    (Network.max_congestion legacy_net > 1);
  Tutil.check_int "scheduled stays at depth 1" 1
    (Network.max_congestion sched_net)

let with_counters f =
  Lams_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Lams_obs.Obs.set_enabled false) f

let test_validate_rejects_excess_rounds () =
  (* A cross swap on p=2, k=1: 0->1 and 1->0, each rank sending and
     receiving once, so Δ = 1 and the coloring packs both transfers
     into one round. Splitting them into singleton rounds delivers the
     same elements conflict-free in 2 rounds > Δ — exactly the slack the
     old Δ+1 tolerance let through and validate must now reject. *)
  let lay = Layout.create ~p:2 ~k:1 in
  let sched =
    Schedule.build ~src_layout:lay
      ~src_section:(Section.make ~lo:0 ~hi:1 ~stride:1) ~dst_layout:lay
      ~dst_section:(Section.make ~lo:1 ~hi:0 ~stride:(-1))
  in
  Tutil.check_int "max degree" 1 sched.Schedule.max_degree;
  (match sched.Schedule.rounds with
  | [ [ t1; t2 ] ] -> begin
      let split = { sched with Schedule.rounds = [ [ t1 ]; [ t2 ] ] } in
      match Schedule.validate split with
      | Error msg ->
          Alcotest.(check string)
            "names the Konig bound" "2 rounds exceed max degree 1" msg
      | Ok () -> Alcotest.fail "validate accepted rounds > max degree"
    end
  | _ -> Alcotest.fail "expected one round of two cross transfers");
  match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_cache_hit_on_translation () =
  Cache.clear ();
  (* A translation is invisible to the cache iff it is a common multiple
     of both sides' cycle spans: lcm(4*3, 3*5) = 60. *)
  let shift = 60 in
  let n = 200 in
  let c_hits = Lams_obs.Obs.counter "sched.cache.hits" in
  let c_misses = Lams_obs.Obs.counter "sched.cache.misses" in
  with_counters (fun () ->
      let hits0 = Lams_obs.Obs.counter_value c_hits
      and misses0 = Lams_obs.Obs.counter_value c_misses in
      let src = init_src ~n ~p:4 ~k:3 in
      let run lo =
        let sec = Section.make ~lo ~hi:(lo + 35) ~stride:1 in
        let dst = fresh_dst ~n ~p:3 ~k:5 in
        ignore
          (Executor.redistribute ~src ~src_section:sec ~dst ~dst_section:sec
             ()
            : Network.t);
        (* The rebased schedule must still place values correctly. *)
        for g = lo to lo + 35 do
          Alcotest.(check (float 0.))
            "rebased placement"
            (float_of_int ((2 * g) + 1))
            (Darray.get dst g)
        done
      in
      run 0;
      run shift;
      Tutil.check_int "second lookup hits" (hits0 + 1)
        (Lams_obs.Obs.counter_value c_hits);
      Tutil.check_int "one inspector run" (misses0 + 1)
        (Lams_obs.Obs.counter_value c_misses))

let test_cache_eviction () =
  Cache.clear ();
  let saved = Cache.capacity () in
  Fun.protect ~finally:(fun () ->
      Cache.set_capacity saved;
      Cache.clear ())
  @@ fun () ->
  Cache.set_capacity 2;
  let src_layout = Layout.create ~p:2 ~k:3 in
  let find k' =
    let sec = Section.make ~lo:0 ~hi:29 ~stride:1 in
    ignore
      (Cache.find ~src_layout ~src_section:sec
         ~dst_layout:(Layout.create ~p:2 ~k:k')
         ~dst_section:sec
        : Schedule.t)
  in
  let c_evictions = Lams_obs.Obs.counter "sched.cache.evictions" in
  with_counters (fun () ->
      let ev0 = Lams_obs.Obs.counter_value c_evictions in
      find 1;
      find 2;
      Tutil.check_int "at capacity" 2 (Cache.size ());
      find 4;
      Tutil.check_int "still at capacity" 2 (Cache.size ());
      Tutil.check_int "one eviction" (ev0 + 1)
        (Lams_obs.Obs.counter_value c_evictions));
  Cache.clear ();
  Tutil.check_int "cleared" 0 (Cache.size ())

let suite =
  [ Alcotest.test_case "schedule golden (p=4 k=3 -> k=5)" `Quick
      test_build_golden;
    Alcotest.test_case "schedule pp golden" `Quick test_pp_golden;
    Alcotest.test_case "pack roundtrip, negative stride" `Quick
      test_pack_roundtrip_negative_stride;
    Alcotest.test_case "pack roundtrip, positive stride" `Quick
      test_pack_roundtrip_positive_stride;
    prop_executor_equals_legacy;
    prop_rounds_contention_free;
    Alcotest.test_case "parallel executor = sequential" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "overlapping in-array shift" `Quick
      test_overlapping_shift;
    Alcotest.test_case "congestion: scheduled 1 vs legacy > 1" `Quick
      test_congestion_scheduled_vs_legacy;
    Alcotest.test_case "validate: rounds > max degree rejected" `Quick
      test_validate_rejects_excess_rounds;
    Alcotest.test_case "cache hit on translated sections" `Quick
      test_cache_hit_on_translation;
    Alcotest.test_case "cache eviction accounting" `Quick
      test_cache_eviction;
    prop_lowering_equals_oracle;
    Alcotest.test_case "check_side rejects overlapping blocks" `Quick
      test_check_side_rejects_overlap;
    Alcotest.test_case "build_side rejects mixed periods, bad positions"
      `Quick
      test_build_side_rejects_bad_input;
    Alcotest.test_case "pack/unpack reject a side escaping the store" `Quick
      test_pack_rejects_escaping_side;
    prop_tile_stable_under_growth;
    prop_split_shift_commute;
    prop_identity_collapses ]
