(* The per-segment AM-table lowering that {!Lams_sched.Pack.build_side}
   replaced, kept as its differential oracle. A transfer's residue
   classes are re-enumerated as maximal contiguous traversal segments,
   and each segment is lowered as its own (p, k, l, s) access-sequence
   problem: one uncached plan build, then its runs merged into blocks.
   Compare element -> (buffer, local) maps against it, not block lists:
   it coalesces only within a segment. The [float array] marshalling
   oracles for pack/unpack live here too. *)

open Lams_dist
open Lams_core
open Lams_codegen
open Lams_sched

(* One contiguous traversal segment [j0, j0 + count) lowered through the
   plan for its globals g(t) = sec.lo + (j0 + t)*sec.stride. A negative
   section stride makes the globals descend, so the plan (which always
   walks ascending) is built on the reversed sequence and its runs come
   out as step = -1 blocks at mirrored buffer positions. *)
let blocks_of_segment ~layout ~section ~proc ~buf_pos (j0, count) =
  let g0 = Section.nth section j0 in
  if count = 1 then
    [ { Pack.buf_pos; start_local = Layout.local_address layout g0;
        length = 1; step = 1 } ]
  else begin
    let gl = Section.nth section (j0 + count - 1) in
    let ascending = gl > g0 in
    let lo = if ascending then g0 else gl in
    let hi = if ascending then gl else g0 in
    let stride = (hi - lo) / (count - 1) in
    let pr =
      Problem.make ~p:layout.Layout.p ~k:layout.Layout.k ~l:lo ~s:stride
    in
    match Plan.build_uncached pr ~m:proc ~u:hi with
    | None -> invalid_arg "Pack_oracle: segment not owned by its processor"
    | Some plan ->
        let visited = ref 0 in
        let blocks =
          Runs.fold_runs plan ~init:[]
            ~f:(fun acc { Runs.start_local; length } ->
              let b =
                if ascending then
                  { Pack.buf_pos = buf_pos + !visited; start_local; length;
                    step = 1 }
                else
                  { Pack.buf_pos = buf_pos + count - !visited - length;
                    start_local = start_local + length - 1;
                    length;
                    step = -1 }
              in
              visited := !visited + length;
              b :: acc)
        in
        if !visited <> count then
          invalid_arg "Pack_oracle: segment escapes its processor";
        blocks
  end

(* Classes arrive sorted by [first] and share one period; consecutive
   residues fuse into intervals (split wherever a count rises), and one
   interval at one period offset is one segment. Segments of different
   intervals interleave across periods, so sort them by position and
   fuse any that turn out adjacent. *)
let traversal_segments (runs : Lams_sim.Comm_sets.progression list) =
  match runs with
  | [] -> []
  | { Lams_sim.Comm_sets.period; _ } :: _ ->
      if List.exists (fun r -> r.Lams_sim.Comm_sets.period <> period) runs
      then invalid_arg "Pack_oracle: mixed periods";
      let arr = Array.of_list runs in
      let n = Array.length arr in
      let first i = arr.(i).Lams_sim.Comm_sets.first in
      let count i = arr.(i).Lams_sim.Comm_sets.count in
      let segs = ref [] in
      let i = ref 0 in
      while !i < n do
        let j = ref (!i + 1) in
        while
          !j < n
          && first !j = first (!j - 1) + 1
          && count !j <= count (!j - 1)
        do
          incr j
        done;
        let base = first !i and width = !j - !i in
        let t = ref 0 and len = ref width in
        while !len > 0 do
          while !len > 0 && count (!i + !len - 1) <= !t do
            decr len
          done;
          if !len > 0 then segs := (base + (!t * period), !len) :: !segs;
          incr t
        done;
        i := !j
      done;
      List.sort (fun (a, _) (b, _) -> compare a b) !segs
      |> List.fold_left
           (fun acc (j0, len) ->
             match acc with
             | (pj, pl) :: rest when pj + pl = j0 -> (pj, pl + len) :: rest
             | _ -> (j0, len) :: acc)
           []
      |> List.rev

let build_side ~layout ~section ~proc runs =
  let buf_pos = ref 0 in
  let blocks =
    List.concat_map
      (fun ((_, count) as seg) ->
        let bs =
          blocks_of_segment ~layout ~section ~proc ~buf_pos:!buf_pos seg
        in
        buf_pos := !buf_pos + count;
        bs)
      (traversal_segments runs)
  in
  Pack.tiled
    (Array.of_list
       (List.sort (fun a b -> compare a.Pack.buf_pos b.Pack.buf_pos) blocks))
    ~width:!buf_pos ~paving:0 ~elements:!buf_pos

(* Element-at-a-time [float array] marshalling through the side's
   element -> local map: the data-plane oracle for {!Pack.pack} and
   {!Pack.unpack}. Out-of-range addresses raise [Invalid_argument]. *)
let pack_floats side ~data ~buf =
  Array.iteri (fun i a -> buf.(i) <- data.(a)) (Pack.local_addresses side)

let unpack_floats side ~buf ~data =
  Array.iteri (fun i a -> data.(a) <- buf.(i)) (Pack.local_addresses side)
