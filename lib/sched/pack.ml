open Lams_util
open Lams_dist

type block = { buf_pos : int; start_local : int; length : int; step : int }
type side = { blocks : block list; elements : int }

let build_side ~layout ~section ~proc runs =
  let classes = Array.of_list runs in
  let n = Array.length classes in
  let first i = classes.(i).Lams_sim.Comm_sets.first
  and count i = classes.(i).Lams_sim.Comm_sets.count in
  let period = if n = 0 then 1 else classes.(0).Lams_sim.Comm_sets.period in
  (* Maximal intervals [lo, hi) of classes with consecutive [first]s.
     {!Lams_sim.Comm_sets} gives every class the count
     [1 + (total-1-first)/period], non-increasing in [first], so the
     classes of an interval still alive at period offset [t]
     (count > t) are a prefix of it: one contiguous traversal
     segment. *)
  let intervals = ref [] and stop = ref n and total = Section.count section in
  for i = n - 1 downto 0 do
    if
      classes.(i).Lams_sim.Comm_sets.period <> period
      || first i >= period
      || (i > 0 && (first i <= first (i - 1) || count i > count (i - 1)))
    then
      invalid_arg
        "Pack.build_side: progressions must share one period, with \
         strictly ascending first < period and non-increasing counts";
    if first i < 0 || first i + ((count i - 1) * period) >= total then
      invalid_arg "Pack.build_side: position outside the section";
    if i = 0 || first i <> first (i - 1) + 1 then begin
      intervals := (i, !stop) :: !intervals;
      stop := i
    end
  done;
  let k = layout.Layout.k and stride = section.Section.stride in
  let out = ref [] in
  let cur_bp = ref 0 and cur_sl = ref 0 and cur_len = ref 0
  and cur_step = ref 1 in
  let flush () =
    if !cur_len > 0 then
      out :=
        { buf_pos = !cur_bp; start_local = !cur_sl; length = !cur_len;
          step = !cur_step }
        :: !out
  in
  (* The coalescer. Blocks arrive in buffer order, each starting where
     the last ended, so a block extends the pending one when it also
     continues it in local space under a common step [sigma]; a
     single-element block fits either step. *)
  let emit buf_pos start_local length step =
    let sigma =
      if !cur_len > 1 then !cur_step
      else if length > 1 then step
      else start_local - !cur_sl
    in
    if
      !cur_len > 0
      && (sigma = 1 || sigma = -1)
      && (length = 1 || step = sigma)
      && start_local = !cur_sl + (sigma * !cur_len)
    then begin
      cur_len := !cur_len + length;
      cur_step := sigma
    end
    else begin
      flush ();
      cur_bp := buf_pos;
      cur_sl := start_local;
      cur_len := length;
      cur_step := step
    end
  in
  (* Lower traversal segment [j0, j0 + len) at buffer position
     [buf_pos]. A unit-stride step covers a whole owner-block piece,
     which ends k - g mod k elements on ascending, g mod k + 1
     descending, and shares the owner of its first element. *)
  let pk = layout.Layout.p * k in
  let segment buf_pos j0 len =
    let g = ref (section.Section.lo + (j0 * stride)) and i = ref 0 in
    while !i < len do
      let row = !g / pk in
      let off = !g - (row * pk) in
      if !g < 0 || off / k <> proc then
        invalid_arg "Pack.build_side: position not owned by its processor";
      let boff = off - (proc * k) in
      let run =
        if stride = 1 then min (len - !i) (k - boff)
        else if stride = -1 then min (len - !i) (boff + 1)
        else 1
      in
      emit (buf_pos + !i) ((row * k) + boff) run
        (if run > 1 then stride else 1);
      g := !g + (stride * run);
      i := !i + run
    done
  in
  (* Traversal order is (period offset, first): walk offsets t = 0, 1,
     … and, at each, every live interval's alive prefix in [first]
     order. Intervals are dropped as they die, so the walk costs one
     step per segment. *)
  let lo = Array.of_list (List.map fst !intervals)
  and hi = Array.of_list (List.map snd !intervals) in
  let live = ref (Array.length lo) and buf_pos = ref 0 and t = ref 0 in
  while !live > 0 do
    let kept = ref 0 in
    for a = 0 to !live - 1 do
      let l = lo.(a) and h = ref hi.(a) in
      while !h > l && count (!h - 1) <= !t do
        decr h
      done;
      if !h > l then begin
        segment !buf_pos (first l + (!t * period)) (!h - l);
        buf_pos := !buf_pos + !h - l;
        lo.(!kept) <- l;
        hi.(!kept) <- !h;
        incr kept
      end
    done;
    live := !kept;
    incr t
  done;
  flush ();
  { blocks = List.rev !out; elements = !buf_pos }

(* Both strides are single blits: step = 1 is a straight memmove; a
   step = -1 block covers local addresses [start_local - length + 1,
   start_local] read (or written) descending, which the reversed blit
   maps onto an ascending buffer span in one pass. *)
let pack side ~data ~buf =
  List.iter
    (fun { buf_pos; start_local; length; step } ->
      if step = 1 then
        Fbuf.blit ~src:data ~src_pos:start_local ~dst:buf ~dst_pos:buf_pos
          ~len:length
      else
        Fbuf.rev_blit ~src:data ~src_pos:(start_local - length + 1) ~dst:buf
          ~dst_pos:buf_pos ~len:length)
    side.blocks

let unpack side ~buf ~data =
  List.iter
    (fun { buf_pos; start_local; length; step } ->
      if step = 1 then
        Fbuf.blit ~src:buf ~src_pos:buf_pos ~dst:data ~dst_pos:start_local
          ~len:length
      else
        Fbuf.rev_blit ~src:buf ~src_pos:buf_pos ~dst:data
          ~dst_pos:(start_local - length + 1) ~len:length)
    side.blocks

(* Element-at-a-time variants on the same buffers: the adjacent
   before/after baseline for `bench/dataplane.ml` (what the data plane
   did before the blit conversion, minus boxing). *)
let pack_elementwise side ~data ~buf =
  List.iter
    (fun { buf_pos; start_local; length; step } ->
      if step = 1 then
        for i = 0 to length - 1 do
          Fbuf.set buf (buf_pos + i) (Fbuf.get data (start_local + i))
        done
      else
        for i = 0 to length - 1 do
          Fbuf.set buf (buf_pos + i) (Fbuf.get data (start_local - i))
        done)
    side.blocks

let unpack_elementwise side ~buf ~data =
  List.iter
    (fun { buf_pos; start_local; length; step } ->
      if step = 1 then
        for i = 0 to length - 1 do
          Fbuf.set data (start_local + i) (Fbuf.get buf (buf_pos + i))
        done
      else
        for i = 0 to length - 1 do
          Fbuf.set data (start_local - i) (Fbuf.get buf (buf_pos + i))
        done)
    side.blocks

(* Legacy [float array] marshalling (kept for oracles and traces). The
   step = -1 arm hoists the bounds checks out of the loop — the block
   extremes cover every access — and runs unsafe, mirroring the reversed
   blit. *)
let check_floats_block name ~data_len ~buf_len { buf_pos; start_local; length; step } =
  let lo_local = if step = 1 then start_local else start_local - length + 1 in
  if
    buf_pos < 0 || length < 0
    || buf_pos > buf_len - length
    || lo_local < 0
    || lo_local > data_len - length
  then invalid_arg name

let pack_floats side ~data ~buf =
  List.iter
    (fun ({ buf_pos; start_local; length; step } as b) ->
      check_floats_block "Pack.pack_floats" ~data_len:(Array.length data)
        ~buf_len:(Array.length buf) b;
      if step = 1 then Array.blit data start_local buf buf_pos length
      else
        for i = 0 to length - 1 do
          Array.unsafe_set buf (buf_pos + i)
            (Array.unsafe_get data (start_local - i))
        done)
    side.blocks

let unpack_floats side ~buf ~data =
  List.iter
    (fun ({ buf_pos; start_local; length; step } as b) ->
      check_floats_block "Pack.unpack_floats" ~data_len:(Array.length data)
        ~buf_len:(Array.length buf) b;
      if step = 1 then Array.blit buf buf_pos data start_local length
      else
        for i = 0 to length - 1 do
          Array.unsafe_set data (start_local - i)
            (Array.unsafe_get buf (buf_pos + i))
        done)
    side.blocks

let shift side delta =
  if delta = 0 then side
  else
    { side with
      blocks =
        List.map
          (fun b -> { b with start_local = b.start_local + delta })
          side.blocks }

(* Cut a side at a buffer position. Blocks are sorted by [buf_pos] and
   partition [0, elements), so exactly one block can straddle the cut;
   both halves of a straddling block stay one arithmetic run
   (start_local advances [step] per buffer cell). Right-side positions
   are rebased to 0 so each half is a well-formed side over its own
   (smaller) payload buffer. *)
let split side ~at =
  if at <= 0 || at >= side.elements then invalid_arg "Pack.split";
  let left = ref [] and right = ref [] in
  List.iter
    (fun ({ buf_pos; start_local; length; step } as b) ->
      if buf_pos + length <= at then left := b :: !left
      else if buf_pos >= at then
        right := { b with buf_pos = buf_pos - at } :: !right
      else begin
        let l1 = at - buf_pos in
        left := { b with length = l1 } :: !left;
        right :=
          { buf_pos = 0; start_local = start_local + (step * l1);
            length = length - l1; step }
          :: !right
      end)
    side.blocks;
  ( { blocks = List.rev !left; elements = at },
    { blocks = List.rev !right; elements = side.elements - at } )

let block_count side = List.length side.blocks

let check_side side =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let rec go next = function
    | [] ->
        if next = side.elements then Ok ()
        else fail "blocks cover [0, %d) of [0, %d)" next side.elements
    | { buf_pos; length; step; _ } :: rest ->
        if length <= 0 then fail "block at %d has length %d" buf_pos length
        else if step <> 1 && step <> -1 then
          fail "block at %d has step %d" buf_pos step
        else if buf_pos <> next then
          fail "block at %d does not start where its predecessor ends (%d)"
            buf_pos next
        else go (buf_pos + length) rest
  in
  go 0 side.blocks

let local_addresses side =
  let out = Array.make side.elements (-1) in
  List.iter
    (fun { buf_pos; start_local; length; step } ->
      for i = 0 to length - 1 do
        out.(buf_pos + i) <- start_local + (step * i)
      done)
    side.blocks;
  out
