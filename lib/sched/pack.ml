open Lams_util
open Lams_dist

type block = { buf_pos : int; start_local : int; length : int; step : int }

type side = {
  tile : block array;
  width : int;
  paving : int;
  elements : int;
  lo_local : int;
  hi_local : int;
}

(* The step under which a run of [len] cells from local [sl] (step
   [step]) continues into the block that follows it in the buffer, at
   [sl'] ([len'] cells, step [step']), or 0 if it does not. A
   single-element run fits either step. One rule serves the coalescer,
   the collapse rule and [block_count]. *)
let joint_step ~sl ~len ~step ~sl' ~len' ~step' =
  let sigma =
    if len > 1 then step else if len' > 1 then step' else sl' - sl
  in
  if
    (sigma = 1 || sigma = -1)
    && (len' = 1 || step' = sigma)
    && sl' = sl + (sigma * len)
  then sigma
  else 0

(* One coalescer. Blocks arrive in buffer order, each starting where
   the last ended; a block extends the pending one when [joint_step]
   says it continues it. [finish] returns the maximal blocks. *)
let coalescer () =
  let out = ref [] and bp = ref 0 and sl = ref 0 and len = ref 0
  and step = ref 1 in
  let flush () =
    if !len > 0 then
      out :=
        { buf_pos = !bp; start_local = !sl; length = !len; step = !step }
        :: !out
  in
  let emit buf_pos start_local length step' =
    let sigma =
      if !len = 0 then 0
      else
        joint_step ~sl:!sl ~len:!len ~step:!step ~sl':start_local
          ~len':length ~step'
    in
    if sigma <> 0 then begin
      len := !len + length;
      step := sigma
    end
    else begin
      flush ();
      bp := buf_pos;
      sl := start_local;
      len := length;
      step := step'
    end
  in
  let finish () =
    flush ();
    Array.of_list (List.rev !out)
  in
  (emit, finish)

let tiled tile ~width ~paving ~elements =
  if elements < 0 || width < 0 || (width = 0 && elements > 0) then
    invalid_arg "Pack.tiled";
  Array.iter
    (fun b ->
      if
        b.buf_pos < 0 || b.length < 1
        || b.buf_pos + b.length > width
        || (b.step <> 1 && b.step <> -1)
      then invalid_arg "Pack.tiled")
    tile;
  (* The collapse rule: a one-block tile that its own paving continues
     is one block of [elements]. *)
  let tile, width, paving =
    match tile with
    | [| b |] when elements > width && b.length = width ->
        let sigma =
          joint_step ~sl:b.start_local ~len:width ~step:b.step
            ~sl':(b.start_local + paving) ~len':width ~step':b.step
        in
        if sigma = 0 then (tile, width, paving)
        else
          ( [| { b with length = elements; step = sigma } |],
            elements,
            sigma * elements )
    | _ -> (tile, width, paving)
  in
  (* Local extent of the whole side: full tiles 0 .. full-1 move the
     tile's extent by 0 .. (full-1)·paving, and the partial tile [full]
     covers the tile cells below [rem], moved by full·paving. *)
  let lo = ref 0 and hi = ref (-1) in
  if elements > 0 then begin
    let full = elements / width and rem = elements mod width in
    let d = (full - 1) * paving and last = full * paving in
    lo := max_int;
    hi := min_int;
    let cover b len ~lo_off ~hi_off =
      let a = b.start_local and z = b.start_local + (b.step * (len - 1)) in
      lo := Int.min !lo (Int.min a z + lo_off);
      hi := Int.max !hi (Int.max a z + hi_off)
    in
    Array.iter
      (fun b ->
        if full > 0 then
          cover b b.length ~lo_off:(Int.min 0 d) ~hi_off:(Int.max 0 d);
        if b.buf_pos < rem then
          cover b (Int.min b.length (rem - b.buf_pos)) ~lo_off:last
            ~hi_off:last)
      tile
  end;
  { tile; width; paving; elements; lo_local = !lo; hi_local = !hi }

let build_side ~layout ~section ~proc runs =
  let classes = Array.of_list runs in
  let n = Array.length classes in
  let first i = classes.(i).Lams_sim.Comm_sets.first
  and count i = classes.(i).Lams_sim.Comm_sets.count in
  let period = if n = 0 then 1 else classes.(0).Lams_sim.Comm_sets.period in
  let k = layout.Layout.k and stride = section.Section.stride in
  let pk = layout.Layout.p * k and total = Section.count section in
  let global j = section.Section.lo + (j * stride) in
  let elements = ref 0 in
  for i = 0 to n - 1 do
    if
      classes.(i).Lams_sim.Comm_sets.period <> period
      || first i >= period
      || (i > 0 && (first i <= first (i - 1) || count i > count (i - 1)))
    then
      invalid_arg
        "Pack.build_side: progressions must share one period, with \
         strictly ascending first < period and non-increasing counts";
    let last = first i + ((count i - 1) * period) in
    if first i < 0 || last >= total then
      invalid_arg "Pack.build_side: position outside the section";
    (* g is monotone along a class, so a negative global shows at one of
       its ends; period 0 checks the first. *)
    if global last < 0 then
      invalid_arg "Pack.build_side: position not owned by its processor";
    elements := !elements + count i
  done;
  (* {!Lams_sim.Comm_sets.build} gives every class the count
     [1 + (total-1-first)/period]: [c+1] for a prefix of the classes and
     [c] for the rest. Period offset t then holds every class for
     t < c and that prefix at t = c, so the buffer is the period-0 tile
     repeated and truncated at [elements]. *)
  if n > 0 && (count (n - 1) < 1 || count 0 - count (n - 1) > 1) then
    invalid_arg
      "Pack.build_side: class counts must be positive and differ by at \
       most one";
  (* Moving a period along the section moves every global by
     [period·stride], a whole number of [p·k] rows when this holds: the
     owner stays and the local address moves by
     [(period·stride / pk)·k]. *)
  if n > 0 && period * stride mod pk <> 0 then
    invalid_arg "Pack.build_side: period·stride is not a multiple of p·k";
  let emit, finish = coalescer () in
  (* Lower traversal segment [j0, j0 + len) at buffer position
     [buf_pos]. A unit-stride step covers a whole owner-block piece,
     which ends k - g mod k elements on ascending, g mod k + 1
     descending, and shares the owner of its first element. *)
  let segment buf_pos j0 len =
    let g = ref (global j0) and i = ref 0 in
    while !i < len do
      let row = !g / pk in
      let off = !g - (row * pk) in
      if !g < 0 || off / k <> proc then
        invalid_arg "Pack.build_side: position not owned by its processor";
      let boff = off - (proc * k) in
      let run =
        if stride = 1 then Int.min (len - !i) (k - boff)
        else if stride = -1 then Int.min (len - !i) (boff + 1)
        else 1
      in
      emit (buf_pos + !i) ((row * k) + boff) run
        (if run > 1 then stride else 1);
      g := !g + (stride * run);
      i := !i + run
    done
  in
  (* Period offset 0 only: class i sits at buffer position i, and each
     maximal interval of consecutive [first]s is one segment. *)
  let lo = ref 0 in
  for i = 1 to n do
    if i = n || first i <> first (i - 1) + 1 then begin
      segment !lo (first !lo) (i - !lo);
      lo := i
    end
  done;
  tiled (finish ()) ~width:n ~paving:(period * stride / pk * k)
    ~elements:!elements

(* Blocks at least this long move through memmove / the reversed blit;
   shorter ones through an unchecked loop, which is cheaper than the
   blit's checks and C call below it (measured, EXPERIMENTS.md). *)
let blit_min = 8

(* The one pack/unpack kernel. A single check against the side's local
   extent and the buffer length covers every access, so the loops run
   unchecked: full tiles cover tile cells [0, width), the last one
   those below [elements], exactly what the extent was computed over. *)
let copy name ~to_buf side ~data ~buf =
  let { tile; width; paving; elements; lo_local; hi_local } = side in
  if elements > 0 then begin
    if
      lo_local < 0
      || hi_local >= Fbuf.length data
      || elements > Fbuf.length buf
    then invalid_arg name;
    if width = 1 && Array.length tile = 1 then begin
      let sl = tile.(0).start_local in
      if to_buf then
        for t = 0 to elements - 1 do
          Fbuf.unsafe_set buf t (Fbuf.unsafe_get data (sl + (t * paving)))
        done
      else
        for t = 0 to elements - 1 do
          Fbuf.unsafe_set data (sl + (t * paving)) (Fbuf.unsafe_get buf t)
        done
    end
    else begin
      let base = ref 0 and delta = ref 0 in
      while !base < elements do
        let limit = Int.min width (elements - !base) in
        for i = 0 to Array.length tile - 1 do
          let { buf_pos; start_local; length; step } =
            Array.unsafe_get tile i
          in
          if buf_pos < limit then begin
            let len = Int.min length (limit - buf_pos) in
            let bp = !base + buf_pos and sl = !delta + start_local in
            if len >= blit_min then begin
              if step = 1 then
                if to_buf then
                  Fbuf.blit ~src:data ~src_pos:sl ~dst:buf ~dst_pos:bp ~len
                else Fbuf.blit ~src:buf ~src_pos:bp ~dst:data ~dst_pos:sl ~len
              else if to_buf then
                Fbuf.rev_blit ~src:data ~src_pos:(sl - len + 1) ~dst:buf
                  ~dst_pos:bp ~len
              else
                Fbuf.rev_blit ~src:buf ~src_pos:bp ~dst:data
                  ~dst_pos:(sl - len + 1) ~len
            end
            else if to_buf then
              for j = 0 to len - 1 do
                Fbuf.unsafe_set buf (bp + j)
                  (Fbuf.unsafe_get data (sl + (step * j)))
              done
            else
              for j = 0 to len - 1 do
                Fbuf.unsafe_set data (sl + (step * j))
                  (Fbuf.unsafe_get buf (bp + j))
              done
          end
        done;
        base := !base + width;
        delta := !delta + paving
      done
    end
  end

let pack side ~data ~buf = copy "Pack.pack" ~to_buf:true side ~data ~buf
let unpack side ~buf ~data = copy "Pack.unpack" ~to_buf:false side ~data ~buf

(* Every block of the expanded side, in buffer order, as
   [f buf_pos start_local length step]. *)
let iter_blocks side f =
  let base = ref 0 and delta = ref 0 in
  while !base < side.elements do
    let limit = Int.min side.width (side.elements - !base) in
    Array.iter
      (fun { buf_pos; start_local; length; step } ->
        if buf_pos < limit then
          f (!base + buf_pos) (!delta + start_local)
            (Int.min length (limit - buf_pos))
            step)
      side.tile;
    base := !base + side.width;
    delta := !delta + side.paving
  done

(* Element-at-a-time variants on the same buffers: the adjacent
   before/after baseline for `bench/dataplane.ml` (what the data plane
   did before the blit conversion, minus boxing). *)
let pack_elementwise side ~data ~buf =
  iter_blocks side (fun buf_pos start_local length step ->
      for i = 0 to length - 1 do
        Fbuf.set buf (buf_pos + i) (Fbuf.get data (start_local + (step * i)))
      done)

let unpack_elementwise side ~buf ~data =
  iter_blocks side (fun buf_pos start_local length step ->
      for i = 0 to length - 1 do
        Fbuf.set data (start_local + (step * i)) (Fbuf.get buf (buf_pos + i))
      done)

let shift side delta =
  if delta = 0 then side
  else
    { side with
      tile =
        Array.map
          (fun b -> { b with start_local = b.start_local + delta })
          side.tile;
      lo_local = side.lo_local + delta;
      hi_local = side.hi_local + delta }

(* Cut a side at buffer position [at] = q·width + r. The left piece is
   the same tile truncated at [at]. The right piece starts at cell r of
   tile q, so its tile is the rotation: cells [r, width) of tile q, then
   cells [0, r) of tile q+1, rebased to buffer position 0 and coalesced
   across the seam; its paving is unchanged. *)
let split side ~at =
  if at <= 0 || at >= side.elements then invalid_arg "Pack.split";
  let { tile; width; paving; elements; _ } = side in
  let q = at / width and r = at mod width in
  let emit, finish = coalescer () in
  let cells ~lo ~hi ~rebase ~delta =
    Array.iter
      (fun b ->
        let s = Int.max lo b.buf_pos
        and e = Int.min hi (b.buf_pos + b.length) in
        if s < e then
          emit (s - rebase)
            (b.start_local + (b.step * (s - b.buf_pos)) + delta)
            (e - s) b.step)
      tile
  in
  cells ~lo:r ~hi:width ~rebase:r ~delta:(q * paving);
  cells ~lo:0 ~hi:r ~rebase:(r - width) ~delta:((q + 1) * paving);
  ( tiled tile ~width ~paving ~elements:at,
    tiled (finish ()) ~width ~paving ~elements:(elements - at) )

(* Tile blocks are maximal within the tile, so the expanded side's runs
   are its tiles' blocks less one per seam where the last tile block
   continues into the next tile's first. *)
let block_count side =
  let { tile; width; paving; elements; _ } = side in
  let b = Array.length tile in
  if elements = 0 || b = 0 then 0
  else begin
    let full = elements / width and rem = elements mod width in
    let partial =
      Array.fold_left (fun a t -> if t.buf_pos < rem then a + 1 else a) 0 tile
    in
    let seam len' =
      let a = tile.(b - 1) and f = tile.(0) in
      joint_step ~sl:a.start_local ~len:a.length ~step:a.step
        ~sl':(f.start_local + paving) ~len' ~step':f.step
      <> 0
    in
    let joins =
      (if full >= 2 && seam tile.(0).length then full - 1 else 0)
      +
      if full >= 1 && rem > 0 && seam (Int.min tile.(0).length rem) then 1
      else 0
    in
    (full * b) + partial - joins
  end

let check_side side =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  let rec go i next =
    if i = Array.length side.tile then
      if next = side.width then Ok ()
      else fail "blocks cover [0, %d) of [0, %d)" next side.width
    else
      let { buf_pos; length; _ } = side.tile.(i) in
      if buf_pos <> next then
        fail "block at %d does not start where its predecessor ends (%d)"
          buf_pos next
      else go (i + 1) (buf_pos + length)
  in
  go 0 0

let local_addresses side =
  let out = Array.make side.elements (-1) in
  iter_blocks side (fun buf_pos start_local length step ->
      for i = 0 to length - 1 do
        out.(buf_pos + i) <- start_local + (step * i)
      done);
  out
