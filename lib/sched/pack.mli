(** Pack/unpack marshalling for one transfer of a communication
    schedule.

    A transfer's element set is a union of arithmetic progressions of
    traversal positions ({!Lams_sim.Comm_sets}) that share one joint
    period. Every period lands on one processor's local memory the same
    way, moved by a constant local offset, so a side is stored as a
    {e tile} — the contiguous blocks of one period, read off the
    closed-form [cyclic(k)] local address — plus that offset, its
    {e paving}: the Array-OL tiler's pattern and paving. Building,
    storing and walking a side cost O(tile), not O(elements), and
    marshalling is a loop over the tile's blocks. *)

type block = {
  buf_pos : int;  (** first position in the packed buffer *)
  start_local : int;  (** first local address *)
  length : int;
  step : int;  (** [+1] ascending locals, [-1] descending (negative
                   section stride) *)
}

type side = private {
  tile : block array;
      (** one period's blocks: positive lengths, [step = ±1], inside
          [\[0, width)]; {!check_side} holds that they are sorted and
          partition it, and {!build_side}'s are maximal *)
  width : int;  (** buffer positions per tile (0 only when empty) *)
  paving : int;  (** local-address offset from one tile to the next *)
  elements : int;
      (** the side is the tile repeated — buffer positions moving by
          [width], local addresses by [paving] — and truncated at
          [elements]: buffer position [t·width + i] is tile cell [i]
          plus [t·paving] *)
  lo_local : int;  (** lowest local address of the whole side *)
  hi_local : int;  (** highest local address of the whole side *)
}

val tiled : block array -> width:int -> paving:int -> elements:int -> side
(** [tiled tile ~width ~paving ~elements] is the side that paves
    [tile]. It computes the local extent in O(tile) and applies the
    {e collapse rule}: a tile that is a single block continued by its
    own paving (its step times [width] equals [paving], or [width = 1]
    and [paving = ±1]) becomes one block of [elements]. A flat block
    list is the tile of width [elements].
    @raise Invalid_argument ["Pack.tiled"] if [elements < 0], if
    [width < 1] while [elements > 0], or if a block has a non-positive
    length, a step other than [±1], or cells outside [\[0, width)]. *)

val build_side :
  layout:Lams_dist.Layout.t ->
  section:Lams_dist.Section.t ->
  proc:int ->
  Lams_sim.Comm_sets.progression list ->
  side
(** Lower one side of a transfer (its owner [proc]'s view). The packed
    buffer holds the transfer's elements in {e traversal order}; both
    sides of a transfer are built from the same progressions, so they
    agree on the buffer order by construction.

    The progressions share the joint period [P] with [first < P], so
    traversal order is (period offset, [first]). Each class's count is
    [1 + (total-1-first)/P]: [c+1] for a prefix of the classes and [c]
    for the rest, so the buffer is period 0 repeated [c] times and then
    its prefix. Only period 0 is lowered: class [i] at buffer position
    [i], each run of consecutive [first]s one segment, globals through
    the closed form [local = (g / pk)·k + g mod k] with no plan or
    access-sequence table (a unit-stride segment takes one step per
    owner-block piece, any other stride one step per element). One
    period moves every global by [P·stride], a multiple of [pk], so the
    paving is [(P·stride / pk)·k]. Cost: O(classes + tile blocks) for
    unit strides, O(classes) otherwise — independent of the section
    length.

    One coalescer merges each block into its predecessor when the two
    are adjacent in both buffer and local space with a common step (a
    single-element block fits either), so the tile's blocks are
    maximal; {!tiled} then applies the collapse rule (an identity remap
    is one block per side).
    @raise Invalid_argument if the progressions do not share one
    period with strictly ascending [first < period] and non-increasing
    [count]s, if a position falls outside [section], if some element is
    not owned by [proc] (a schedule/ownership inconsistency), if the
    counts are not positive or differ by more than one, or if
    [P·stride] is not a multiple of [pk] (none of which
    {!Lams_sim.Comm_sets.build} produces). *)

val pack : side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Gather the side's elements from local memory into the packed
    buffer. One bounds check per call — the side's local extent against
    [data], [elements] against [buf] — then unchecked copies: a
    single-element tile as one strided loop, blocks shorter than a fixed
    threshold by a loop, longer ones by [memmove] ([step = 1]) or the
    reversed blit ([step = -1]).
    @raise Invalid_argument ["Pack.pack"], having written nothing, if
    the side escapes either buffer. *)

val unpack : side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit
(** Scatter the packed buffer into local memory (the same kernel as
    {!pack}). @raise Invalid_argument ["Pack.unpack"] like {!pack}. *)

val pack_elementwise :
  side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Element-at-a-time {!pack} on the same buffers — the pre-blit data
    plane, kept as the adjacent baseline for [bench/dataplane.ml] and
    the differential tests. *)

val unpack_elementwise :
  side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit

val shift : side -> int -> side
(** Translate every local address by a constant (schedule-cache
    rebase): the tile's [start_local]s and the extent. *)

val split : side -> at:int -> side * side
(** [split side ~at] cuts the side at buffer position [at]
    ([0 < at < elements]) into two sides: the left covers buffer
    positions [\[0, at)] (the same tile, truncated), the right covers
    [\[at, elements)] rebased to start at 0 (the tile rotated to start
    at cell [at mod width], coalesced across the seam, same paving). A
    block straddling the cut is divided. Splitting both sides of a
    transfer at the same [at] yields two transfers that move the same
    elements (the sides share one buffer order by construction).
    Cost O(tile).
    @raise Invalid_argument if [at] is outside [(0, elements)]. *)

val block_count : side -> int
(** Number of maximal runs of the expanded side (every tile's blocks,
    moved and truncated, in buffer order): the coalescer's count over
    them. O(tile). *)

val check_side : side -> (unit, string) result
(** Structural check of a side's tile: the blocks, in order, start at
    buffer position [0], each where its predecessor ends, and end at
    [width] (sorted by [buf_pos], partitioning [\[0, width)]).
    {!Schedule.validate} runs it on both sides of every transfer. *)

val local_addresses : side -> int array
(** Local address of each buffer position (test/debug helper). *)
