(** Pack/unpack marshalling for one transfer of a communication
    schedule.

    A transfer's element set is a union of arithmetic progressions of
    traversal positions ({!Lams_sim.Comm_sets}); on each side those
    positions land on one processor's local memory as a short list of
    {e contiguous blocks}, read off the closed-form [cyclic(k)] local
    address. Marshalling is therefore a handful of blits over those
    blocks instead of one address computation per element. *)

type block = {
  buf_pos : int;  (** first position in the packed buffer *)
  start_local : int;  (** first local address *)
  length : int;
  step : int;  (** [+1] ascending locals, [-1] descending (negative
                   section stride) *)
}

type side = {
  blocks : block list;  (** sorted by [buf_pos]; they partition
                            [\[0, elements)] *)
  elements : int;
}

val build_side :
  layout:Lams_dist.Layout.t ->
  section:Lams_dist.Section.t ->
  proc:int ->
  Lams_sim.Comm_sets.progression list ->
  side
(** Lower one side of a transfer (its owner [proc]'s view) to blocks.
    The packed buffer holds the transfer's elements in {e traversal
    order}; both sides of a transfer are built from the same
    progressions, so they agree on the buffer order by construction.

    The progressions share the joint period [P] with [first < P], so
    traversal order is (period offset, [first]): at each offset the
    live classes with consecutive [first]s form one contiguous
    segment, emitted in buffer order with no sort. Globals map through
    the closed form [local = (g / pk)·k + g mod k], with no plan or
    access-sequence table: a unit-stride segment takes one step per
    owner-block piece, any other stride one step per element. Cost:
    O(classes + segments + blocks) for unit strides,
    O(classes + elements) otherwise.

    One coalescer merges each block into its predecessor when the two
    are adjacent in both buffer and local space with a common step (a
    single-element block fits either), across segment boundaries, so
    no two consecutive blocks of the result could be merged.
    @raise Invalid_argument if the progressions do not share one
    period with strictly ascending [first < period] and non-increasing
    [count]s (the {!Lams_sim.Comm_sets.build} invariant), if a
    position falls outside [section], or if some element is not owned
    by [proc] (a schedule/ownership inconsistency). *)

val pack : side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Gather the side's elements from local memory into the packed
    buffer. Every block is a single blit: [memmove] for [step = 1], the
    reversed blit for [step = -1]. *)

val unpack : side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit
(** Scatter the packed buffer into local memory (same blit structure as
    {!pack}). *)

val pack_elementwise :
  side -> data:Lams_util.Fbuf.t -> buf:Lams_util.Fbuf.t -> unit
(** Element-at-a-time {!pack} on the same buffers — the pre-blit data
    plane, kept as the adjacent baseline for [bench/dataplane.ml] and
    the differential tests. *)

val unpack_elementwise :
  side -> buf:Lams_util.Fbuf.t -> data:Lams_util.Fbuf.t -> unit

val pack_floats : side -> data:float array -> buf:float array -> unit
(** Legacy [float array] marshalling (oracles, traces). The [step = -1]
    arm hoists its bounds checks and runs the same reversed fast loop as
    the blit path. @raise Invalid_argument if a block escapes either
    array. *)

val unpack_floats : side -> buf:float array -> data:float array -> unit

val shift : side -> int -> side
(** Translate every block's [start_local] (schedule-cache rebase). *)

val split : side -> at:int -> side * side
(** [split side ~at] cuts the side at buffer position [at]
    ([0 < at < elements]) into two well-formed sides: the left covers
    buffer positions [\[0, at)], the right covers [\[at, elements)]
    rebased to start at 0. A block straddling the cut is divided — both
    halves remain single arithmetic runs. Splitting both sides of a
    transfer at the same [at] yields two transfers that move the same
    elements (the sides share one buffer order by construction).
    @raise Invalid_argument if [at] is outside [(0, elements)]. *)

val block_count : side -> int

val check_side : side -> (unit, string) result
(** Structural check of a side: every block has positive length and
    [step] [1] or [-1], and the blocks, in list order, start at buffer
    position [0], each where its predecessor ends, and end at
    [elements] (sorted by [buf_pos], partitioning [\[0, elements)]).
    {!Schedule.validate} runs it on both sides of every transfer. *)

val local_addresses : side -> int array
(** Local address of each buffer position (test/debug helper). *)
