(* Shared plumbing for the workloads: clocks, seeded generators, the
   raw-result record perfbench/run.py turns into metrics, and a tiny
   JSON writer (the benchmark adds no dependency beyond the library's
   own). *)

module Obs = Lams_obs.Obs
module Prng = Lams_util.Prng
module Timer = Lams_util.Timer

let now_us () = Int64.to_float (Timer.now_ns ()) /. 1e3

let time_us f =
  let t0 = now_us () in
  let x = f () in
  (x, now_us () -. t0)

(* One independent stream per purpose, all derived from the workload
   seed, so adding a draw in one place never shifts another stream. *)
let rng ~seed ~salt =
  Prng.create (Int64.of_int ((seed * 1_000_003) + (salt * 7919) + 17))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let counter snap name = Option.value ~default:0 (Obs.find_counter snap name)

(* --- JSON --- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec write b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  write b j;
  Buffer.contents b

(* --- what one workload run hands back --- *)

type result = {
  setups_s : float list;  (** every set-up repetition, seconds *)
  latencies_us : float array;  (** per timed op, successful ones *)
  timed_s : float;  (** summed op times; the pass's wall time on serve-zipf *)
  attempted : int;
  failed : int;  (** mismatches, exceptions, error replies, dead sockets *)
  sim_ticks : int;
  daemon_status : string option;  (** /proc/<pid>/status before SIGTERM *)
  info : (string * json) list;  (** sizes recorded next to the results *)
  layers : (string * float) list;  (** traced run only *)
}

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Each set-up repetition starts from the same empty process-global
   state, and the previous repetition's buffers are returned to the OS,
   so the median is over like-for-like repetitions and the peak RSS
   reflects one set-up, not the sum of several. *)
let reset_globals () =
  Lams_sched.Cache.clear ();
  Lams_core.Plan_cache.clear ();
  Lams_sched.Pool.clear ();
  Lams_sched.Link_health.reset ();
  Obs.reset ();
  Gc.compact ()

(* Set up [repeats] times and keep the last set-up's state; [discard]
   releases what an earlier repetition holds outside the heap. *)
let repeated_setup ?(discard = ignore) ~repeats setup =
  let rec go i acc =
    reset_globals ();
    let st, us = time_us setup in
    let acc = (us /. 1e6) :: acc in
    if i + 1 >= repeats then (st, List.rev acc)
    else begin
      discard st;
      go (i + 1) acc
    end
  in
  go 0 []

(* Number of timed ops: a fixed per-second rate times the run length,
   rounded up to whole cycles of the op mix, so a run's op count — and
   with it the tail percentile run.py picks — depends only on the
   command line, never on how fast the machine happened to be. *)
let op_count ~rate ~seconds ~cycle =
  let n = int_of_float (Float.ceil (rate *. float_of_int seconds)) in
  max cycle ((n + cycle - 1) / cycle * cycle)
