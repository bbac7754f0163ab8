(* One workload run of the repository benchmark, in a fresh process.

     perfbench.exe run --workload W --seed N --seconds T --trace 0|1
                       [--lams PATH --sock PATH]
     perfbench.exe ops --workload W --seed N --seconds T

   [run] prints one JSON object of raw measurements (set-up times,
   per-op latencies, failures, /proc status text, sizes, and on the
   traced run the per-layer values); perfbench/run.py turns it into the
   benchmark's metrics. [ops] prints the seeded op list, one op per
   line, so the same seed can be checked to give the same ops. *)

open Common

type spec = {
  rate : float;  (** nominal ops per second, fixes the op count *)
  cycle : int;  (** op count is a multiple of this *)
}

let specs =
  [ ("remap-cold", { rate = 30.; cycle = List.length Remap.cold_classes });
    ("remap-warm", { rate = 30.; cycle = List.length Remap.warm_shapes });
    ("remap-lossy", { rate = 300.; cycle = List.length Remap.lossy_shapes });
    ("serve-zipf", { rate = 30000.; cycle = Serving.clients }) ]

(* Every per-layer metric, in the order BENCHMARK.json lists them; a
   workload that does not exercise a layer reports 0 for it. *)
let layer_names =
  [ "sim.comm_sets.build_us"; "sim.network.messages"; "sim.network.bytes";
    "sim.network.faults.total"; "sim_ticks"; "core.tables_built";
    "core.kns.points_visited"; "sched.pack.build_side_us";
    "sched.schedule.color_us"; "sched.schedule.rounds";
    "sched.schedule.max_degree"; "sched.pack.blocks";
    "sched.pack.mean_block_len"; "sched.cache.find_us"; "sched.cache.hit_ratio";
    "sched.pack.pack_us"; "sched.pack.unpack_us"; "sched.pack.gb_s";
    "sched.executor.exchange_us"; "sched.pool.hit_ratio";
    "sched.reliable.retransmits"; "sched.reliable.acks";
    "sched.reliable.downgrades"; "sched.reliable.dup_drops";
    "sched.reliable.corrupt_drops"; "sched.reliable.goodput"; "sched.reweights";
    "sched.splits"; "sched.executor.replans"; "sched.executor.legacy_fallbacks";
    "sched.schedule.critical_path"; "serve.wire.decode_us"; "serve.wire.encode_us";
    "serve.store.hit_us"; "serve.store.miss_us"; "serve.plan_store.hit_ratio";
    "serve.sched_store.hit_ratio"; "serve.store.evictions"; "serve.batched";
    "serve.shed"; "serve.daemon_us"; "serve.outside_us"; "trace.coverage";
    "trace.overhead" ]

let complete layers =
  List.iter
    (fun (name, _) ->
      if not (List.mem name layer_names) then
        failwith ("perfbench: undeclared layer metric " ^ name))
    layers;
  List.map (fun name -> (name, Option.value ~default:0. (List.assoc_opt name layers))) layer_names

let remap_make = function
  | "remap-cold" -> Some (Remap.cold_workload, 3)
  | "remap-warm" -> Some (Remap.warm_workload, 3)
  | "remap-lossy" -> Some (Remap.lossy_workload, 5)
  | _ -> None

let run ~workload ~seed ~count ~trace ~lams ~sock =
  match remap_make workload with
  | Some (make, repeats) -> Remap.go ~make:(make ~seed) ~repeats ~count ~trace
  | None -> Serving.go ~seed ~count ~trace ~lams ~sock

let to_json ~workload ~seed ~trace r =
  let opt = function None -> Str "" | Some s -> Str s in
  Obj
    [ ("workload", Str workload); ("seed", Int seed); ("trace", Int (if trace then 1 else 0));
      ("attempted", Int r.attempted); ("failed", Int r.failed);
      ("setups_s", Arr (List.map (fun s -> Num s) r.setups_s));
      ("latencies_us", Arr (Array.to_list (Array.map (fun x -> Num x) r.latencies_us)));
      ("timed_s", Num r.timed_s); ("sim_ticks", Int r.sim_ticks);
      ("status_self", opt (read_file "/proc/self/status"));
      ("status_daemon", opt r.daemon_status);
      ("info", Obj (("nproc", Int (Domain.recommended_domain_count ())) :: r.info));
      ( "layers",
        Obj (if trace then List.map (fun (k, v) -> (k, Num v)) (complete r.layers) else []) ) ]

let list_ops ~workload ~seed ~count =
  match remap_make workload with
  | Some (make, _) ->
      let w : Remap.workload = make ~seed ~count in
      Array.iter (fun o -> print_endline (Remap.describe o)) w.ops;
      List.iter
        (fun (o : Remap.op) ->
          Printf.printf "source %s %016Lx\n" o.cls
            (Remap.fingerprint (Hashtbl.find w.slots o.cls)))
        (Remap.distinct w.ops)
  | None ->
      Array.iteri
        (fun c reqs ->
          Array.iter (fun r -> Format.printf "client %d %a@." c Lams_serve.Wire.pp_request r) reqs)
        (Serving.timed_streams ~seed ~count)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Ok acc
    | x :: _ -> Error ("unexpected argument " ^ x)
  in
  let usage msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  match args with
  | [] -> usage "expected a command: run | ops"
  | cmd :: rest -> (
      match opts [] rest with
      | Error msg -> usage msg
      | Ok kv -> (
          let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing --" ^ k) in
          let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage ("bad --" ^ k) in
          let workload = get "workload" in
          let spec =
            match List.assoc_opt workload specs with
            | Some s -> s
            | None -> usage ("unknown workload " ^ workload)
          in
          let seed = int "seed" in
          let seconds = int "seconds" in
          if seconds < 1 then usage "--seconds must be positive";
          let count = op_count ~rate:spec.rate ~seconds ~cycle:spec.cycle in
          match cmd with
          | "ops" -> list_ops ~workload ~seed ~count
          | "run" ->
              let trace = int "trace" = 1 in
              let lams = Option.value ~default:"" (List.assoc_opt "lams" kv) in
              let sock = Option.value ~default:"" (List.assoc_opt "sock" kv) in
              let r = run ~workload ~seed ~count ~trace ~lams ~sock in
              print_endline (to_string (to_json ~workload ~seed ~trace r))
          | c -> usage ("unknown command " ^ c)))
