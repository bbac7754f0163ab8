(* serve-zipf: a `lams serve` daemon in its own process, driven by two
   closed-loop client connections from this process, the way compilers
   calling the daemon each wait for their reply. The key population is
   larger than the daemon's store capacities, so misses build through
   core and sched, insert and evict beside hits, and hits queue behind
   builds. A warm-up pass runs in set-up; the second pass is timed. *)

open Common
module Wire = Lams_serve.Wire
module Client = Lams_serve.Client
module Store = Lams_serve.Store
module Server = Lams_serve.Server
module Loadgen = Lams_serve.Loadgen
module Zipf = Lams_serve.Zipf

let clients = 2
let keys = 20_000
let theta = 1.2
let warmup_requests = 8_000

(* The daemon runs with its default store sizes; the in-process replays
   use the same ones. *)
let plan_capacity = Server.default_config.plan_capacity
let sched_capacity = Server.default_config.sched_capacity
let shards = Server.default_config.shards

(* The key population is the load generator's and the same under every
   seed; the seed draws the Zipf sequence over it. A population that
   moved with the seed would make the hot keys, and with them the cost
   of a miss, a matter of seed luck. *)
let stream ~seed ~salt ~count =
  let zipf = Zipf.create ~n:keys ~theta in
  let cfg = { Loadgen.default_config with keys } in
  let g = rng ~seed ~salt in
  Array.init count (fun _ -> Loadgen.request_of_rank cfg (Zipf.sample zipf g))

let streams ~seed ~salt ~total =
  Array.init clients (fun c -> stream ~seed ~salt:(salt + c) ~count:(total / clients))

let timed_streams ~seed ~count = streams ~seed ~salt:100 ~total:count
let warmup_streams ~seed = streams ~seed ~salt:200 ~total:warmup_requests

(* --- the daemon --- *)

type daemon = { pid : int; sock : string }

let live = ref []

let stop_daemon d =
  let status = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  (try Sys.remove d.sock with Sys_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  status

let () = at_exit (fun () -> List.iter (fun d -> ignore (stop_daemon d)) !live)

let spawn_daemon ~lams ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let workers = string_of_int (Domain.recommended_domain_count ()) in
  let pid =
    Unix.create_process lams
      [| lams; "serve"; "--socket"; sock; "--workers"; workers |]
      null null null
  in
  Unix.close null;
  let d = { pid; sock } in
  live := d :: !live;
  let rec wait tries =
    match Client.connect (`Unix sock) with
    | c -> Client.close c
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
  in
  wait 1000;
  d

(* --- one closed-loop pass --- *)

type client_result = {
  lat : float list;  (** answered requests, microseconds *)
  failed : int;
  sampled : (Wire.request * Wire.response) list;
}

let answered = function
  | Wire.Plan_digest _ | Wire.Sched_digest _ | Wire.Redist_digest _ -> true
  | Wire.Stats_reply _ | Wire.Error _ | Wire.Overloaded -> false

let client_loop addr reqs ~sample out =
  let n = Array.length reqs in
  let lat = ref [] and failed = ref 0 and sampled = ref [] in
  (match Client.connect addr with
  | exception _ -> failed := n
  | c ->
      let rec go i =
        if i < n then
          match time_us (fun () -> Client.request c reqs.(i)) with
          | exception _ -> failed := !failed + (n - i) (* dead socket *)
          | resp, us ->
              if answered resp then begin
                lat := us :: !lat;
                if sample i then sampled := (reqs.(i), resp) :: !sampled
              end
              else incr failed;
              go (i + 1)
      in
      go 0;
      Client.close c);
  out := Some { lat = List.rev !lat; failed = !failed; sampled = !sampled }

let pass addr streams ~sample =
  let outs = Array.map (fun _ -> ref None) streams in
  let t0 = now_us () in
  let threads =
    Array.mapi
      (fun c reqs -> Thread.create (fun () -> client_loop addr reqs ~sample:(sample c) outs.(c)) ())
      streams
  in
  Array.iter Thread.join threads;
  let wall_s = (now_us () -. t0) /. 1e6 in
  let results =
    Array.to_list outs
    |> List.map (fun o ->
           Option.value !o ~default:{ lat = []; failed = 1; sampled = [] })
  in
  (results, wall_s)

let stats addr =
  let c = Client.connect addr in
  let r = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c) in
  match r with
  | Wire.Stats_reply s -> s
  | _ -> failwith "daemon answered Stats with something else"

(* --- in-process answers: the oracle and the replays --- *)

let answer plans scheds req =
  match req with
  | Wire.Plan r -> (
      match Store.Plan_store.key_of_req r with
      | Error _ -> None
      | Ok (key, _, local_shift) ->
          let v, hit = Store.Plan_store.find_key plans key in
          Some (Wire.Plan_digest (Store.Plan_store.digest v ~local_shift ~hit), hit))
  | Wire.Schedule r | Wire.Redist r -> (
      match Store.Sched_store.key_of_req r with
      | Error _ -> None
      | Ok (key, _, _) ->
          let v, hit = Store.Sched_store.find_key scheds key in
          Some
            ( (match req with
              | Wire.Schedule _ -> Wire.Sched_digest (Store.Sched_store.sched_digest v ~hit)
              | _ -> Wire.Redist_digest (Store.Sched_store.redist_digest v ~hit)),
              hit ))
  | Wire.Stats -> None

(* Digests compare without the hit flag: the daemon and the oracle
   caches are in different states. *)
let without_hit = function
  | Wire.Plan_digest d -> Wire.Plan_digest { d with plan_hit = false }
  | Wire.Sched_digest d -> Wire.Sched_digest { d with sched_hit = false }
  | Wire.Redist_digest d -> Wire.Redist_digest { d with redist_hit = false }
  | r -> r

let mismatches sampled =
  let plans = Store.Plan_store.create ~capacity:(1 lsl 16) () in
  let scheds = Store.Sched_store.create ~capacity:(1 lsl 16) () in
  List.length
    (List.filter
       (fun (req, got) ->
         match answer plans scheds req with
         | Some (want, _) -> without_hit want <> without_hit got
         | None -> true)
       sampled)

let interleave streams =
  let n = Array.fold_left (fun a s -> max a (Array.length s)) 0 streams in
  List.concat
    (List.init n (fun i ->
         Array.to_list streams
         |> List.filter_map (fun s -> if i < Array.length s then Some s.(i) else None)))

type replay = {
  off_us : float;  (** store time with Obs off, summed *)
  on_us : float;  (** the same lookups with Obs on, summed *)
  hit_us : float list;
  miss_us : float list;
  encode_us : float list;
  decode_us : float list;
}

(* Replay requests through two identical pairs of fresh stores of the
   daemon's sizes, both warmed with the warm-up stream: each request is
   answered once with Obs off and once with Obs on, back to back, and
   the store and the wire codec are timed from outside. *)
let replay ~warm reqs =
  let stores () =
    ( Store.Plan_store.create ~shards ~capacity:plan_capacity (),
      Store.Sched_store.create ~shards ~capacity:sched_capacity () )
  in
  let (plans, scheds), (plans_on, scheds_on) = (stores (), stores ()) in
  List.iter
    (fun r ->
      ignore (answer plans scheds r);
      ignore (answer plans_on scheds_on r))
    warm;
  Obs.reset ();
  let off_us = ref 0. and on_us = ref 0. in
  let hit_us = ref [] and miss_us = ref [] and encode_us = ref [] and decode_us = ref [] in
  List.iteri
    (fun id req ->
      let rq, enc_rq = time_us (fun () -> Wire.encode_request ~id req) in
      let _, dec_rq = time_us (fun () -> Wire.decode_request rq) in
      (match time_us (fun () -> answer plans scheds req) with
      | None, _ -> ()
      | Some (resp, hit), us ->
          off_us := !off_us +. us;
          if hit then hit_us := us :: !hit_us else miss_us := us :: !miss_us;
          let rs, enc_rs = time_us (fun () -> Wire.encode_response ~id resp) in
          let _, dec_rs = time_us (fun () -> Wire.decode_response rs) in
          encode_us := (enc_rq +. enc_rs) :: !encode_us;
          decode_us := (dec_rq +. dec_rs) :: !decode_us);
      Obs.set_enabled true;
      let _, us =
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
            time_us (fun () -> answer plans_on scheds_on req))
      in
      on_us := !on_us +. us)
    reqs;
  { off_us = !off_us; on_us = !on_us; hit_us = !hit_us; miss_us = !miss_us;
    encode_us = !encode_us; decode_us = !decode_us }

let stat_counter (s : Wire.stats_payload) name =
  Option.value ~default:0 (List.assoc_opt name s.s_counters)

let daemon_mean_us (s : Wire.stats_payload) =
  match List.assoc_opt "serve.latency_us" s.s_dists with
  | Some d -> d.d_mean
  | None -> 0.

let layers ~before ~after ~client_mean_us ~(r : replay) ~snap ~replayed =
  let diff name = stat_counter after name - stat_counter before name in
  let hit_ratio store =
    ratio (diff (store ^ ".hits")) (diff (store ^ ".hits") + diff (store ^ ".misses"))
  in
  let daemon_us = daemon_mean_us after in
  let encode_us = mean r.encode_us and decode_us = mean r.decode_us in
  let per_req name = ratio (counter snap name) replayed in
  [
    ("serve.wire.decode_us", decode_us);
    ("serve.wire.encode_us", encode_us);
    ("serve.store.hit_us", mean r.hit_us);
    ("serve.store.miss_us", mean r.miss_us);
    ("serve.plan_store.hit_ratio", hit_ratio "serve.plan_store");
    ("serve.sched_store.hit_ratio", hit_ratio "serve.sched_store");
    ( "serve.store.evictions",
      float_of_int (diff "serve.plan_store.evictions" + diff "serve.sched_store.evictions") );
    ("serve.batched", float_of_int (diff "serve.batched"));
    ("serve.shed", float_of_int (diff "serve.shed"));
    ("serve.daemon_us", daemon_us);
    ("serve.outside_us", client_mean_us -. daemon_us);
    ( "core.tables_built",
      per_req "kns.tables_built" +. per_req "fsm.tables_built" +. per_req "shared_fsm.tables_built" );
    ("core.kns.points_visited", per_req "kns.points_visited");
    (* socket transport and queue wake-ups are not a measured layer, so
       coverage here shows how much of a reply they take *)
    ( "trace.coverage",
      if client_mean_us > 0. then (encode_us +. decode_us +. daemon_us) /. client_mean_us else 0. );
    ("trace.overhead", if r.on_us > 0. then r.off_us /. r.on_us else 0.);
  ]

let replay_requests = 4_000

let go ~seed ~count ~trace ~lams ~sock =
  let addr = `Unix sock in
  let warm = warmup_streams ~seed in
  let warm_failed = ref 0 in
  let d, setups_s =
    repeated_setup ~repeats:3
      ~discard:(fun d -> ignore (stop_daemon d))
      (fun () ->
        let d = spawn_daemon ~lams ~sock in
        let results, _ = pass addr warm ~sample:(fun _ _ -> false) in
        warm_failed := List.fold_left (fun a r -> a + r.failed) 0 results;
        d)
  in
  let timed = timed_streams ~seed ~count in
  let g = rng ~seed ~salt:300 in
  let picked =
    Array.map
      (fun s ->
        let b = Array.make (Array.length s) false in
        for _ = 1 to 256 do
          b.(Prng.int g (Array.length s)) <- true
        done;
        b)
      timed
  in
  let sample c i = picked.(c).(i) in
  let before = if trace then Some (stats addr) else None in
  let results, wall_s = pass addr timed ~sample in
  let after = if trace then Some (stats addr) else None in
  let daemon_status = stop_daemon d in
  let latencies = Array.of_list (List.concat_map (fun r -> r.lat) results) in
  let bad = mismatches (List.concat_map (fun r -> r.sampled) results) in
  if bad > 0 then Printf.eprintf "%d daemon digests differ from the in-process store\n%!" bad;
  let failed = !warm_failed + bad + List.fold_left (fun a r -> a + r.failed) 0 results in
  let layers =
    match (before, after) with
    | Some before, Some after ->
        let warm = interleave warm in
        let reqs = List.filteri (fun i _ -> i < replay_requests) (interleave timed) in
        let r = replay ~warm reqs in
        layers ~before ~after ~client_mean_us:(mean (Array.to_list latencies)) ~r
          ~snap:(Obs.snapshot ()) ~replayed:(List.length reqs)
    | _ -> []
  in
  {
    setups_s;
    latencies_us = latencies;
    timed_s = wall_s;
    attempted = count + warmup_requests;
    failed;
    sim_ticks = 0;
    daemon_status;
    info =
      [ ("clients", Int clients); ("loop", Str "closed"); ("op_count", Int count);
        ("keys", Int keys); ("plan_capacity", Int plan_capacity);
        ("sched_capacity", Int sched_capacity); ("warmup_requests", Int warmup_requests) ];
    layers;
  }
