(** Fixed-size domain pool with a work queue — semantics in the mli. *)

type failure = {
  f_index : int;
  f_label : string;
  f_exn : string;
  f_backtrace : string;
}

let failure_to_string f =
  Printf.sprintf "task %d (%s) raised: %s%s" f.f_index f.f_label f.f_exn
    (if f.f_backtrace = "" then ""
     else "\n" ^ String.trim f.f_backtrace)

type t = {
  mu : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let size t = Array.length t.workers
let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Workers loop pulling closures off the queue until shutdown drains it.
   Task closures capture their own failures (see [submit]), so a
   raise escaping one here would be a pool bug; swallowing it keeps one
   broken task from killing the worker and hanging every later map. *)
let worker pool () =
  let rec next () =
    Mutex.lock pool.mu;
    let rec await () =
      match Queue.take_opt pool.queue with
      | Some job -> Some job
      | None ->
          if pool.stopping then None
          else begin
            Condition.wait pool.work_available pool.mu;
            await ()
          end
    in
    let job = await () in
    Mutex.unlock pool.mu;
    match job with
    | None -> ()
    | Some job ->
        (try job () with _ -> ());
        next ()
  in
  next ()

let create ?domains () =
  let n =
    match domains with
    | Some n when n >= 1 -> n
    | Some n -> invalid_arg (Printf.sprintf "Pool.create: domains = %d" n)
    | None -> default_domains ()
  in
  let pool =
    {
      mu = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init n (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mu;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ---- streaming tasks ---- *)

type 'a outcome = Value of 'a | Fail of failure | Cancelled

type 'a future = {
  fut_mu : Mutex.t;
  fut_done : Condition.t;
  mutable result : 'a outcome option;
}

let resolve fut outcome =
  Mutex.lock fut.fut_mu;
  fut.result <- Some outcome;
  Condition.broadcast fut.fut_done;
  Mutex.unlock fut.fut_mu

let poll fut =
  Mutex.lock fut.fut_mu;
  let r = fut.result in
  Mutex.unlock fut.fut_mu;
  r

let await fut =
  Mutex.lock fut.fut_mu;
  while fut.result = None do
    Condition.wait fut.fut_done fut.fut_mu
  done;
  let r = Option.get fut.result in
  Mutex.unlock fut.fut_mu;
  r

let enqueue t job =
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    invalid_arg "Pool: pool is shut down"
  end;
  Queue.add job t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mu

let submit t ?(cancel = fun () -> false) ?(label = "task") f =
  let fut = { fut_mu = Mutex.create (); fut_done = Condition.create (); result = None } in
  let job () =
    (* the cancellation hook runs on the worker, at dequeue time: a
       request whose deadline passed while queued never touches the
       pipeline.  A raising hook counts as "not cancelled". *)
    let cancelled = try cancel () with _ -> false in
    if cancelled then resolve fut Cancelled
    else
      let outcome =
        match f () with
        | v -> Value v
        | exception e ->
            Fail
              {
                f_index = 0;
                f_label = label;
                f_exn = Printexc.to_string e;
                f_backtrace = Printexc.get_backtrace ();
              }
      in
      resolve fut outcome
  in
  enqueue t job;
  fut

(* ---- batch maps: one future per element, awaited in order ---- *)

let map t ?(label = fun i _ -> string_of_int i) f xs =
  let futs = List.map (fun x -> (x, submit t (fun () -> f x))) xs in
  List.mapi
    (fun i (x, fut) ->
      match await fut with
      | Value v -> Ok v
      | Fail fl -> Error { fl with f_index = i; f_label = label i x }
      | Cancelled -> assert false (* no [cancel] hook was given *))
    futs
