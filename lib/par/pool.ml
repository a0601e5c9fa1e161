(* Fixed-size domain pool.

   One shared FIFO of jobs, [jobs - 1] worker domains blocked on it, and
   the calling domain driving its own batch: the caller executes queued
   jobs too while its batch is outstanding, so a pool of size j runs j
   tasks at once and a size-1 pool never spawns a domain: its caller
   runs the batch off the FIFO in submission order.  Results land at
   their submission index, which is what makes the parallel fit search
   order-deterministic. *)

type call = {
  mutable remaining : int;
  finished : Condition.t;  (* signalled (under the pool mutex) at remaining = 0 *)
}

type job = { run : unit -> unit; owner : call }

type t = {
  jobs : int;
  mutex : Mutex.t;
  pending : job Queue.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* True while this domain is executing a pool task — covers worker
   domains and the caller running jobs inline.  Raw [run] refuses to nest
   (a fixed pool can deadlock on itself); [Fanout] checks this flag and
   degrades to sequential execution instead. *)
let in_task_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let in_task () = !(Domain.DLS.get in_task_key)

let exec t job =
  let flag = Domain.DLS.get in_task_key in
  let saved = !flag in
  flag := true;
  (* [job.run] stores its own outcome and never raises. *)
  job.run ();
  flag := saved;
  Mutex.lock t.mutex;
  job.owner.remaining <- job.owner.remaining - 1;
  if job.owner.remaining = 0 then Condition.broadcast job.owner.finished;
  Mutex.unlock t.mutex

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec await () =
    if t.stopping then None
    else
      match Queue.take_opt t.pending with
      | Some _ as j -> j
      | None ->
          Condition.wait t.nonempty t.mutex;
          await ()
  in
  match await () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      Mutex.unlock t.mutex;
      exec t job;
      worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Queue.create ();
      nonempty = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.jobs

let nested_message =
  "Estima_par.Pool.run: nested run inside a pool task would deadlock a fixed-size pool; use \
   Estima_par.Fanout.map, which runs nested calls sequentially"

let guard t =
  if t.stopping then failwith "Estima_par.Pool.run: pool is shut down";
  if in_task () then failwith nested_message

(* The caller's side of a batch: run queued jobs (its own or anybody
   else's) until the batch is complete, sleeping only when the queue is
   drained but some of the batch is still in flight on workers. *)
let rec drive t call =
  Mutex.lock t.mutex;
  if call.remaining = 0 then Mutex.unlock t.mutex
  else
    match Queue.take_opt t.pending with
    | Some job ->
        Mutex.unlock t.mutex;
        exec t job;
        drive t call
    | None ->
        Condition.wait call.finished t.mutex;
        Mutex.unlock t.mutex;
        drive t call

let run t xs ~f =
  guard t;
  let n = Array.length xs in
  let results = Array.make n None in
  let task i () =
    results.(i) <-
      Some
        (match f xs.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let call = { remaining = n; finished = Condition.create () } in
  Mutex.lock t.mutex;
  for i = 0 to n - 1 do
    Queue.add { run = task i; owner = call } t.pending
  done;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  drive t call;
  Array.map Option.get results

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.stopping <- true;
  t.workers <- [];
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers
