(** Open-loop arrival driver over the discrete-event clock, with
    overload control and size-or-timeout batched dispatch.

    Where {!Clients.run} is closed-loop (each client issues its next
    operation when the previous one completes, so offered load adapts
    to capacity and overload shows up only as a throughput plateau),
    this driver is open-loop: operations arrive on a simulated-time
    schedule — Poisson or fixed-rate at [rate_ops_per_s] — that is
    independent of how the system keeps up, like traffic from a large
    population of independent users.  Arrivals are appended round-robin
    to [n_clients] per-client FIFO queues.  {!run} serves each queue one
    operation at a time; {!run_batched} dispatches up to [batch] ops
    per client at once, as soon as [batch] are queued or once the
    oldest has waited [batch_wait_ns] (the size-or-timeout rule), for
    level-wise batched descents ([docs/BATCHING.md]).  Both follow the
    same conservative discrete-event discipline as {!Clients.run}.

    Past saturation an undefended open-loop system has unbounded queues
    and an exploding tail, so the driver carries the standard defenses,
    at every batch size: per-op {e deadlines} ([deadline_ns]), a
    pluggable {e admission policy} ({!Admission.t}) that sheds at
    arrival, a {e client retry policy} ({!Retry.t}) that re-enters
    shed/expired ops with a bounded budget (the retry-storm knob), and
    a two-phase rate schedule ([rate_change]) whose second phase is
    reported separately so metastable failures are measurable.  Latency
    is recorded from the op's {e first arrival}.  See
    [docs/WORKLOADS.md]. *)

(** Inter-arrival law: [Poisson] (exponential gaps, the memoryless
    many-independent-users model) or [Fixed] (constant gap, a paced
    load generator). *)
type discipline = Poisson | Fixed

val discipline_name : discipline -> string

(** Stats over the second phase of a [rate_change] run — the {e
    recovery window}, classified by the op's original arrival index. *)
type window = {
  w_offered : int;  (** fresh arrivals in the window *)
  w_completed : int;
  w_good : int;  (** completed within their deadline *)
  w_shed : int;  (** admission rejections of window ops (events) *)
  w_dropped : int;  (** window ops that died with their retry budget *)
  w_span_ns : int;  (** first window arrival to last completion *)
  w_goodput_ops_per_s : float;
}

type stats = {
  clients : int;
  ops : int;  (** fresh (non-retry) arrivals offered *)
  discipline : discipline;
  offered_ops_per_s : float;  (** the configured (phase-1) arrival rate *)
  makespan_ns : int;  (** first arrival to last completion *)
  latency : Fpb_obs.Histogram.t;
      (** per completed op, first arrival → completion
          ([arrival.latency_ns]) — queueing and retry delay included *)
  queue_ns : Fpb_obs.Histogram.t;
      (** per served attempt, (re-)enqueue → dispatch
          ([arrival.queue_ns]) *)
  service_ns : Fpb_obs.Histogram.t;
      (** per dispatch that served at least one op, dispatch →
          completion ([arrival.service_ns]) *)
  throughput_ops_per_s : float;  (** completed ops / makespan *)
  max_backlog : int;
      (** peak number of admitted ops waiting in queues *)
  backlog_peak_at_ns : int;
      (** when (relative to the run start) the backlog first reached
          [max_backlog] — localises the overload window *)
  time_above_watermark_ns : int;
      (** simulated time the backlog spent strictly above
          [backlog_watermark] *)
  backlog_watermark : int;  (** the watermark used (default 4×clients) *)
  completed : int;  (** ops actually serviced *)
  batches : int;
      (** dispatches that served at least one op ([= completed] for
          {!run}) *)
  good : int;  (** completed within their deadline (= [completed] when
                   no deadline is set) *)
  shed : int;  (** admission rejections (events; retries re-offer) *)
  expired : int;
      (** deadline misses: dropped at dispatch under [Deadline_aware],
          or completed past the deadline under the other policies *)
  retries : int;  (** re-entries scheduled by the retry policy *)
  dropped : int;  (** ops that never completed: retry budget exhausted *)
  goodput_ops_per_s : float;  (** [good] / makespan *)
  deadline_ns : int option;
  recovery : window option;  (** phase-2 stats of a [rate_change] run *)
}

(** [run ~sim ~n_clients ~n_ops ~rate_ops_per_s op] generates the
    arrival schedule ([seed], default 4242, fixes it — and any retry
    jitter — deterministically), dispatches [op ~client ~seq] for each
    admitted arrival in conservative virtual-time order ([op] must
    advance the simulated clock by the operation's duration), and
    returns the stats above.  [seq] is the op's global index in
    first-arrival order.

    [deadline_ns] arms per-op deadlines (absolute from first arrival);
    [admission] (default {!Admission.Admit_all}) gates arrivals;
    [retry] (default {!Retry.none}) re-enters shed/expired ops;
    [rate_change = (j, r)] switches the arrival rate to [r] from op [j]
    on and fills [stats.recovery]; [backlog_watermark] (default
    [4 * n_clients]) sets the time-above-watermark threshold;
    [live_backlog], when given, is kept equal to the current queued-op
    count while the run executes — background work (scrub, fuzzy
    checkpoints) can read it to yield under foreground pressure.
    @raise Invalid_argument if [n_clients < 1], [n_ops < 0],
    [rate_ops_per_s <= 0.], [deadline_ns <= 0] or [rate_change] is out
    of range. *)
val run :
  sim:Fpb_simmem.Sim.t ->
  n_clients:int ->
  n_ops:int ->
  rate_ops_per_s:float ->
  ?discipline:discipline ->
  ?seed:int ->
  ?deadline_ns:int ->
  ?admission:Admission.t ->
  ?retry:Retry.t ->
  ?rate_change:int * float ->
  ?backlog_watermark:int ->
  ?live_backlog:int ref ->
  (client:int -> seq:int -> unit) ->
  stats

(** [run_batched ~sim ~n_clients ~n_ops ~rate_ops_per_s ~batch
    ~batch_wait_ns exec] is {!run} with size-or-timeout dispatch: a
    client with [batch] ops queued dispatches at
    max(its previous completion, the [batch]-th op's enqueue time),
    otherwise at max(its previous completion, its head's enqueue time +
    [batch_wait_ns]), and takes up to [batch] ops off its queue.
    [exec ~client seqs] receives a fresh array of the group's ops in
    FIFO order and must advance the simulated clock by the whole
    group's service time.  [batch = 1] dispatches exactly as {!run}.

    Every optional argument means what it means for {!run}.  Under
    {!Admission.Deadline_aware}, ops already past their deadline are
    dropped from the group before [exec] (the group is not refilled),
    and the projected wait counts the dispatches ahead of the op:
    ceil(queue depth / [batch]) × the service-time estimate.
    @raise Invalid_argument as {!run}, or if [batch < 1] or
    [batch_wait_ns < 0]. *)
val run_batched :
  sim:Fpb_simmem.Sim.t ->
  n_clients:int ->
  n_ops:int ->
  rate_ops_per_s:float ->
  ?discipline:discipline ->
  ?seed:int ->
  ?deadline_ns:int ->
  ?admission:Admission.t ->
  ?retry:Retry.t ->
  ?rate_change:int * float ->
  ?backlog_watermark:int ->
  ?live_backlog:int ref ->
  batch:int ->
  batch_wait_ns:int ->
  (client:int -> int array -> unit) ->
  stats
