#include "runtime/streaming_job.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "fidelity/metrics.h"

namespace ppa {

std::string_view FtModeToString(FtMode mode) {
  switch (mode) {
    case FtMode::kNone:
      return "none";
    case FtMode::kCheckpoint:
      return "checkpoint";
    case FtMode::kSourceReplay:
      return "source-replay";
    case FtMode::kActiveReplication:
      return "active";
    case FtMode::kPpa:
      return "ppa";
  }
  return "?";
}

Duration RecoveryReport::ActiveLatency() const {
  Duration max = Duration::Zero();
  for (const TaskRecoverySpec& spec : specs) {
    if (spec.kind == RecoveryKind::kActiveReplica) {
      auto it = schedule.completion.find(spec.task);
      if (it != schedule.completion.end()) {
        max = std::max(max, it->second);
      }
    }
  }
  return max;
}

Duration RecoveryReport::PassiveLatency() const {
  Duration max = Duration::Zero();
  for (const TaskRecoverySpec& spec : specs) {
    if (spec.kind != RecoveryKind::kActiveReplica) {
      auto it = schedule.completion.find(spec.task);
      if (it != schedule.completion.end()) {
        max = std::max(max, it->second);
      }
    }
  }
  return max;
}

StreamingJob::StreamingJob(Topology topology, JobConfig config,
                           JobRuntimeDeps deps)
    : topology_(std::move(topology)),
      config_(config),
      backend_(deps.backend),
      strand_(deps.strand == kAutoStrand ? deps.backend->NewStrand()
                                         : deps.strand),
      router_(&topology_),
      cluster_(deps.pool != nullptr
                   ? std::move(deps.pool)
                   : std::make_shared<NodePool>(config.num_worker_nodes,
                                                config.num_standby_nodes)),
      active_set_(topology_.num_tasks()) {
  // A shared pool defines the real cluster shape; keep the config's view
  // of it consistent (Start() checks num_standby_nodes, for example).
  config_.num_worker_nodes = cluster_.num_workers();
  config_.num_standby_nodes = cluster_.num_standbys();
  PPA_CHECK_OK(config_.Validate());
  if (config_.ft_mode == FtMode::kPpa) {
    config_.tentative_outputs = true;
  }
  op_factories_.resize(static_cast<size_t>(topology_.num_operators()));
  source_factories_.resize(static_cast<size_t>(topology_.num_operators()));
  processing_us_.assign(static_cast<size_t>(topology_.num_tasks()), 0.0);
  sink_recorded_until_.assign(static_cast<size_t>(topology_.num_tasks()),
                              -1);
  checkpoint_us_.assign(static_cast<size_t>(topology_.num_tasks()), 0.0);
  checkpoint_count_.assign(static_cast<size_t>(topology_.num_tasks()), 0);
  InitObservability();
}

void StreamingJob::InitObservability() {
  trace_.set_enabled(config_.observability);
  // The flight recorder mirrors the trace *before* the observability
  // gate: the bounded post-mortem ring keeps recording even when the
  // full trace is off.
  flight_.set_capacity(kFlightRecorderCapacity);
  trace_.set_mirror(&flight_);
  fidelity_.set_enabled(config_.observability);
  m_sink_task_latency_stable_.assign(
      static_cast<size_t>(topology_.num_tasks()), nullptr);
  m_sink_task_latency_tentative_.assign(
      static_cast<size_t>(topology_.num_tasks()), nullptr);
  if (!config_.observability) {
    return;
  }
  m_batch_ticks_ = metrics_.counter("job.batch_ticks");
  m_tuples_primary_ = metrics_.counter("engine.tuples_processed");
  m_batches_primary_ = metrics_.counter("engine.batches_processed");
  m_tuples_replica_ = metrics_.counter("engine.replica_tuples_processed");
  m_batches_replica_ = metrics_.counter("engine.replica_batches_processed");
  m_node_failures_ = metrics_.counter("job.node_failures");
  m_task_failures_ = metrics_.counter("job.task_failures");
  m_recoveries_active_ = metrics_.counter("recovery.active_started");
  m_recoveries_passive_ = metrics_.counter("recovery.passive_started");
  m_replica_activations_ = metrics_.counter("job.replica_activations");
  m_replica_deactivations_ = metrics_.counter("job.replica_deactivations");
  m_sink_records_ = metrics_.counter("sink.records");
  m_sink_tentative_ = metrics_.counter("sink.tentative_records");
  m_sink_corrections_ = metrics_.counter("sink.correction_records");
  if (config_.recovery_mode != af::RecoveryMode::kPpa) {
    m_af_skipped_ = metrics_.counter("af.checkpoints_skipped");
    m_af_forfeited_records_ = metrics_.counter("af.forfeited_records");
    m_af_certified_loss_ = metrics_.histogram("af.certified_loss");
  }
  m_buffered_tuples_ = metrics_.gauge("job.buffered_tuples");
  m_output_buffer_batches_ = metrics_.gauge("engine.output_buffer_batches");
  m_buffered_bytes_estimate_ =
      metrics_.gauge("engine.buffered_bytes_estimate");
  m_router_max_fanout_ = metrics_.gauge("router.max_fanout");
  m_checkpoint_bytes_total_ = metrics_.gauge("checkpoint.store_bytes");
  m_checkpoint_duration_us_ = metrics_.histogram("checkpoint.duration_us");
  m_checkpoint_state_tuples_ = metrics_.histogram("checkpoint.state_tuples");
  m_recovery_latency_s_ = metrics_.histogram("recovery.latency_s");
  m_recovery_active_latency_s_ =
      metrics_.histogram("recovery.active_latency_s");
  m_recovery_passive_latency_s_ =
      metrics_.histogram("recovery.passive_latency_s");
  m_tuples_per_batch_ = metrics_.histogram("engine.tuples_per_batch");
  m_sink_latency_stable_ = metrics_.histogram("sink.latency_stable_s");
  m_sink_latency_tentative_ = metrics_.histogram("sink.latency_tentative_s");
  m_sink_lineage_hops_ = metrics_.histogram("sink.lineage_hops");
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    if (!topology_.IsSinkTask(t)) {
      continue;
    }
    const std::string prefix = "sink.t" + std::to_string(t);
    m_sink_task_latency_stable_[static_cast<size_t>(t)] =
        metrics_.histogram(prefix + ".latency_stable_s");
    m_sink_task_latency_tentative_[static_cast<size_t>(t)] =
        metrics_.histogram(prefix + ".latency_tentative_s");
  }
  cluster_.AttachMetrics(&metrics_);
  checkpoints_.AttachMetrics(&metrics_);
  // Static routing-fanout profile: consumer-set size of every
  // (producer task, downstream operator) edge. Fixed by the topology, so
  // record it once here rather than per routed batch.
  obs::Histogram* edge_fanout = metrics_.histogram("router.edge_fanout");
  int64_t max_fanout = 0;
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    for (OperatorId to_op : topology_.op(topology_.task(t).op).downstream) {
      const int64_t fanout =
          static_cast<int64_t>(router_.Consumers(t, to_op).size());
      edge_fanout->Record(static_cast<double>(fanout));
      max_fanout = std::max(max_fanout, fanout);
    }
  }
  obs::Set(m_router_max_fanout_, static_cast<double>(max_fanout));
}

StreamingJob::~StreamingJob() = default;

Status StreamingJob::BindOperator(OperatorId op, OperatorFactory factory) {
  if (op < 0 || op >= topology_.num_operators()) {
    return InvalidArgument("BindOperator: bad operator id");
  }
  if (topology_.op(op).upstream.empty()) {
    return InvalidArgument("BindOperator: operator '" +
                           topology_.op(op).name +
                           "' is a source; use BindSource");
  }
  op_factories_[static_cast<size_t>(op)] = std::move(factory);
  return OkStatus();
}

Status StreamingJob::BindSource(OperatorId op, SourceFactory factory) {
  if (op < 0 || op >= topology_.num_operators()) {
    return InvalidArgument("BindSource: bad operator id");
  }
  if (!topology_.op(op).upstream.empty()) {
    return InvalidArgument("BindSource: operator '" + topology_.op(op).name +
                           "' is not a source");
  }
  source_factories_[static_cast<size_t>(op)] = std::move(factory);
  return OkStatus();
}

Status StreamingJob::SetActiveReplicaSet(const TaskSet& tasks) {
  if (started_) {
    return FailedPrecondition("SetActiveReplicaSet must precede Start");
  }
  if (tasks.universe_size() != topology_.num_tasks()) {
    return InvalidArgument("active set universe mismatch");
  }
  active_set_ = tasks;
  return OkStatus();
}

TaskRuntime* StreamingJob::replica(TaskId t) {
  auto it = replicas_.find(t);
  return it == replicas_.end() ? nullptr : it->second.get();
}

Status StreamingJob::Start() {
  if (started_) {
    return FailedPrecondition("job already started");
  }
  for (const OperatorInfo& oi : topology_.operators()) {
    const bool is_source = oi.upstream.empty();
    if (is_source && !source_factories_[static_cast<size_t>(oi.id)]) {
      return FailedPrecondition("source operator '" + oi.name + "' unbound");
    }
    if (!is_source && !op_factories_[static_cast<size_t>(oi.id)]) {
      return FailedPrecondition("operator '" + oi.name + "' unbound");
    }
  }
  if (config_.ft_mode == FtMode::kActiveReplication) {
    active_set_ = TaskSet::All(topology_.num_tasks());
  } else if (config_.ft_mode != FtMode::kPpa) {
    active_set_ = TaskSet(topology_.num_tasks());
  }
  if (!active_set_.empty() && config_.num_standby_nodes == 0) {
    return FailedPrecondition("active replicas require standby nodes");
  }

  primaries_.clear();
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    primaries_.push_back(MakeRuntime(t));
    primaries_.back()->AttachMetrics(m_tuples_primary_, m_batches_primary_);
  }
  for (TaskId t : active_set_.ToVector()) {
    replicas_[t] = MakeRuntime(t);
    replicas_[t]->AttachMetrics(m_tuples_replica_, m_batches_replica_);
  }

  // Placement: keep any pins made through cluster() before Start; fill the
  // rest round-robin.
  bool any_unplaced = false;
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    if (cluster_.NodeOfPrimary(t) < 0) {
      any_unplaced = true;
    }
  }
  if (any_unplaced) {
    for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
      if (cluster_.NodeOfPrimary(t) < 0) {
        PPA_RETURN_IF_ERROR(
            cluster_.PlacePrimary(t, t % cluster_.num_workers()));
      }
    }
  }
  for (TaskId t : active_set_.ToVector()) {
    PPA_RETURN_IF_ERROR(cluster_.PlaceReplicaAuto(t));
    trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaActivated, t,
                  cluster_.NodeOfReplica(t));
    obs::Add(m_replica_activations_);
  }

  started_ = true;
  if (config_.observability) {
    backend_->AttachMetrics(&metrics_);
  }

  divergence_.Reset(topology_.num_tasks(), backend_->now());

  // Recurring engine events.
  ScheduleManaged(Duration::Zero(), [this] { OnBatchTick(); });
  if (config_.ft_mode == FtMode::kCheckpoint ||
      config_.ft_mode == FtMode::kPpa) {
    const int n = topology_.num_tasks();
    for (TaskId t = 0; t < n; ++t) {
      Duration offset = config_.checkpoint_interval;
      if (config_.stagger_checkpoints) {
        offset += Duration::Micros(config_.checkpoint_interval.micros() *
                                   (t + 1) / (n + 1)) -
                  config_.checkpoint_interval / 2;
      }
      ScheduleManaged(offset, [this, t] { OnCheckpoint(t); });
    }
  }
  if (!active_set_.empty() || config_.ft_mode == FtMode::kNone ||
      config_.ft_mode == FtMode::kActiveReplication) {
    ScheduleManaged(config_.replica_sync_interval,
                    [this] { OnReplicaSync(); });
  }
  ScheduleManaged(config_.detection_interval, [this] { OnDetection(); });
  observed_emitted_.assign(static_cast<size_t>(topology_.num_tasks()), 0);
  observed_processed_.assign(static_cast<size_t>(topology_.num_tasks()), 0);
  observed_at_ = backend_->now();
  if (adaptation_interval_ > Duration::Zero()) {
    ScheduleManaged(adaptation_interval_, [this] { OnAdaptation(); });
  }
  return OkStatus();
}

std::unique_ptr<TaskRuntime> StreamingJob::MakeRuntime(TaskId t) {
  const OperatorInfo& oi = topology_.op(topology_.task(t).op);
  if (oi.upstream.empty()) {
    return std::make_unique<TaskRuntime>(
        &topology_, t, nullptr,
        source_factories_[static_cast<size_t>(oi.id)]());
  }
  return std::make_unique<TaskRuntime>(
      &topology_, t, op_factories_[static_cast<size_t>(oi.id)](), nullptr);
}

Status StreamingJob::EnablePlanAdaptation(Duration interval,
                                          AdaptationPlanner planner) {
  if (started_) {
    return FailedPrecondition("EnablePlanAdaptation must precede Start");
  }
  if (config_.ft_mode != FtMode::kPpa) {
    return FailedPrecondition("plan adaptation requires FtMode::kPpa");
  }
  if (interval <= Duration::Zero() || planner == nullptr) {
    return InvalidArgument("bad adaptation interval or planner");
  }
  adaptation_interval_ = interval;
  adaptation_planner_ = std::move(planner);
  return OkStatus();
}

StatusOr<Topology> StreamingJob::ObservedTopology() {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  const double window = (backend_->now() - observed_at_).seconds();
  TopologyBuilder builder;
  for (const OperatorInfo& oi : topology_.operators()) {
    // Observed selectivity: output tuples per processed input tuple over
    // the window, falling back to the static value with no data.
    double selectivity = oi.selectivity;
    if (!oi.upstream.empty() && window > 0) {
      int64_t emitted = 0;
      int64_t processed = 0;
      for (TaskId t : oi.tasks) {
        emitted += primaries_[static_cast<size_t>(t)]->emitted_tuples() -
                   observed_emitted_[static_cast<size_t>(t)];
        processed += primaries_[static_cast<size_t>(t)]->processed_tuples() -
                     observed_processed_[static_cast<size_t>(t)];
      }
      if (processed > 0) {
        selectivity = static_cast<double>(emitted) /
                      static_cast<double>(processed);
      }
    }
    builder.AddOperator(oi.name, oi.parallelism, oi.correlation, selectivity);
    for (int k = 0; k < oi.parallelism; ++k) {
      const TaskId t = oi.tasks[static_cast<size_t>(k)];
      double weight = topology_.task(t).weight;
      if (window > 0) {
        const double rate =
            static_cast<double>(
                primaries_[static_cast<size_t>(t)]->emitted_tuples() -
                observed_emitted_[static_cast<size_t>(t)]) /
            window;
        weight = std::max(rate, 1e-9);
      }
      builder.SetTaskWeight(oi.id, k, weight);
    }
  }
  for (const StreamEdge& e : topology_.edges()) {
    builder.Connect(e.from, e.to, e.scheme);
  }
  for (OperatorId src : topology_.source_operators()) {
    double total = 0.0;
    if (window > 0) {
      for (TaskId t : topology_.op(src).tasks) {
        total += static_cast<double>(
                     primaries_[static_cast<size_t>(t)]->emitted_tuples() -
                     observed_emitted_[static_cast<size_t>(t)]) /
                 window;
      }
    } else {
      for (TaskId t : topology_.op(src).tasks) {
        total += topology_.task(t).output_rate;
      }
    }
    builder.SetSourceRate(src, std::max(total, 1e-9));
  }
  // Advance the observation point.
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    observed_emitted_[static_cast<size_t>(t)] =
        primaries_[static_cast<size_t>(t)]->emitted_tuples();
    observed_processed_[static_cast<size_t>(t)] =
        primaries_[static_cast<size_t>(t)]->processed_tuples();
  }
  observed_at_ = backend_->now();
  return builder.Build();
}

Status StreamingJob::ActivateReplica(TaskId t) {
  std::unique_ptr<TaskRuntime> rep = MakeRuntime(t);
  const std::vector<TaskCheckpoint>* chain = checkpoints_.Chain(t);
  if (chain != nullptr) {
    // "Send the corresponding checkpoint to the destination node and
    // initialize the replica's state with it" (Sec. V-C); the replica then
    // catches up from the upstream output buffers, which the checkpoint
    // trimming protocol guarantees still cover everything past the chain.
    // The chain's base is a full snapshot; later elements are deltas.
    PPA_RETURN_IF_ERROR(rep->Restore((*chain)[0].blob));
    for (size_t i = 1; i < chain->size(); ++i) {
      PPA_RETURN_IF_ERROR(rep->ApplyDelta((*chain)[i].blob));
    }
  } else {
    // No checkpoint yet: direct state transfer from the primary.
    PPA_ASSIGN_OR_RETURN(std::string blob,
                         primaries_[static_cast<size_t>(t)]->Snapshot());
    PPA_RETURN_IF_ERROR(rep->Restore(blob));
  }
  // A previously-thinned task's upstream buffers only cover batches past
  // the certified skip frontier; seed the replica there (no-op for exact
  // tasks, where TrimBatch never exceeds the restored coverage).
  if (checkpoints_.TrimBatch(t) > rep->next_batch()) {
    rep->FastForward(checkpoints_.TrimBatch(t));
  }
  PPA_RETURN_IF_ERROR(cluster_.PlaceReplicaAuto(t));
  rep->AttachMetrics(m_tuples_replica_, m_batches_replica_);
  replicas_[t] = std::move(rep);
  trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaActivated, t,
                cluster_.NodeOfReplica(t));
  obs::Add(m_replica_activations_);
  return OkStatus();
}

Status StreamingJob::ApplyActiveReplicaSet(const TaskSet& tasks) {
  if (!started_) {
    return FailedPrecondition("job not started; use SetActiveReplicaSet");
  }
  if (config_.ft_mode != FtMode::kPpa) {
    return FailedPrecondition("dynamic replica changes require FtMode::kPpa");
  }
  if (tasks.universe_size() != topology_.num_tasks()) {
    return InvalidArgument("active set universe mismatch");
  }
  // Deactivate replicas leaving the plan (never while their primary is
  // failed or recovering: the replica may be the recovery path).
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    const TaskId t = it->first;
    const bool busy = recovering_.count(t) > 0 ||
                      !primaries_[static_cast<size_t>(t)]->alive();
    if (!tasks.Contains(t) && !busy) {
      cluster_.RemoveReplica(t);
      active_set_.Remove(t);
      trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaDeactivated, t);
      obs::Add(m_replica_deactivations_);
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
  // Activate replicas entering the plan.
  for (TaskId t : tasks.ToVector()) {
    if (replicas_.count(t) > 0 || recovering_.count(t) > 0 ||
        !primaries_[static_cast<size_t>(t)]->alive()) {
      continue;
    }
    PPA_RETURN_IF_ERROR(ActivateReplica(t));
    active_set_.Add(t);
  }
  Advance();  // New replicas catch up from the buffered outputs.
  return OkStatus();
}

void StreamingJob::OnAdaptation() {
  auto observed = ObservedTopology();
  if (observed.ok()) {
    auto plan = adaptation_planner_(*observed);
    if (plan.ok()) {
      Status applied = ApplyActiveReplicaSet(*plan);
      if (!applied.ok()) {
        PPA_LOG(Warning) << "plan adaptation skipped: "
                         << applied.ToString();
      }
    } else {
      PPA_LOG(Warning) << "adaptation planner failed: "
                       << plan.status().ToString();
    }
  }
  ScheduleManaged(adaptation_interval_, [this] { OnAdaptation(); });
}

void StreamingJob::OnBatchTick() {
  if (frontier_ < 0) {
    // Anchor of the latency lineage: batch b's tuples enter the system
    // at first_tick_at_ + b * batch_interval.
    first_tick_at_ = backend_->now();
  }
  ++frontier_;
  Advance();
  const int64_t buffered = CurrentBufferedTuples();
  peak_buffered_tuples_ = std::max(peak_buffered_tuples_, buffered);
  obs::Add(m_batch_ticks_);
  obs::Set(m_buffered_tuples_, static_cast<double>(buffered));
  if (m_output_buffer_batches_ != nullptr) {
    int64_t batches = 0;
    for (const auto& rt : primaries_) {
      batches += static_cast<int64_t>(rt->output_buffer().size());
    }
    obs::Set(m_output_buffer_batches_, static_cast<double>(batches));
    // Floor estimate of replay-buffer memory: tuples and batch headers at
    // their in-memory struct size (keys are small ints here, so payload
    // bytes are the structs themselves).
    obs::Set(m_buffered_bytes_estimate_,
             static_cast<double>(
                 buffered * static_cast<int64_t>(sizeof(Tuple)) +
                 batches * static_cast<int64_t>(sizeof(BatchOutput))));
  }
  NoteCaughtUpTasks();
  ScheduleManaged(config_.batch_interval, [this] { OnBatchTick(); });
}

void StreamingJob::NoteCaughtUpTasks() {
  for (auto it = catching_up_.begin(); it != catching_up_.end();) {
    const TaskId t = *it;
    TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
    if (rt->alive() && rt->next_batch() > frontier_) {
      trace_.Record(backend_->now(), obs::TraceEventKind::kTaskCaughtUp, t, -1,
                    frontier_);
      it = catching_up_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t StreamingJob::CurrentBufferedTuples() const {
  int64_t total = 0;
  for (const auto& rt : primaries_) {
    total += rt->BufferedTuples();
  }
  return total;
}

void StreamingJob::Advance() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (OperatorId op : topology_.topo_order()) {
      for (TaskId t : topology_.op(op).tasks) {
        progress |= TryAdvance(primaries_[static_cast<size_t>(t)].get(),
                               /*is_replica=*/false);
        auto rep = replicas_.find(t);
        if (rep != replicas_.end()) {
          progress |= TryAdvance(rep->second.get(), /*is_replica=*/true);
        }
      }
    }
  }
}

bool StreamingJob::CanProcess(TaskId t, int64_t b) const {
  for (int si : topology_.task(t).in_substreams) {
    const Substream& s = topology_.substreams()[si];
    const TaskRuntime* up = primaries_[static_cast<size_t>(s.from)].get();
    if (up->FindBatch(b) != nullptr) {
      continue;  // Data present.
    }
    if (up->alive() && up->next_batch() > b) {
      continue;  // Produced in the past but no longer buffered (trimmed or
                 // skipped by recovery): resolved, possibly degraded.
    }
    if (!up->alive() && punctured_tasks_.count(s.from) > 0) {
      continue;  // Master-injected batch-over punctuation (Sec. V-B).
    }
    return false;
  }
  return true;
}

std::vector<Tuple> StreamingJob::GatherInputs(TaskId t, int64_t b,
                                              bool* punctured,
                                              BatchRunContext* ctx) {
  std::vector<Tuple> inputs;
  const OperatorId to_op = topology_.task(t).op;
  for (int si : topology_.task(t).in_substreams) {
    const Substream& s = topology_.substreams()[si];
    const TaskRuntime* up = primaries_[static_cast<size_t>(s.from)].get();
    const BatchOutput* bo = up->FindBatch(b);
    if (bo == nullptr) {
      if (!up->alive() || up->ever_failed()) {
        *punctured = true;
      }
      continue;
    }
    if (ctx != nullptr) {
      ctx->ingest_at = std::min(ctx->ingest_at, bo->ingest_at);
      ctx->hops = std::max(ctx->hops, bo->hops + 1);
    }
    router_.RouteBatchTo(s.from, to_op, *bo, t, &inputs);
  }
  return inputs;
}

bool StreamingJob::TryAdvance(TaskRuntime* rt, bool is_replica) {
  if (rt == nullptr || !rt->alive()) {
    return false;
  }
  const TaskId t = rt->id();
  bool advanced = false;
  while (rt->next_batch() <= frontier_) {
    const int64_t b = rt->next_batch();
    if (!rt->is_source() && !CanProcess(t, b)) {
      break;
    }
    bool punctured = false;
    BatchRunContext ctx;
    // Sources (and punctuation-fed batches, which gather no upstream
    // lineage) stamp the batch's nominal tick time.
    ctx.ingest_at = BatchTickTime(b);
    std::vector<Tuple> inputs;
    if (!rt->is_source()) {
      inputs = GatherInputs(t, b, &punctured, &ctx);
    }
    const size_t in_count = inputs.size();
    const BatchOutput& out = rt->RunBatch(b, std::move(inputs), true, ctx);
    if (!is_replica) {
      const double work =
          rt->is_source() ? static_cast<double>(out.tuples.size())
                          : static_cast<double>(in_count);
      processing_us_[static_cast<size_t>(t)] +=
          work * config_.process_cost_per_tuple_us;
      if (config_.recovery_mode != af::RecoveryMode::kPpa) {
        // Conservative un-persisted drift: every record processed since
        // the task's last persisted blob could be forfeited by a thinned
        // recovery (DESIGN.md §17). Cleared when a blob lands.
        const int64_t records = static_cast<int64_t>(work);
        divergence_.Observe(t, records,
                            records * static_cast<int64_t>(sizeof(Tuple)),
                            topology_.task(t).weight);
      }
      if (!rt->is_source()) {
        obs::Observe(m_tuples_per_batch_, static_cast<double>(in_count));
      }
      if (punctured) {
        degraded_batches_.insert(b);
      }
      if (topology_.IsSinkTask(t)) {
        // Batches replayed by a recovered sink were already delivered to
        // the user before the failure; suppress the duplicates.
        if (b > sink_recorded_until_[static_cast<size_t>(t)]) {
          const bool tentative =
              punctured || degraded_batches_.count(b) > 0;
          for (const Tuple& tuple : out.tuples) {
            sink_records_.push_back(SinkRecord{
                tuple, tentative, backend_->now(), false, out.ingest_at});
          }
          sink_recorded_until_[static_cast<size_t>(t)] = b;
          RecordSinkBatch(t, b, static_cast<int64_t>(out.tuples.size()),
                          tentative, out.ingest_at, out.hops);
        }
        // Sinks have no subscribers; their buffer is not needed for
        // replay.
        rt->TrimOutputBuffer(b);
      }
    }
    advanced = true;
  }
  return advanced;
}

void StreamingJob::RecordSinkBatch(TaskId t, int64_t batch, int64_t tuples,
                                   bool tentative, TimePoint ingest_at,
                                   int32_t hops) {
  obs::Add(m_sink_records_, tuples);
  if (tentative) {
    obs::Add(m_sink_tentative_, tuples);
  }
  const double latency_s = (backend_->now() - ingest_at).seconds();
  obs::Observe(tentative ? m_sink_latency_tentative_ : m_sink_latency_stable_,
               latency_s);
  obs::Observe(tentative
                   ? m_sink_task_latency_tentative_[static_cast<size_t>(t)]
                   : m_sink_task_latency_stable_[static_cast<size_t>(t)],
               latency_s);
  obs::Observe(m_sink_lineage_hops_, static_cast<double>(hops));
  trace_.Record(backend_->now(),
                tentative ? obs::TraceEventKind::kSinkBatchTentative
                          : obs::TraceEventKind::kSinkBatchStable,
                t, -1, batch, tuples);
  const bool was_open = tentative_window_open_;
  if (tentative && !tentative_window_open_) {
    trace_.Record(backend_->now(), obs::TraceEventKind::kTentativeWindowBegin,
                  -1, -1, batch);
    tentative_window_open_ = true;
    tentative_window_last_batch_ = batch;
  } else if (tentative) {
    tentative_window_last_batch_ =
        std::max(tentative_window_last_batch_, batch);
  } else if (tentative_window_open_ && undetected_failures_.empty() &&
             recovering_.empty()) {
    // Stable emissions from unaffected sinks do not close the window
    // while a failure is still being recovered; the first stable batch
    // after full recovery does. The closing event carries the last
    // *tentative* batch, so [first_batch, last_batch] is the degraded
    // range even when the closing sink replays batches from before the
    // window opened.
    trace_.Record(backend_->now(), obs::TraceEventKind::kTentativeWindowEnd,
                  -1, -1, tentative_window_last_batch_);
    tentative_window_open_ = false;
  }
  // Live fidelity timeseries: one OF/IC sample per sink delivery while a
  // tentative window is open (or opening/closing), computed from the
  // currently-failed primaries. Stable steady-state batches are skipped:
  // there OF == IC == 1 by construction.
  if (fidelity_.enabled() && (tentative || was_open)) {
    TaskSet failed(topology_.num_tasks());
    int64_t num_failed = 0;
    for (TaskId u = 0; u < topology_.num_tasks(); ++u) {
      if (!primaries_[static_cast<size_t>(u)]->alive()) {
        failed.Add(u);
        ++num_failed;
      }
    }
    obs::FidelitySample sample;
    sample.at = backend_->now();
    sample.batch = batch;
    sample.sink_task = t;
    sample.tentative = tentative;
    sample.failed_tasks = num_failed;
    if (num_failed > 0) {
      sample.output_fidelity = ComputeOutputFidelity(topology_, failed);
      sample.internal_completeness =
          ComputeInternalCompleteness(topology_, failed);
    }
    fidelity_.Record(sample);
  }
}

bool StreamingJob::ApproxEligible(TaskId t) const {
  switch (config_.recovery_mode) {
    case af::RecoveryMode::kPpa:
      return false;
    case af::RecoveryMode::kApprox:
      return true;
    case af::RecoveryMode::kHybrid:
      // Hybrid placement rule (DESIGN.md §17): tasks under the active
      // replica plan (the planner's high-weight picks) stay exact; the
      // rest run under the bounded-error contract.
      return !active_set_.Contains(t) && replicas_.count(t) == 0;
  }
  return false;
}

bool StreamingJob::ShouldSkipCheckpoint(TaskId t, TaskRuntime* rt) const {
  if (!ApproxEligible(t)) {
    return false;
  }
  // Nothing new to certify since the frontier last moved: take the (now
  // cheap) checkpoint and reset the drift instead of chasing a frontier
  // that stalled.
  if (rt->next_batch() <= checkpoints_.TrimBatch(t)) {
    return false;
  }
  // Job-wide at-risk drift: every task already running ahead of its
  // persisted coverage, plus this one. A correlated failure could forfeit
  // all of them at once, so both the job budget and the certified-loss cap
  // are evaluated over the union.
  const af::Divergence& task_drift = divergence_.OfTask(t);
  af::Divergence job_drift = task_drift;
  TaskSet at_risk(topology_.num_tasks());
  at_risk.Add(t);
  for (TaskId u = 0; u < topology_.num_tasks(); ++u) {
    if (u != t && checkpoints_.TrimBatch(u) > checkpoints_.CoveredBatch(u)) {
      job_drift.Add(divergence_.OfTask(u));
      at_risk.Add(u);
    }
  }
  const af::ErrorBudget budget(config_.error_budget);
  if (!budget.AllowSkip(task_drift,
                        divergence_.ElapsedSeconds(t, backend_->now()),
                        job_drift)) {
    return false;
  }
  return af::CertifiedLossBound(topology_, at_risk) <=
         config_.error_budget.max_certified_loss;
}

void StreamingJob::OnCheckpoint(TaskId t) {
  TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
  if (rt->alive() && ShouldSkipCheckpoint(t, rt)) {
    // Thinned checkpoint: certify coverage up to the live frontier
    // without persisting a blob. The snapshot baseline is untouched, so
    // the next persisted delta spans the gap; upstream buffers may trim
    // as if the checkpoint had been taken, making the skipped batches
    // unrecoverable-by-replay — exactly the drift the budget certified.
    ++checkpoints_skipped_;
    checkpoints_.NoteSkipped(t, rt->next_batch());
    trace_.Record(backend_->now(), obs::TraceEventKind::kCheckpointSkipped, t,
                  -1, rt->next_batch(), divergence_.OfTask(t).records);
    obs::Add(m_af_skipped_);
    TrimUpstreamBuffers(t);
  } else if (rt->alive()) {
    trace_.Record(backend_->now(), obs::TraceEventKind::kCheckpointBegin, t, -1,
                  rt->next_batch());
    TaskCheckpoint cp;
    cp.task = t;
    cp.next_batch = rt->next_batch();
    const bool take_delta =
        config_.delta_checkpoints && rt->SupportsDeltaSnapshots() &&
        checkpoints_.Chain(t) != nullptr &&
        checkpoints_.ChainDeltas(t) < config_.max_delta_chain &&
        checkpoint_rebase_.count(t) == 0;
    if (take_delta) {
      auto delta = rt->SnapshotDelta();
      PPA_CHECK_OK(delta.status());
      cp.state_tuples = delta->state_tuples;
      cp.blob = std::move(delta->blob);
    } else {
      auto blob = rt->Snapshot();
      PPA_CHECK_OK(blob.status());
      cp.state_tuples = rt->StateSizeTuples();
      cp.blob = *std::move(blob);
    }
    const int64_t blob_bytes = static_cast<int64_t>(cp.blob.size());
    const int64_t state_tuples = cp.state_tuples;
    const double cp_us =
        config_.checkpoint_fixed_cost_us +
        static_cast<double>(state_tuples) *
            config_.checkpoint_cost_per_state_tuple_us;
    const Duration cp_cost = Duration::Micros(static_cast<int64_t>(cp_us));
    if (take_delta) {
      PPA_CHECK_OK(checkpoints_.PutDelta(std::move(cp)));
    } else {
      checkpoints_.Put(std::move(cp));
    }
    checkpoint_rebase_.erase(t);
    ++checkpoint_count_[static_cast<size_t>(t)];
    checkpoint_us_[static_cast<size_t>(t)] += cp_us;
    // The end event carries the modeled CPU completion time; no loop event
    // is scheduled for it (scheduling one would perturb event ids and break
    // bit-identity with observability off).
    trace_.Record(backend_->now() + cp_cost, obs::TraceEventKind::kCheckpointEnd,
                  t, -1, blob_bytes, static_cast<int64_t>(cp_us));
    obs::Observe(m_checkpoint_duration_us_, cp_us);
    obs::Observe(m_checkpoint_state_tuples_,
                 static_cast<double>(state_tuples));
    obs::Set(m_checkpoint_bytes_total_,
             static_cast<double>(checkpoints_.TotalBlobBytes()));
    checkpoint_bytes_written_ += blob_bytes;
    if (config_.recovery_mode != af::RecoveryMode::kPpa) {
      // The blob persists everything processed so far; the drift epoch
      // restarts here.
      divergence_.Clear(t, backend_->now());
    }
    TrimUpstreamBuffers(t);
  }
  ScheduleManaged(config_.checkpoint_interval,
                  [this, t] { OnCheckpoint(t); });
}

void StreamingJob::TrimUpstreamBuffers(TaskId checkpointed) {
  // Each upstream producer of the freshly checkpointed task may drop every
  // batch that all of its consumers' checkpoints already cover.
  for (int si : topology_.task(checkpointed).in_substreams) {
    const Substream& s = topology_.substreams()[si];
    const TaskId u = s.from;
    int64_t min_covered = INT64_MAX;
    for (int osi : topology_.task(u).out_substreams) {
      const Substream& os = topology_.substreams()[osi];
      // TrimBatch folds in the skip frontier of thinned consumers; it
      // equals CoveredBatch whenever the consumer never skipped.
      min_covered = std::min(min_covered, checkpoints_.TrimBatch(os.to));
      // Consumer replicas read from this buffer as well; keep what they
      // have not yet processed.
      auto rep = replicas_.find(os.to);
      if (rep != replicas_.end() && rep->second->alive()) {
        min_covered = std::min(min_covered, rep->second->next_batch());
      }
    }
    if (min_covered > 0 && min_covered != INT64_MAX) {
      primaries_[static_cast<size_t>(u)]->TrimOutputBuffer(min_covered - 1);
    }
  }
}

void StreamingJob::OnReplicaSync() {
  auto consumption_level = [&](TaskId t) {
    int64_t level = INT64_MAX;
    for (int osi : topology_.task(t).out_substreams) {
      const Substream& os = topology_.substreams()[osi];
      level = std::min(
          level, primaries_[static_cast<size_t>(os.to)]->next_batch());
      auto rep = replicas_.find(os.to);
      if (rep != replicas_.end() && rep->second->alive()) {
        level = std::min(level, rep->second->next_batch());
      }
    }
    return level == INT64_MAX ? frontier_ + 1 : level;
  };
  // Sink replicas keep enough recent batches to flush them to the user at
  // takeover (failure + detection can hide up to a detection interval of
  // output).
  const int64_t sink_retention =
      config_.detection_interval.micros() / config_.batch_interval.micros() +
      2;
  for (auto& [t, rep] : replicas_) {
    if (rep->alive()) {
      if (topology_.IsSinkTask(t)) {
        rep->TrimOutputBuffer(frontier_ - sink_retention);
      } else {
        rep->TrimOutputBuffer(consumption_level(t) - 1);
      }
    }
  }
  // Without checkpoint-driven trimming, primary buffers are trimmed by
  // downstream consumption instead.
  if (config_.ft_mode == FtMode::kActiveReplication ||
      config_.ft_mode == FtMode::kNone) {
    for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
      TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
      if (rt->alive() && !topology_.IsSinkTask(t)) {
        rt->TrimOutputBuffer(consumption_level(t) - 1);
      }
    }
  }
  ScheduleManaged(config_.replica_sync_interval,
                  [this] { OnReplicaSync(); });
}

int64_t StreamingJob::EstimateReplayTuples(TaskId t, int64_t from_batch) const {
  const double batch_seconds = config_.batch_interval.seconds();
  const int64_t span = std::max<int64_t>(0, frontier_ + 1 - from_batch);
  if (topology_.IsSourceTask(t)) {
    // Sources regenerate their own output deterministically.
    return static_cast<int64_t>(topology_.task(t).output_rate *
                                static_cast<double>(span) * batch_seconds);
  }
  int64_t total = 0;
  const OperatorId to_op = topology_.task(t).op;
  for (int si : topology_.task(t).in_substreams) {
    const Substream& s = topology_.substreams()[si];
    const TaskRuntime* up = primaries_[static_cast<size_t>(s.from)].get();
    int64_t batches_with_data = 0;
    for (const BatchOutput& bo : up->output_buffer()) {
      if (bo.batch < from_batch || bo.batch > frontier_) {
        continue;
      }
      ++batches_with_data;
      total += static_cast<int64_t>(
          router_.RouteBatchTo(s.from, to_op, bo, t, nullptr));
    }
    // Batches a failed upstream will reproduce during its own recovery are
    // estimated analytically from the substream rate.
    const int64_t missing = span - batches_with_data;
    if (missing > 0 && (up->ever_failed() || !up->alive())) {
      total += static_cast<int64_t>(s.rate * static_cast<double>(missing) *
                                    batch_seconds);
    }
  }
  return total;
}

void StreamingJob::OnDetection() {
  if (!undetected_failures_.empty() && config_.ft_mode != FtMode::kNone) {
    trace_.Record(backend_->now(), obs::TraceEventKind::kFailureDetected, -1, -1,
                  static_cast<int64_t>(undetected_failures_.size()));
    RecoveryReport report;
    report.failure_time = last_failure_time_;
    report.detection_time = backend_->now();
    for (TaskId t : undetected_failures_) {
      TaskRecoverySpec spec;
      spec.task = t;
      TaskRuntime* rep = replica(t);
      const bool active_available =
          rep != nullptr && rep->alive() &&
          (config_.ft_mode == FtMode::kActiveReplication ||
           config_.ft_mode == FtMode::kPpa);
      if (active_available) {
        spec.kind = RecoveryKind::kActiveReplica;
        spec.resend_tuples = rep->BufferedTuples();
      } else if (config_.ft_mode == FtMode::kSourceReplay ||
                 config_.ft_mode == FtMode::kActiveReplication) {
        // Pure active replication with a dead replica falls back to
        // replaying from the sources (there are no checkpoints).
        spec.kind = RecoveryKind::kSourceReplay;
        const int64_t start =
            std::max<int64_t>(0, frontier_ + 1 - config_.window_batches);
        const double span_sec = static_cast<double>(frontier_ + 1 - start) *
                                config_.batch_interval.seconds();
        double rate = topology_.task(t).output_rate;
        if (!topology_.IsSourceTask(t)) {
          rate = 0;
          for (int si : topology_.task(t).in_substreams) {
            rate += topology_.substreams()[si].rate;
          }
        }
        spec.replay_tuples = static_cast<int64_t>(rate * span_sec);
      } else {
        spec.kind = RecoveryKind::kCheckpoint;
        // Loading a delta chain costs base + every delta. A thinned task
        // resumes at its certified skip frontier, so only batches past it
        // are replayed (the approximate-recovery speedup).
        spec.state_tuples = checkpoints_.ChainStateTuples(t);
        spec.replay_tuples =
            EstimateReplayTuples(t, checkpoints_.TrimBatch(t));
      }
      report.specs.push_back(spec);
    }
    report.schedule =
        ComputeRecoverySchedule(topology_, report.specs, config_.recovery);
    if (arbiter_ != nullptr) {
      // Cross-job arbitration: higher-ranked tenants of the shared
      // cluster recover first; this job's completions all shift by the
      // arbiter's hold (replica activation and checkpoint replay alike).
      const Duration hold = arbiter_(report.specs);
      if (hold > Duration::Zero()) {
        report.arbitration_hold = hold;
        for (auto& [task, completion] : report.schedule.completion) {
          completion += hold;
        }
        trace_.Record(backend_->now(), obs::TraceEventKind::kRecoveryArbitrated,
                      -1, -1, hold.micros(),
                      static_cast<int64_t>(report.specs.size()));
      }
    }
    for (const TaskRecoverySpec& spec : report.specs) {
      recovering_[spec.task] = spec.kind;
      if (config_.tentative_outputs &&
          spec.kind != RecoveryKind::kActiveReplica) {
        punctured_tasks_.insert(spec.task);
      }
      const Duration offset = report.schedule.completion.at(spec.task);
      trace_.Record(backend_->now(), obs::TraceEventKind::kRecoveryStart,
                    spec.task, -1, static_cast<int64_t>(spec.kind),
                    offset.micros());
      if (spec.kind == RecoveryKind::kActiveReplica) {
        obs::Add(m_recoveries_active_);
        obs::Observe(m_recovery_active_latency_s_, offset.seconds());
      } else {
        obs::Add(m_recoveries_passive_);
        obs::Observe(m_recovery_passive_latency_s_, offset.seconds());
      }
      obs::Observe(m_recovery_latency_s_, offset.seconds());
      ScheduleManaged(offset, [this, t = spec.task, k = spec.kind] {
        CompleteRecovery(t, k);
      });
    }
    reports_.push_back(std::move(report));
    undetected_failures_.clear();
    Advance();
  }
  if (config_.ft_mode == FtMode::kNone) {
    undetected_failures_.clear();
  }
  ScheduleManaged(config_.detection_interval, [this] { OnDetection(); });
}

void StreamingJob::CompleteRecovery(TaskId t, RecoveryKind kind) {
  recovering_.erase(t);
  punctured_tasks_.erase(t);
  switch (kind) {
    case RecoveryKind::kActiveReplica: {
      auto it = replicas_.find(t);
      PPA_CHECK(it != replicas_.end());
      // The replica is the primary now. It is installed before the
      // takeover delivery below, so the fidelity sample that delivery
      // records (possibly the one closing the tentative window) does not
      // count `t` as failed. Its tuples count toward the primary engine
      // counters from here on.
      primaries_[static_cast<size_t>(t)] = std::move(it->second);
      replicas_.erase(it);
      TaskRuntime* rep = primaries_[static_cast<size_t>(t)].get();
      rep->MarkAlive();
      rep->AttachMetrics(m_tuples_primary_, m_batches_primary_);
      if (topology_.IsSinkTask(t)) {
        // The dead primary's records stop where delivery stopped; deliver
        // the replica's buffered outputs from there on (the takeover
        // "resend buffered tuples" of Sec. V-B, here to the end user).
        for (const BatchOutput& bo : rep->output_buffer()) {
          if (bo.batch <= sink_recorded_until_[static_cast<size_t>(t)]) {
            continue;
          }
          const bool tentative = degraded_batches_.count(bo.batch) > 0;
          for (const Tuple& tuple : bo.tuples) {
            sink_records_.push_back(SinkRecord{
                tuple, tentative, backend_->now(), false, bo.ingest_at});
          }
          sink_recorded_until_[static_cast<size_t>(t)] = bo.batch;
          RecordSinkBatch(t, bo.batch,
                          static_cast<int64_t>(bo.tuples.size()), tentative,
                          bo.ingest_at, bo.hops);
        }
        rep->TrimOutputBuffer(frontier_);
      }
      // The placement follows the takeover: the standby node now hosts
      // the primary and its replica slot is free again.
      PPA_CHECK_OK(cluster_.PromoteReplicaToPrimary(t));
      active_set_.Remove(t);
      if (checkpoints_.Chain(t) != nullptr) {
        // The new primary's snapshot marker dates from replica
        // activation, so its next delta could overlap slices the dead
        // primary already persisted; rebase with a full snapshot.
        checkpoint_rebase_.insert(t);
      }
      break;
    }
    case RecoveryKind::kCheckpoint: {
      TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
      const std::vector<TaskCheckpoint>* chain = checkpoints_.Chain(t);
      if (chain != nullptr) {
        PPA_CHECK_OK(rt->Restore((*chain)[0].blob));
        for (size_t i = 1; i < chain->size(); ++i) {
          PPA_CHECK_OK(rt->ApplyDelta((*chain)[i].blob));
        }
      } else {
        rt->Reset(0);
      }
      const int64_t restored = rt->next_batch();
      const int64_t resume = checkpoints_.TrimBatch(t);
      if (resume > restored) {
        // Approximate recovery (DESIGN.md §17): the gap [restored,
        // resume) was certified at skip time and its upstream buffers
        // trimmed, so it cannot be replayed; fast-forward over it and
        // report the divergence certificate into the recovery timeline.
        // Only a task whose checkpoints were thinned can get here —
        // TrimBatch equals CoveredBatch for every exact task.
        rt->FastForward(resume);
        af::ApproxCertificate cert;
        cert.task = t;
        cert.restored_batch = restored;
        cert.resumed_batch = resume;
        cert.forfeited = divergence_.OfTask(t);
        TaskSet self(topology_.num_tasks());
        self.Add(t);
        cert.certified_loss = af::CertifiedLossBound(topology_, self);
        cert.at = backend_->now();
        trace_.Record(backend_->now(), obs::TraceEventKind::kApproxRecovery,
                      t, -1, restored, resume);
        trace_.Record(backend_->now(),
                      obs::TraceEventKind::kDivergenceCertified, t, -1,
                      cert.forfeited.records,
                      static_cast<int64_t>(cert.certified_loss * 1e6));
        obs::Add(m_af_forfeited_records_, cert.forfeited.records);
        obs::Observe(m_af_certified_loss_, cert.certified_loss);
        approx_certificates_.push_back(std::move(cert));
      }
      if (config_.recovery_mode != af::RecoveryMode::kPpa) {
        // Catch-up replay re-observes every batch past the restore point,
        // so the drift epoch restarts at the restored state.
        divergence_.Clear(t, backend_->now());
      }
      rt->MarkAlive();
      break;
    }
    case RecoveryKind::kSourceReplay: {
      TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
      rt->Reset(std::max<int64_t>(0, frontier_ + 1 - config_.window_batches));
      rt->MarkAlive();
      break;
    }
  }
  // A replica that died with its standby node cannot serve anyone again
  // (revivals never resurrect replica runtimes); drop its registration so
  // the consumed slot returns to the budget for a future plan apply.
  auto stale = replicas_.find(t);
  if (stale != replicas_.end() && !stale->second->alive()) {
    replicas_.erase(stale);
    cluster_.RemoveReplica(t);
    active_set_.Remove(t);
    trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaDeactivated, t);
    obs::Add(m_replica_deactivations_);
  }
  trace_.Record(backend_->now(), obs::TraceEventKind::kRecoveryDone, t, -1,
                static_cast<int64_t>(kind));
  catching_up_.insert(t);
  Advance();
  NoteCaughtUpTasks();
}

Status StreamingJob::InjectNodeFailure(int node) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  if (node < 0 || node >= cluster_.num_nodes()) {
    return InvalidArgument("bad node id");
  }
  if (!cluster_.NodeAlive(node)) {
    return FailedPrecondition("node already failed");
  }
  cluster_.FailNode(node);
  return NotifyNodeFailed(node);
}

Status StreamingJob::NotifyNodeFailed(int node) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  if (node < 0 || node >= cluster_.num_nodes()) {
    return InvalidArgument("bad node id");
  }
  if (stopped_) {
    return OkStatus();
  }
  obs::Add(m_node_failures_);
  last_failure_time_ = backend_->now();
  last_failure_batch_ = frontier_;
  int64_t primaries_lost = 0;
  for (TaskId t : cluster_.PrimariesOn(node)) {
    if (primaries_[static_cast<size_t>(t)]->alive()) {
      ++primaries_lost;
    }
  }
  trace_.Record(backend_->now(), obs::TraceEventKind::kNodeFailure, -1, node,
                primaries_lost);
  for (TaskId t : cluster_.PrimariesOn(node)) {
    TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
    if (rt->alive()) {
      rt->MarkFailed();
      undetected_failures_.insert(t);
      trace_.Record(backend_->now(), obs::TraceEventKind::kTaskFailed, t, node);
      obs::Add(m_task_failures_);
    }
  }
  for (TaskId t : cluster_.ReplicasOn(node)) {
    TaskRuntime* rep = replica(t);
    if (rep != nullptr && rep->alive()) {
      rep->MarkFailed();
    }
  }
  return OkStatus();
}

Status StreamingJob::InjectDomainFailure(int domain) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  const std::vector<int> nodes = cluster_.NodesInDomain(domain);
  if (nodes.empty()) {
    return NotFound("no nodes in failure domain");
  }
  for (int node : nodes) {
    if (cluster_.NodeAlive(node)) {
      PPA_RETURN_IF_ERROR(InjectNodeFailure(node));
    }
  }
  return OkStatus();
}

Status StreamingJob::InjectCorrelatedFailure(bool include_sources) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  std::set<int> nodes;
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    if (!include_sources && topology_.IsSourceTask(t)) {
      continue;
    }
    const int node = cluster_.NodeOfPrimary(t);
    if (node >= 0 && cluster_.NodeAlive(node)) {
      nodes.insert(node);
    }
  }
  for (int node : nodes) {
    PPA_RETURN_IF_ERROR(InjectNodeFailure(node));
  }
  return OkStatus();
}

Status StreamingJob::ReviveNode(int node) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  if (node < 0 || node >= cluster_.num_nodes()) {
    return InvalidArgument("bad node id");
  }
  if (cluster_.NodeAlive(node)) {
    return FailedPrecondition("node is alive");
  }
  cluster_.ReviveNode(node);
  trace_.Record(backend_->now(), obs::TraceEventKind::kNodeRevived, -1, node);
  return OkStatus();
}

Status StreamingJob::NotifyNodeRevived(int node) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  if (node < 0 || node >= cluster_.num_nodes()) {
    return InvalidArgument("bad node id");
  }
  if (stopped_) {
    return OkStatus();
  }
  trace_.Record(backend_->now(), obs::TraceEventKind::kNodeRevived, -1, node);
  return OkStatus();
}

Status StreamingJob::SetRecoveryArbiter(RecoveryArbiter arbiter) {
  if (started_) {
    return FailedPrecondition("SetRecoveryArbiter must precede Start");
  }
  arbiter_ = std::move(arbiter);
  return OkStatus();
}

void StreamingJob::ScheduleManaged(Duration delay, std::function<void()> fn) {
  if (stopped_) {
    return;
  }
  auto id = std::make_shared<uint64_t>(0);
  *id = backend_->ScheduleAfterOn(
      strand_, delay, [this, id, fn = std::move(fn)] {
        pending_events_.erase(*id);
        fn();
      });
  pending_events_.insert(*id);
}

void StreamingJob::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  for (uint64_t id : pending_events_) {
    (void)backend_->Cancel(id);
  }
  pending_events_.clear();
}

TaskSet StreamingJob::UnrecoveredTasks() const {
  TaskSet failed(topology_.num_tasks());
  if (!started_) {
    return failed;
  }
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    if (!primaries_[static_cast<size_t>(t)]->alive()) {
      failed.Add(t);
    }
  }
  return failed;
}

Status StreamingJob::ReviveDomain(int domain) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  const std::vector<int> nodes = cluster_.NodesInDomain(domain);
  if (nodes.empty()) {
    return NotFound("no nodes in failure domain");
  }
  bool revived_any = false;
  for (int node : nodes) {
    if (!cluster_.NodeAlive(node)) {
      PPA_RETURN_IF_ERROR(ReviveNode(node));
      revived_any = true;
    }
  }
  if (!revived_any) {
    return FailedPrecondition("every node in the domain is alive");
  }
  return OkStatus();
}

bool StreamingJob::AllRecovered() const {
  return undetected_failures_.empty() && recovering_.empty();
}

StatusOr<ReconciliationReport> StreamingJob::ReconcileTentativeOutputs(
    int64_t warmup_batches) {
  if (!started_) {
    return FailedPrecondition("job not started");
  }
  if (!AllRecovered()) {
    return FailedPrecondition("reconciliation requires completed recovery");
  }
  if (degraded_batches_.empty()) {
    return FailedPrecondition("no tentative outputs to reconcile");
  }
  ReconciliationReport report;
  report.from_batch = *degraded_batches_.begin();
  report.to_batch = *degraded_batches_.rbegin();
  if (report.to_batch > frontier_) {
    return FailedPrecondition("degraded batches still open");
  }

  // Shadow re-execution with complete inputs: fresh runtimes, warmed up
  // before the degraded range so windowed state is exact. Window state
  // nests across operator levels, so the default warm-up is one window
  // length per operator. Deterministic sources regenerate the ground-truth
  // input.
  if (warmup_batches < 0) {
    warmup_batches = config_.window_batches * topology_.num_operators();
  }
  const int64_t start =
      std::max<int64_t>(0, report.from_batch - warmup_batches);
  std::vector<std::unique_ptr<TaskRuntime>> shadow;
  shadow.reserve(static_cast<size_t>(topology_.num_tasks()));
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    shadow.push_back(MakeRuntime(t));
    shadow.back()->FastForward(start);
  }
  for (int64_t b = start; b <= report.to_batch; ++b) {
    for (OperatorId op : topology_.topo_order()) {
      for (TaskId t : topology_.op(op).tasks) {
        TaskRuntime* rt = shadow[static_cast<size_t>(t)].get();
        std::vector<Tuple> inputs;
        BatchRunContext ctx;
        ctx.ingest_at = BatchTickTime(b);
        const OperatorId to_op = topology_.task(t).op;
        for (int si : topology_.task(t).in_substreams) {
          const Substream& sub = topology_.substreams()[si];
          const BatchOutput* bo =
              shadow[static_cast<size_t>(sub.from)]->FindBatch(b);
          if (bo == nullptr) {
            continue;  // Upstream warm-up started later than needed.
          }
          ctx.ingest_at = std::min(ctx.ingest_at, bo->ingest_at);
          ctx.hops = std::max(ctx.hops, bo->hops + 1);
          router_.RouteBatchTo(sub.from, to_op, *bo, t, &inputs);
        }
        const size_t in_count = inputs.size();
        const BatchOutput& out = rt->RunBatch(b, std::move(inputs), true, ctx);
        report.reprocessed_tuples +=
            rt->is_source() ? static_cast<int64_t>(out.tuples.size())
                            : static_cast<int64_t>(in_count);
        if (topology_.IsSinkTask(t) && degraded_batches_.count(b) > 0) {
          for (const Tuple& tuple : out.tuples) {
            SinkRecord record;
            record.tuple = tuple;
            record.tentative = false;
            record.emitted_at = backend_->now();
            record.correction = true;
            record.ingest_at = out.ingest_at;
            report.corrected.push_back(record);
          }
        }
      }
    }
  }

  // Diff the corrected outputs against what was emitted tentatively for
  // the same batches (by batch/key/value identity).
  auto key_of = [](const Tuple& t) {
    return std::to_string(t.batch) + "|" + t.key + "|" +
           std::to_string(t.value) + "|" + std::to_string(t.producer);
  };
  std::multiset<std::string> tentative_set;
  for (const SinkRecord& r : sink_records_) {
    if (!r.correction && r.tuple.batch >= report.from_batch &&
        r.tuple.batch <= report.to_batch) {
      tentative_set.insert(key_of(r.tuple));
    }
  }
  std::multiset<std::string> corrected_set;
  for (const SinkRecord& r : report.corrected) {
    corrected_set.insert(key_of(r.tuple));
  }
  for (const std::string& k : corrected_set) {
    if (tentative_set.count(k) == 0) {
      ++report.missed_outputs;
    }
  }
  for (const std::string& k : tentative_set) {
    if (corrected_set.count(k) == 0) {
      ++report.spurious_outputs;
    }
  }

  sink_records_.insert(sink_records_.end(), report.corrected.begin(),
                       report.corrected.end());
  obs::Add(m_sink_corrections_, static_cast<int64_t>(report.corrected.size()));
  trace_.Record(backend_->now(), obs::TraceEventKind::kReconcileDone, -1, -1,
                report.missed_outputs, report.spurious_outputs);
  degraded_batches_.clear();
  return report;
}

}  // namespace ppa
