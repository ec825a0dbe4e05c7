#include "runtime/streaming_job.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "runtime/fidelity_series.h"
#include "runtime/trace_metrics.h"

namespace ppa {

namespace {

/// Latest completion among the report's tasks recovered from an active
/// replica (`active`) or passively (`!active`).
Duration MaxLatencyWhere(const RecoveryReport& report, bool active) {
  Duration max = Duration::Zero();
  for (const TaskRecoverySpec& spec : report.specs) {
    if ((spec.kind == RecoveryKind::kActiveReplica) != active) {
      continue;
    }
    auto it = report.schedule.completion.find(spec.task);
    if (it != report.schedule.completion.end()) {
      max = std::max(max, it->second);
    }
  }
  return max;
}

}  // namespace

Duration RecoveryReport::ActiveLatency() const {
  return MaxLatencyWhere(*this, true);
}

Duration RecoveryReport::PassiveLatency() const {
  return MaxLatencyWhere(*this, false);
}

StreamingJob::StreamingJob(Topology topology, JobConfig config,
                           JobRuntimeDeps deps)
    : topology_(std::move(topology)),
      config_(config),
      backend_(deps.backend),
      private_pool_(deps.pool == nullptr),
      router_(&topology_),
      cluster_(private_pool_
                   ? std::make_shared<NodePool>(config.num_worker_nodes,
                                                config.num_standby_nodes)
                   : std::move(deps.pool)),
      checkpoints_(topology_.num_tasks()),
      active_set_(topology_.num_tasks()),
      replicas_(static_cast<size_t>(topology_.num_tasks())) {
  // A shared pool defines the real cluster shape; keep the config's view
  // of it consistent (Start() checks num_standby_nodes, for example).
  config_.num_worker_nodes = cluster_.num_workers();
  config_.num_standby_nodes = cluster_.num_standbys();
  PPA_CHECK_OK(config_.Validate());
  op_factories_.resize(static_cast<size_t>(topology_.num_operators()));
  source_factories_.resize(static_cast<size_t>(topology_.num_operators()));
  level_blocks_.resize(kLevelBlocks);
  processing_us_.assign(static_cast<size_t>(topology_.num_tasks()), 0.0);
  sink_recorded_until_.assign(static_cast<size_t>(topology_.num_tasks()),
                              -1);
  checkpoint_us_.assign(static_cast<size_t>(topology_.num_tasks()), 0.0);
  checkpoint_count_.assign(static_cast<size_t>(topology_.num_tasks()), 0);
  InitObservability();
}

void StreamingJob::InitObservability() {
  trace_.set_enabled(config_.observability);
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
  // The trace-folded entries are created here with the rest, zero-valued,
  // so the registry is allocated at construction rather than on the first
  // metrics() read, which books them.
  FoldTraceMetrics(trace_, config_.recovery_mode != af::RecoveryMode::kPpa,
                   &trace_folded_, &metrics_);
  m_sink_corrections_ = metrics_.counter("sink.correction_records");
  if (config_.recovery_mode != af::RecoveryMode::kPpa) {
    m_af_certified_loss_ = metrics_.histogram("af.certified_loss");
  }
  m_buffered_tuples_ = metrics_.gauge("job.buffered_tuples");
  m_output_buffer_batches_ = metrics_.gauge("engine.output_buffer_batches");
  m_buffered_bytes_estimate_ =
      metrics_.gauge("engine.buffered_bytes_estimate");
  m_router_max_fanout_ = metrics_.gauge("router.max_fanout");
  m_checkpoint_bytes_total_ = metrics_.gauge("checkpoint.store_bytes");
  m_checkpoint_full_ = metrics_.counter("checkpoint.full");
  m_checkpoint_delta_ = metrics_.counter("checkpoint.delta");
  m_checkpoint_chain_deltas_ = metrics_.histogram("checkpoint.chain_deltas");
  m_checkpoint_duration_us_ = metrics_.histogram("checkpoint.duration_us");
  m_checkpoint_state_tuples_ = metrics_.histogram("checkpoint.state_tuples");
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
  }
  for (TaskId t : active_set_.ToVector()) {
    replicas_[static_cast<size_t>(t)] = MakeRuntime(t);
  }

  // Placement: keep any pins made through cluster() before Start; fill the
  // rest round-robin.
  cluster_.PlacePrimariesRoundRobin(topology_);
  for (TaskId t : active_set_.ToVector()) {
    PPA_RETURN_IF_ERROR(cluster_.PlaceReplicaAuto(t));
    trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaActivated, t,
                  cluster_.NodeOfReplica(t));
  }

  started_ = true;
  // Tenants of a shared pool share the backend too: one attaching it
  // would take its counters away from every other tenant.
  if (config_.observability && private_pool_) {
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
  if (!active_set_.empty() || config_.ft_mode == FtMode::kSourceReplay) {
    StartReplicaSync();
  }
  ScheduleManaged(config_.detection_interval, [this] { OnDetection(); });
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

Status StreamingJob::RestoreChain(TaskId t, TaskRuntime* rt) {
  // The chain's base is a full snapshot; later elements are deltas.
  const std::vector<TaskCheckpoint>& chain = *checkpoints_.Chain(t);
  PPA_RETURN_IF_ERROR(rt->Restore(chain[0].blob));
  for (size_t i = 1; i < chain.size(); ++i) {
    PPA_RETURN_IF_ERROR(rt->ApplyDelta(chain[i].blob));
  }
  return OkStatus();
}

Status StreamingJob::ActivateReplica(TaskId t) {
  std::unique_ptr<TaskRuntime> rep = MakeRuntime(t);
  if (checkpoints_.Chain(t) != nullptr) {
    // "Send the corresponding checkpoint to the destination node and
    // initialize the replica's state with it" (Sec. V-C); the replica then
    // catches up from the upstream output buffers, which the checkpoint
    // trimming protocol guarantees still cover everything past the chain.
    PPA_RETURN_IF_ERROR(RestoreChain(t, rep.get()));
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
  replicas_[static_cast<size_t>(t)] = std::move(rep);
  trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaActivated, t,
                cluster_.NodeOfReplica(t));
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
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    const bool busy = recovering_.count(t) > 0 ||
                      !primaries_[static_cast<size_t>(t)]->alive();
    if (replica(t) != nullptr && !tasks.Contains(t) && !busy) {
      cluster_.RemoveReplica(t);
      trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaDeactivated, t);
      replicas_[static_cast<size_t>(t)].reset();
    }
  }
  // Activate replicas entering the plan.
  for (TaskId t : tasks.ToVector()) {
    if (replica(t) != nullptr || recovering_.count(t) > 0 ||
        !primaries_[static_cast<size_t>(t)]->alive()) {
      continue;
    }
    PPA_RETURN_IF_ERROR(ActivateReplica(t));
  }
  if (!tasks.empty()) {
    StartReplicaSync();
  }
  Advance();  // New replicas catch up from the buffered outputs.
  return OkStatus();
}

void StreamingJob::OnBatchTick() {
  if (frontier_ < 0) {
    // Anchor of the latency lineage: batch b's tuples enter the system
    // at first_tick_at_ + b * batch_interval.
    first_tick_at_ = backend_->now();
  }
  ++frontier_;
  Advance();
  int64_t buffered = 0;
  int64_t batches = 0;
  for (const auto& rt : primaries_) {
    buffered += rt->BufferedTuples();
    batches += static_cast<int64_t>(rt->output_buffer().size());
  }
  peak_buffered_tuples_ = std::max(peak_buffered_tuples_, buffered);
  obs::Add(m_batch_ticks_);
  obs::Set(m_buffered_tuples_, static_cast<double>(buffered));
  if (m_output_buffer_batches_ != nullptr) {
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

const obs::MetricsRegistry& StreamingJob::metrics() const {
  if (config_.observability) {
    FoldTraceMetrics(trace_, config_.recovery_mode != af::RecoveryMode::kPpa,
                     &trace_folded_, &metrics_);
  }
  return metrics_;
}

std::vector<obs::FidelitySample> StreamingJob::fidelity_timeseries() const {
  return DeriveFidelitySeries(topology_, trace_);
}

int64_t StreamingJob::CurrentBufferedTuples() const {
  int64_t total = 0;
  for (const auto& rt : primaries_) {
    total += rt->BufferedTuples();
  }
  return total;
}

void StreamingJob::Advance() {
  // One pass suffices: every runtime, replica or not, gathers from
  // upstream primaries, which come earlier in topological order, so
  // running a task never unblocks one visited before it. For the same
  // reason the tasks of one level only read buffers nothing writes while
  // the level runs, and can run on several workers at once. What they
  // book outside their own runtimes is applied in block order after the
  // level, so every backend books exactly what a serial pass would.
  for (OperatorId op : topology_.topo_order()) {
    FreezeUpstreamBuffers(op, true);
    const size_t blocks = LevelBlockCount(op);
    ParallelFor(blocks, [this, op](size_t k) { AdvanceBlock(op, k); });
    FreezeUpstreamBuffers(op, false);
    for (size_t k = 0; k < blocks; ++k) {
      ApplyLevelBlock(&level_blocks_[k]);
    }
  }
}

void StreamingJob::FreezeUpstreamBuffers(OperatorId op, bool frozen) {
#ifndef NDEBUG
  for (OperatorId up : topology_.op(op).upstream) {
    for (TaskId u : topology_.op(up).tasks) {
      primaries_[static_cast<size_t>(u)]->set_buffer_frozen(frozen);
    }
  }
#else
  (void)op;
  (void)frozen;
#endif
}

size_t StreamingJob::LevelBlockCount(OperatorId op) const {
  const OperatorInfo& info = topology_.op(op);
  return info.downstream.empty() ? 1
                                 : std::min(info.tasks.size(), kLevelBlocks);
}

void StreamingJob::AdvanceBlock(OperatorId op, size_t k) {
  const std::vector<TaskId>& tasks = topology_.op(op).tasks;
  const size_t blocks = LevelBlockCount(op);
  LevelBlock* block = &level_blocks_[k];
  for (size_t i = k * tasks.size() / blocks;
       i < (k + 1) * tasks.size() / blocks; ++i) {
    const TaskId t = tasks[i];
    TryAdvance(primaries_[static_cast<size_t>(t)].get(), /*is_replica=*/false,
               block);
    if (replica(t) != nullptr) {
      TryAdvance(replica(t), /*is_replica=*/true, block);
    }
  }
}

void StreamingJob::ApplyLevelBlock(LevelBlock* block) {
  obs::Add(m_tuples_primary_, block->tuples_primary);
  obs::Add(m_batches_primary_, block->batches_primary);
  obs::Add(m_tuples_replica_, block->tuples_replica);
  obs::Add(m_batches_replica_, block->batches_replica);
  block->tuples_primary = 0;
  block->batches_primary = 0;
  block->tuples_replica = 0;
  block->batches_replica = 0;
  for (double work : block->tuples_per_batch) {
    obs::Observe(m_tuples_per_batch_, work);
  }
  block->tuples_per_batch.clear();
  degraded_batches_.insert(block->degraded.begin(), block->degraded.end());
  block->degraded.clear();
}

const BatchOutput* StreamingJob::RunStep(
    const std::vector<std::unique_ptr<TaskRuntime>>& runtimes,
    TaskRuntime* rt, int64_t b, std::vector<const BatchOutput*>* upstream,
    int64_t* work, bool* punctured) {
  const TaskId t = rt->id();
  const std::vector<int>& in_substreams = topology_.task(t).in_substreams;
  const OperatorId to_op = topology_.task(t).op;
  // Sources (and punctuation-fed batches, which gather no upstream
  // lineage) stamp the batch's nominal tick time.
  BatchRunContext ctx;
  ctx.ingest_at = BatchTickTime(b);
  std::vector<const BatchOutput*>& batches = *upstream;
  batches.assign(in_substreams.size(), nullptr);
  size_t expected = 0;
  for (size_t i = 0; i < in_substreams.size(); ++i) {
    const Substream& s = topology_.substreams()[in_substreams[i]];
    const TaskRuntime* up = runtimes[static_cast<size_t>(s.from)].get();
    batches[i] = up->FindBatch(b);
    if (batches[i] != nullptr) {
      ctx.ingest_at = std::min(ctx.ingest_at, batches[i]->ingest_at);
      ctx.hops = std::max(ctx.hops, batches[i]->hops + 1);
      // The consumer's expected share of the batch: all of it on
      // one-to-one and merge edges, an even hash split on split and full
      // edges.
      expected += batches[i]->tuples.size() /
                  router_.Consumers(s.from, to_op).size();
    } else if (up->alive() && up->next_batch() > b) {
      // Produced in the past but no longer buffered (trimmed, or skipped
      // by recovery): resolved, degraded if the upstream ever failed.
      *punctured |= up->ever_failed();
    } else if (!up->alive() && IsPunctured(s.from)) {
      *punctured = true;  // Master-injected batch-over punctuation (Sec. V-B).
    } else {
      return nullptr;  // Blocked until the upstream produces or is punctured.
    }
  }
  // Appending in `in_substreams` order keeps each upstream batch in
  // sequence order, so on producer-ordered topologies the result is
  // already in the (producer, seq) order RunBatch needs.
  std::vector<Tuple> inputs;
  inputs.reserve(expected);
  for (size_t i = 0; i < in_substreams.size(); ++i) {
    if (batches[i] != nullptr) {
      const Substream& s = topology_.substreams()[in_substreams[i]];
      router_.RouteBatchTo(s.from, to_op, *batches[i], t, &inputs);
    }
  }
  const size_t in_count = inputs.size();
  const BatchOutput& out = rt->RunBatch(b, std::move(inputs), ctx);
  *work = static_cast<int64_t>(rt->is_source() ? out.tuples.size()
                                               : in_count);
  return &out;
}

void StreamingJob::TryAdvance(TaskRuntime* rt, bool is_replica,
                              LevelBlock* block) {
  if (!rt->alive()) {
    return;
  }
  const TaskId t = rt->id();
  while (rt->next_batch() <= frontier_) {
    const int64_t b = rt->next_batch();
    int64_t work = 0;
    bool punctured = false;
    const int64_t processed_before = rt->processed_tuples();
    const BatchOutput* out =
        RunStep(primaries_, rt, b, &block->upstream, &work, &punctured);
    if (out == nullptr) {
      return;
    }
    // Post-dedup inputs, as RunBatch counts them.
    const int64_t processed = rt->processed_tuples() - processed_before;
    if (is_replica) {
      block->tuples_replica += processed;
      ++block->batches_replica;
      continue;
    }
    block->tuples_primary += processed;
    ++block->batches_primary;
    processing_us_[static_cast<size_t>(t)] +=
        static_cast<double>(work) * config_.process_cost_per_tuple_us;
    if (config_.recovery_mode != af::RecoveryMode::kPpa) {
      // Conservative un-persisted drift: every record processed since the
      // task's last persisted blob could be forfeited by a thinned
      // recovery (DESIGN.md §17). Cleared when a blob lands.
      divergence_.Observe(t, work, work * static_cast<int64_t>(sizeof(Tuple)),
                          topology_.task(t).weight);
    }
    if (!rt->is_source() && m_tuples_per_batch_ != nullptr) {
      block->tuples_per_batch.push_back(static_cast<double>(work));
    }
    if (punctured) {
      block->degraded.push_back(b);
    }
    if (topology_.IsSinkTask(t)) {
      // A sink's level is one block on the driving thread
      // (LevelBlockCount), so its delivery can book the block first and
      // read its degraded batch.
      ApplyLevelBlock(block);
      DeliverSinkBatch(t, *out);
      // Sinks have no subscribers; their buffer is not needed for replay.
      rt->TrimOutputBuffer(b);
    }
  }
}

void StreamingJob::DeliverSinkBatch(TaskId t, const BatchOutput& out) {
  int64_t& recorded_until = sink_recorded_until_[static_cast<size_t>(t)];
  if (out.batch <= recorded_until) {
    return;  // Already delivered before a failure; replayed duplicate.
  }
  recorded_until = out.batch;
  const int64_t batch = out.batch;
  const int64_t tuples = static_cast<int64_t>(out.tuples.size());
  const bool tentative = degraded_batches_.count(batch) > 0;
  for (const Tuple& tuple : out.tuples) {
    sink_records_.push_back(
        SinkRecord{tuple, tentative, backend_->now(), false, out.ingest_at});
  }
  const double latency_s = (backend_->now() - out.ingest_at).seconds();
  obs::Observe(tentative ? m_sink_latency_tentative_ : m_sink_latency_stable_,
               latency_s);
  obs::Observe(tentative
                   ? m_sink_task_latency_tentative_[static_cast<size_t>(t)]
                   : m_sink_task_latency_stable_[static_cast<size_t>(t)],
               latency_s);
  obs::Observe(m_sink_lineage_hops_, static_cast<double>(out.hops));
  trace_.Record(backend_->now(),
                tentative ? obs::TraceEventKind::kSinkBatchTentative
                          : obs::TraceEventKind::kSinkBatchStable,
                t, -1, batch, tuples);
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
      return replicas_[static_cast<size_t>(t)] == nullptr;
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
    TrimUpstreamBuffers(t);
  } else if (rt->alive()) {
    trace_.Record(backend_->now(), obs::TraceEventKind::kCheckpointBegin, t, -1,
                  rt->next_batch());
    TaskCheckpoint cp;
    cp.task = t;
    cp.next_batch = rt->next_batch();
    const bool take_delta =
        config_.delta_checkpoints && rt->SupportsDeltaSnapshots() &&
        checkpoints_.AcceptsDelta(t, config_.max_delta_chain);
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
      obs::Add(m_checkpoint_delta_);
    } else {
      if (checkpoints_.Chain(t) != nullptr) {
        // How long the replaced chain got before this rebase; skipped
        // checkpoints are no chain elements and never inflate it.
        obs::Observe(m_checkpoint_chain_deltas_,
                     static_cast<double>(checkpoints_.ChainDeltas(t)));
      }
      checkpoints_.Put(std::move(cp));
      obs::Add(m_checkpoint_full_);
    }
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
      const TaskRuntime* rep = replica(os.to);
      if (rep != nullptr && rep->alive()) {
        min_covered = std::min(min_covered, rep->next_batch());
      }
    }
    if (min_covered > 0 && min_covered != INT64_MAX) {
      primaries_[static_cast<size_t>(u)]->TrimOutputBuffer(min_covered - 1);
    }
  }
}

void StreamingJob::StartReplicaSync() {
  if (replica_sync_started_) {
    return;
  }
  replica_sync_started_ = true;
  ScheduleManaged(config_.replica_sync_interval,
                  [this] { OnReplicaSync(); });
}

void StreamingJob::OnReplicaSync() {
  auto consumption_level = [&](TaskId t) {
    int64_t level = INT64_MAX;
    for (int osi : topology_.task(t).out_substreams) {
      const Substream& os = topology_.substreams()[osi];
      level = std::min(
          level, primaries_[static_cast<size_t>(os.to)]->next_batch());
      const TaskRuntime* rep = replica(os.to);
      if (rep != nullptr && rep->alive()) {
        level = std::min(level, rep->next_batch());
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
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    TaskRuntime* rep = replica(t);
    if (rep != nullptr && rep->alive()) {
      if (topology_.IsSinkTask(t)) {
        rep->TrimOutputBuffer(frontier_ - sink_retention);
      } else {
        rep->TrimOutputBuffer(consumption_level(t) - 1);
      }
    }
  }
  // Without checkpoint-driven trimming, primary buffers are trimmed by
  // downstream consumption instead. Source replay restarts a failed task
  // at frontier + 1 - window_batches and reads live upstream buffers from
  // there, so it never needs an older batch either.
  if (config_.ft_mode == FtMode::kActiveReplication ||
      config_.ft_mode == FtMode::kSourceReplay) {
    const int64_t replay_from = config_.ft_mode == FtMode::kSourceReplay
                                    ? frontier_ + 1 - config_.window_batches
                                    : INT64_MAX;
    for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
      TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
      if (rt->alive() && !topology_.IsSinkTask(t)) {
        rt->TrimOutputBuffer(std::min(consumption_level(t), replay_from) - 1);
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
  if (!undetected_failures_.empty()) {
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
      const Duration offset = report.schedule.completion.at(spec.task);
      trace_.Record(backend_->now(), obs::TraceEventKind::kRecoveryStart,
                    spec.task, -1, static_cast<int64_t>(spec.kind),
                    offset.micros());
      ScheduleManaged(offset, [this, t = spec.task, k = spec.kind] {
        CompleteRecovery(t, k);
      });
    }
    reports_.push_back(std::move(report));
    undetected_failures_.clear();
    Advance();
  }
  ScheduleManaged(config_.detection_interval, [this] { OnDetection(); });
}

void StreamingJob::CompleteRecovery(TaskId t, RecoveryKind kind) {
  recovering_.erase(t);
  switch (kind) {
    case RecoveryKind::kActiveReplica: {
      PPA_CHECK(replica(t) != nullptr);
      // The replica is the primary now, installed before the takeover
      // delivery below; the fidelity series counts `t` alive from that
      // delivery on, ahead of its recovery-done event. Its tuples count
      // toward the primary engine counters from here on.
      primaries_[static_cast<size_t>(t)] =
          std::move(replicas_[static_cast<size_t>(t)]);
      TaskRuntime* rep = primaries_[static_cast<size_t>(t)].get();
      rep->MarkAlive();
      if (topology_.IsSinkTask(t)) {
        // The dead primary's records stop where delivery stopped; deliver
        // the replica's buffered outputs from there on (the takeover
        // "resend buffered tuples" of Sec. V-B, here to the end user).
        for (const BatchOutput& bo : rep->output_buffer()) {
          DeliverSinkBatch(t, bo);
        }
        rep->TrimOutputBuffer(frontier_);
      }
      // The placement follows the takeover: the standby node now hosts
      // the primary and its replica slot is free again.
      PPA_CHECK_OK(cluster_.PromoteReplicaToPrimary(t));
      // The new primary's snapshot marker dates from replica activation,
      // so its next delta could overlap slices the dead primary already
      // persisted; rebase with a full snapshot.
      checkpoints_.RequireFull(t);
      break;
    }
    case RecoveryKind::kCheckpoint: {
      TaskRuntime* rt = primaries_[static_cast<size_t>(t)].get();
      if (checkpoints_.Chain(t) != nullptr) {
        PPA_CHECK_OK(RestoreChain(t, rt));
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
  if (replica(t) != nullptr && !replica(t)->alive()) {
    replicas_[static_cast<size_t>(t)].reset();
    cluster_.RemoveReplica(t);
    trace_.Record(backend_->now(), obs::TraceEventKind::kReplicaDeactivated, t);
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
  last_failure_time_ = backend_->now();
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
  bool failed_any = false;
  for (int node : nodes) {
    if (cluster_.NodeAlive(node)) {
      PPA_RETURN_IF_ERROR(InjectNodeFailure(node));
      failed_any = true;
    }
  }
  if (!failed_any) {
    return FailedPrecondition("every node in the domain is already failed");
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
  return NotifyNodeRevived(node);
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
  *id = backend_->ScheduleAfter(delay, [this, id, fn = std::move(fn)] {
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

StatusOr<ReconciliationReport> StreamingJob::ReconcileTentativeOutputs() {
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
  // nests across operator levels, so the warm-up is one window length per
  // operator. Deterministic sources regenerate the ground-truth input.
  const int64_t warmup = config_.window_batches * topology_.num_operators();
  const int64_t start = std::max<int64_t>(0, report.from_batch - warmup);
  std::vector<std::unique_ptr<TaskRuntime>> shadow;
  shadow.reserve(static_cast<size_t>(topology_.num_tasks()));
  for (TaskId t = 0; t < topology_.num_tasks(); ++t) {
    shadow.push_back(MakeRuntime(t));
    shadow.back()->FastForward(start);
  }
  std::vector<const BatchOutput*> upstream;
  for (int64_t b = start; b <= report.to_batch; ++b) {
    for (OperatorId op : topology_.topo_order()) {
      for (TaskId t : topology_.op(op).tasks) {
        int64_t work = 0;
        bool punctured = false;
        const BatchOutput* out =
            RunStep(shadow, shadow[static_cast<size_t>(t)].get(), b,
                    &upstream, &work, &punctured);
        // Shadow runtimes never fail, so every upstream has run batch b
        // earlier in this topological pass.
        PPA_CHECK(out != nullptr) << "shadow " << topology_.TaskLabel(t)
                                  << " blocked at batch " << b;
        report.reprocessed_tuples += work;
        if (topology_.IsSinkTask(t) && degraded_batches_.count(b) > 0) {
          for (const Tuple& tuple : out->tuples) {
            SinkRecord record;
            record.tuple = tuple;
            record.tentative = false;
            record.emitted_at = backend_->now();
            record.correction = true;
            record.ingest_at = out->ingest_at;
            report.corrected.push_back(record);
          }
        }
      }
    }
  }

  // Diff the corrected outputs against what was emitted tentatively for
  // the same batches by (batch, key, value, producer) identity. Each
  // record, duplicates included, counts once if its identity is absent
  // from the other side.
  auto before = [](const Tuple* a, const Tuple* b) {
    return std::tie(a->batch, a->key, a->value, a->producer) <
           std::tie(b->batch, b->key, b->value, b->producer);
  };
  std::vector<const Tuple*> tentative;
  for (const SinkRecord& r : sink_records_) {
    if (!r.correction && r.tuple.batch >= report.from_batch &&
        r.tuple.batch <= report.to_batch) {
      tentative.push_back(&r.tuple);
    }
  }
  std::vector<const Tuple*> corrected;
  corrected.reserve(report.corrected.size());
  for (const SinkRecord& r : report.corrected) {
    corrected.push_back(&r.tuple);
  }
  std::sort(tentative.begin(), tentative.end(), before);
  std::sort(corrected.begin(), corrected.end(), before);
  auto absent = [&before](const std::vector<const Tuple*>& probes,
                          const std::vector<const Tuple*>& sorted) {
    return static_cast<int64_t>(
        std::count_if(probes.begin(), probes.end(), [&](const Tuple* t) {
          return !std::binary_search(sorted.begin(), sorted.end(), t, before);
        }));
  };
  report.missed_outputs = absent(corrected, tentative);
  report.spurious_outputs = absent(tentative, corrected);

  sink_records_.insert(sink_records_.end(), report.corrected.begin(),
                       report.corrected.end());
  obs::Add(m_sink_corrections_, static_cast<int64_t>(report.corrected.size()));
  trace_.Record(backend_->now(), obs::TraceEventKind::kReconcileDone, -1, -1,
                report.missed_outputs, report.spurious_outputs);
  degraded_batches_.clear();
  return report;
}

}  // namespace ppa
