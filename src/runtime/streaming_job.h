#ifndef PPA_RUNTIME_STREAMING_JOB_H_
#define PPA_RUNTIME_STREAMING_JOB_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "af/divergence.h"
#include "af/error_budget.h"
#include "common/status.h"
#include "common/status_or.h"
#include "engine/operator.h"
#include "engine/router.h"
#include "engine/task_runtime.h"
#include "ft/checkpoint.h"
#include "ft/recovery_model.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "backend/execution_backend.h"
#include "runtime/cluster.h"
#include "runtime/config.h"
#include "runtime/job_deps.h"
#include "topology/task_set.h"
#include "topology/topology.h"

namespace ppa {

/// One tuple emitted by a sink task, with batch provenance, whether it was
/// produced while part of the topology was failed (a tentative output,
/// Sec. V-B), and the virtual time at which it became available to the
/// user. Recovery replay can deliver old batches late: `emitted_at` far
/// after the batch's own time means the output missed its real-time
/// deadline (timeliness matters for the paper's tentative-output
/// evaluation).
struct SinkRecord {
  Tuple tuple;
  bool tentative = false;
  TimePoint emitted_at;
  /// True for records produced by ReconcileTentativeOutputs() — late
  /// corrections of a tentative window, not real-time output.
  bool correction = false;
  /// Source-ingest sim-time of the record's batch (latency lineage,
  /// threaded through the engine per hop): the batch's nominal source
  /// tick, which replayed batches keep, so Latency() reports the true
  /// end-to-end age of late deliveries.
  TimePoint ingest_at;

  /// End-to-end latency: source ingest to user-visible emission.
  Duration Latency() const { return emitted_at - ingest_at; }
};

/// Result of reconciling a tentative window after recovery (the
/// Borealis-style output correction the paper leaves as future work,
/// Sec. V-B): the corrected outputs and how much the tentative phase
/// missed or fabricated.
struct ReconciliationReport {
  /// Degraded batch range that was re-executed.
  int64_t from_batch = 0;
  int64_t to_batch = -1;
  /// Tuples reprocessed by the shadow re-execution (correction cost).
  int64_t reprocessed_tuples = 0;
  /// Sink outputs of the corrected run absent from the tentative output.
  int64_t missed_outputs = 0;
  /// Tentative sink outputs that the corrected run does not contain.
  int64_t spurious_outputs = 0;
  /// The corrected sink records (also appended to sink_records() with
  /// correction = true).
  std::vector<SinkRecord> corrected;
};

/// Everything the master decided about one detected failure.
struct RecoveryReport {
  TimePoint failure_time;
  TimePoint detection_time;
  /// Failed tasks and how each is being recovered.
  std::vector<TaskRecoverySpec> specs;
  /// Completion offsets relative to detection_time (inclusive of any
  /// cross-job arbitration hold).
  RecoverySchedule schedule;
  /// Extra delay the cross-job recovery arbiter imposed on every
  /// completion of this detection (zero without an arbiter).
  Duration arbitration_hold = Duration::Zero();

  /// The paper's recovery latency: detection to last task recovered.
  Duration TotalLatency() const { return schedule.MaxLatency(); }
  /// Latency restricted to tasks recovered from active replicas
  /// (PPA-x-active in Fig. 10).
  Duration ActiveLatency() const;
  /// Latency restricted to passively recovered tasks.
  Duration PassiveLatency() const;
};

/// A complete streaming job (Sec. V): the query topology bound to
/// operator implementations, executed batch-synchronously on a virtual
/// cluster driven by an execution backend (the deterministic simulator,
/// or real threads with the sim as parity oracle — DESIGN.md §16), with
/// checkpointing, active replication, failure injection, recovery, and
/// tentative-output generation.
///
/// Lifecycle: construct -> Bind*() -> SetActiveReplicaSet() (optional) ->
/// Start() -> backend->RunUntil(...) interleaved with Inject*Failure() ->
/// inspect sink_records() / recovery_reports() / cost counters.
///
/// Every backend runs the job's events in the sim's one order, so its
/// output is identical on every backend; all public methods are called
/// either from the backend's callbacks (ScenarioRunner events) or from
/// the driving thread between drives.
class StreamingJob {
 public:
  /// Trace events a flight record keeps (JobFlightRecordToJson): enough
  /// to cover several detection intervals of a busy job.
  static constexpr size_t kFlightRecorderCapacity = 256;

  /// `deps.backend` must be non-null and outlive the job; a null
  /// `deps.pool` gives the job a private cluster sized from `config` (see
  /// JobRuntimeDeps).
  StreamingJob(Topology topology, JobConfig config, JobRuntimeDeps deps);
  ~StreamingJob();

  StreamingJob(const StreamingJob&) = delete;
  StreamingJob& operator=(const StreamingJob&) = delete;

  const Topology& topology() const { return topology_; }
  const JobConfig& config() const { return config_; }
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }
  /// The backend running this job's events.
  backend::ExecutionBackend* backend() const { return backend_; }

  /// Binds a factory for all tasks of a non-source operator.
  Status BindOperator(OperatorId op, OperatorFactory factory);
  /// Binds a factory for all tasks of a source operator.
  Status BindSource(OperatorId op, SourceFactory factory);

  /// Selects the tasks that get an active replica. Required for kPpa
  /// (kActiveReplication implies all tasks). Must be called before
  /// Start().
  Status SetActiveReplicaSet(const TaskSet& tasks);

  /// Validates bindings, instantiates runtimes, places tasks, and
  /// schedules the recurring engine events. The job then advances as the
  /// event loop runs.
  Status Start();

  /// Changes the active replica set while the job is running (dynamic plan
  /// adaptation, Sec. V-C): replicas of tasks leaving the plan are
  /// deactivated and their standby resources released; tasks entering the
  /// plan get a fresh replica initialized from the primary's latest
  /// checkpoint (or a direct state transfer if none exists) that catches
  /// up from the upstream output buffers. Tasks that are currently failed
  /// or recovering keep their previous replication status.
  Status ApplyActiveReplicaSet(const TaskSet& tasks);

  /// Kills a node: every primary/replica hosted on it fails. Takes effect
  /// immediately; detection happens at the master's next heartbeat check.
  Status InjectNodeFailure(int node);

  /// Kills every alive node of a failure domain (a rack/switch outage —
  /// the correlated-failure root cause of Sec. I). NotFound for an empty
  /// domain, FailedPrecondition when every node of it is already dead.
  Status InjectDomainFailure(int domain);

  /// Kills every worker node that hosts at least one primary of a
  /// non-source operator (the paper's correlated-failure experiment kills
  /// all processing nodes but keeps the sources feeding data).
  Status InjectCorrelatedFailure(bool include_sources = false);

  /// Brings a previously failed node back. The node becomes eligible for
  /// replica placement and future failures again; tasks whose primaries
  /// live on it keep whatever recovery state the normal detection path
  /// gave them (revival never resurrects a failed runtime by itself).
  /// ReviveNode == pool ReviveNode + NotifyNodeRevived, so a stopped job
  /// revives the node but records nothing.
  Status ReviveNode(int node);

  /// Revives every failed node of a failure domain (rack power restored).
  Status ReviveDomain(int domain);

  /// Reacts to a node failure that already happened in the *shared* node
  /// pool (the multi-tenant service fails the node once, then notifies
  /// every tenant job): marks this job's primaries/replicas hosted on
  /// `node` failed and records the failure, without touching pool
  /// liveness. InjectNodeFailure == pool FailNode + NotifyNodeFailed.
  Status NotifyNodeFailed(int node);

  /// Shared-pool counterpart of ReviveNode: records the revival in this
  /// job's trace without touching pool liveness.
  Status NotifyNodeRevived(int node);

  /// Cross-job recovery arbitration hook (src/service): consulted once
  /// per detection that found failures, after the recovery schedule is
  /// computed; the returned hold is added to every completion offset of
  /// the detection, delaying replica activation and checkpoint replay
  /// behind higher-ranked tenants. Must be set before Start().
  using RecoveryArbiter =
      std::function<Duration(const std::vector<TaskRecoverySpec>& specs)>;
  Status SetRecoveryArbiter(RecoveryArbiter arbiter);

  /// Cancels every pending event of this job on the backend and stops
  /// all recurring engine activity (tenant eviction). Irreversible; the
  /// job's records, metrics, and traces stay readable.
  void Stop();
  /// True once Stop() ran.
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Tasks whose primary copy is currently dead (detected or not,
  /// recovery not yet completed) — the fidelity-at-risk input of the
  /// cross-job arbiter.
  [[nodiscard]] TaskSet UnrecoveredTasks() const;

  /// True when no task is failed or awaiting recovery completion.
  [[nodiscard]] bool AllRecovered() const;

  /// Corrects the tentative outputs of the last failure (Sec. V-B's
  /// deferred reconciliation): deterministically re-executes the topology
  /// over the degraded batch range (with a window-length warm-up) on
  /// shadow runtimes fed complete inputs, appends the corrected sink
  /// records (flagged `correction`), and reports what the tentative phase
  /// missed. Requires every task to be recovered and at least one
  /// degraded batch. The warm-up is one window length per operator level
  /// (windows nest across stages).
  StatusOr<ReconciliationReport> ReconcileTentativeOutputs();

  /// Last batch index whose source emission tick has fired.
  int64_t frontier() const { return frontier_; }

  /// The primary runtime of a task (for tests/inspection).
  TaskRuntime* primary(TaskId t) { return primaries_[static_cast<size_t>(t)].get(); }
  const TaskRuntime* primary(TaskId t) const {
    return primaries_[static_cast<size_t>(t)].get();
  }
  /// The replica runtime, or nullptr.
  TaskRuntime* replica(TaskId t) {
    return replicas_[static_cast<size_t>(t)].get();
  }

  const std::vector<SinkRecord>& sink_records() const { return sink_records_; }
  const std::vector<RecoveryReport>& recovery_reports() const {
    return reports_;
  }
  const CheckpointStore& checkpoint_store() const { return checkpoints_; }

  /// Divergence certificates of every approximate recovery under
  /// config().recovery_mode != kPpa (DESIGN.md §17); empty for exact
  /// runs. Checked against the golden twin by the chaos error-budget
  /// invariant.
  const std::vector<af::ApproxCertificate>& approx_certificates() const {
    return approx_certificates_;
  }
  /// Total serialized bytes of every persisted checkpoint blob (full and
  /// delta) this job wrote — the cost axis checkpoint thinning shrinks.
  int64_t CheckpointBytesWritten() const { return checkpoint_bytes_written_; }
  /// Due checkpoints skipped under the error budget.
  int64_t CheckpointsSkipped() const { return checkpoints_skipped_; }

  /// The job's metric registry (counters/gauges/histograms named
  /// "subsystem.metric"; empty when config().observability is false).
  /// Entries that are folds of trace() are booked here, from the events
  /// recorded since the last call (FoldTraceMetrics), so call it between
  /// drives, never concurrently with one, and re-read after each drive.
  const obs::MetricsRegistry& metrics() const;
  /// The job's sim-time trace (failures, checkpoints, recovery phases,
  /// tentative/stable sink emissions): the one record of the run. Recovery
  /// timelines, tentative windows, the fidelity series, the flight record
  /// and the Chrome trace are views of it (DESIGN.md §8). Empty when
  /// config().observability is false.
  const obs::TraceLog& trace() const { return trace_; }
  /// The OF(t)/IC(t) series folded from trace() by DeriveFidelitySeries:
  /// one sample per sink delivery during tentative windows, plus the
  /// stable delivery closing each window. Empty when observability is off
  /// or no window opened.
  std::vector<obs::FidelitySample> fidelity_timeseries() const;

  /// Cumulative normal-processing CPU microseconds of a task.
  double ProcessingCostUs(TaskId t) const {
    return processing_us_[static_cast<size_t>(t)];
  }
  /// Cumulative checkpointing CPU microseconds of a task.
  double CheckpointCostUs(TaskId t) const {
    return checkpoint_us_[static_cast<size_t>(t)];
  }
  /// Number of checkpoints taken for a task.
  int64_t CheckpointCount(TaskId t) const {
    return checkpoint_count_[static_cast<size_t>(t)];
  }

  /// Tuples currently held in all primaries' output buffers (the
  /// upstream-replay memory the checkpoint trimming protocol bounds).
  int64_t CurrentBufferedTuples() const;
  /// Highest CurrentBufferedTuples() observed at any batch tick.
  int64_t PeakBufferedTuples() const { return peak_buffered_tuples_; }

 private:
  /// Most blocks one operator level is split into (DESIGN.md §16).
  static constexpr size_t kLevelBlocks = 16;

  /// What the tasks of one block of a level book outside their own
  /// runtimes and per-task slots, held until the level is done and then
  /// applied in block order (ApplyLevelBlock), plus the block's scratch.
  struct LevelBlock {
    /// engine.{tuples,batches}_processed and the replica_ pair.
    int64_t tuples_primary = 0;
    int64_t batches_primary = 0;
    int64_t tuples_replica = 0;
    int64_t batches_replica = 0;
    /// engine.tuples_per_batch observations, in task order.
    std::vector<double> tuples_per_batch;
    /// Batches to add to degraded_batches_.
    std::vector<int64_t> degraded;
    /// RunStep's upstream batch per input substream.
    std::vector<const BatchOutput*> upstream;
  };

  /// Dataflow scheduler: one topological pass, one operator level at a
  /// time, each level's tasks forked across the backend's helper threads
  /// (DESIGN.md §3.5, §16).
  void Advance();
  /// Blocks operator `op`'s level is split into: one for a sink
  /// operator, whose steps deliver to the user and so stay on the
  /// driving thread.
  size_t LevelBlockCount(OperatorId op) const;
  /// Runs block `k` of `op`'s level: each task's primary, then its
  /// replica, booking into level_blocks_[k].
  void AdvanceBlock(OperatorId op, size_t k);
  /// Debug builds: (un)freezes the output buffers of `op`'s upstream
  /// primaries, which its level only reads. No-op with NDEBUG.
  void FreezeUpstreamBuffers(OperatorId op, bool frozen);
  /// Books `block` into the job and clears it.
  void ApplyLevelBlock(LevelBlock* block);
  void TryAdvance(TaskRuntime* rt, bool is_replica, LevelBlock* block);
  /// Runs batch `b` of `rt` on its inputs gathered from `runtimes` (by
  /// task id: the primaries, or reconciliation's shadow runtimes), or
  /// returns nullptr if an upstream blocks `b`. Sets *work to the tuples
  /// processed (inputs, or a source's outputs) and *punctured if a
  /// punctuation stood in for an upstream's data. `upstream` is scratch.
  const BatchOutput* RunStep(
      const std::vector<std::unique_ptr<TaskRuntime>>& runtimes,
      TaskRuntime* rt, int64_t b, std::vector<const BatchOutput*>* upstream,
      int64_t* work, bool* punctured);
  /// True if failed task `t` is replaced by punctuations in tentative
  /// mode: PPA, with a recovery pending that no active replica covers.
  bool IsPunctured(TaskId t) const {
    auto it = recovering_.find(t);
    return config_.ft_mode == FtMode::kPpa && it != recovering_.end() &&
           it->second != RecoveryKind::kActiveReplica;
  }

  /// Nominal source tick time of batch `b` (lineage stamp for sources
  /// and punctuation-fed batches).
  TimePoint BatchTickTime(int64_t b) const {
    return first_tick_at_ + config_.batch_interval * b;
  }

  void OnBatchTick();
  void OnCheckpoint(TaskId t);
  /// True when `t` runs under the bounded-error contract: always for
  /// kApprox; for kHybrid only while the task is outside the active
  /// replica plan (the hybrid placement rule of DESIGN.md §17).
  bool ApproxEligible(TaskId t) const;
  /// The thinning gate: whether the due checkpoint of `t` may be
  /// skipped — eligibility, fresh coverage to certify, the error budget
  /// over the job's at-risk drift, and the certified-loss cap.
  bool ShouldSkipCheckpoint(TaskId t, TaskRuntime* rt) const;
  /// Schedules the recurring OnReplicaSync, once per job: at Start() for
  /// a non-empty initial plan or under source replay (whose primaries it
  /// trims), else when ApplyActiveReplicaSet first brings replicas in, so
  /// their output buffers are trimmed too.
  void StartReplicaSync();
  void OnReplicaSync();
  void OnDetection();
  /// Loads `t`'s checkpoint chain (which must exist) into `rt`: the full
  /// base, then each delta in order.
  Status RestoreChain(TaskId t, TaskRuntime* rt);
  /// Creates a replica for `t` seeded from the primary's latest checkpoint
  /// (or a live snapshot) so it can catch up from upstream buffers.
  Status ActivateReplica(TaskId t);
  /// Instantiates a fresh runtime (primary or replica) for `t`.
  std::unique_ptr<TaskRuntime> MakeRuntime(TaskId t);
  void CompleteRecovery(TaskId t, RecoveryKind kind);
  /// Trims upstream output buffers given fresh checkpoint coverage.
  void TrimUpstreamBuffers(TaskId checkpointed);

  /// Enables the trace and creates the metric handles when
  /// config_.observability is on; otherwise every handle stays nullptr
  /// and the trace is disabled.
  void InitObservability();
  /// Delivers sink batch `out` of `t` unless a replay already did
  /// (tentative if the batch is degraded) and books it: latency
  /// histograms, the sink trace event (the sink.* counters fold it) and
  /// the tentative-window transitions.
  void DeliverSinkBatch(TaskId t, const BatchOutput& out);
  /// Emits kTaskCaughtUp for recovered tasks that reached the frontier.
  void NoteCaughtUpTasks();

  /// Schedules `fn` after `delay` and tracks the
  /// event id so Stop() can cancel it. Every recurring/deferred job event
  /// goes through here (one backend schedule call per call, so event ids
  /// are unchanged from scheduling directly).
  void ScheduleManaged(Duration delay, std::function<void()> fn);

  /// Estimated tuples `t` must replay for checkpoint recovery, counted
  /// from real upstream buffers where available.
  int64_t EstimateReplayTuples(TaskId t, int64_t from_batch) const;

  bool started_ = false;
  /// Whether the recurring replica sync is scheduled (StartReplicaSync).
  bool replica_sync_started_ = false;
  bool stopped_ = false;
  /// Pending backend event ids Stop() must cancel (ordered for
  /// deterministic cancellation).
  std::set<uint64_t> pending_events_;
  /// Cross-job recovery arbiter (nullptr outside the service).
  RecoveryArbiter arbiter_;
  Topology topology_;
  JobConfig config_;
  backend::ExecutionBackend* backend_;
  /// Built its own node pool: only then is the backend the job's alone.
  bool private_pool_;
  Router router_;
  Cluster cluster_;
  CheckpointStore checkpoints_;

  std::vector<OperatorFactory> op_factories_;
  std::vector<SourceFactory> source_factories_;
  /// The replica plan for Start(); afterwards replicas_ is the plan.
  TaskSet active_set_;

  /// Indexed by task id; a null replica slot means no replica.
  std::vector<std::unique_ptr<TaskRuntime>> primaries_;
  std::vector<std::unique_ptr<TaskRuntime>> replicas_;

  int64_t frontier_ = -1;
  /// Time of the first batch tick (anchor of BatchTickTime()).
  TimePoint first_tick_at_;
  /// Failed tasks not yet detected by the master.
  std::set<TaskId> undetected_failures_;
  /// Tasks whose recovery is pending (detected, completion scheduled).
  std::map<TaskId, RecoveryKind> recovering_;
  /// Batches that were processed with at least one punctuation.
  std::set<int64_t> degraded_batches_;
  TimePoint last_failure_time_;

  std::vector<SinkRecord> sink_records_;
  /// Per-task highest batch already delivered to the user (duplicate
  /// suppression when a recovered sink replays old batches).
  std::vector<int64_t> sink_recorded_until_;
  std::vector<RecoveryReport> reports_;

  /// One per block of the level Advance is running (kLevelBlocks).
  std::vector<LevelBlock> level_blocks_;

  /// Per-task slots: a level's blocks write their own tasks' entries.
  std::vector<double> processing_us_;
  std::vector<double> checkpoint_us_;
  std::vector<int64_t> checkpoint_count_;
  int64_t peak_buffered_tuples_ = 0;
  int64_t checkpoint_bytes_written_ = 0;
  int64_t checkpoints_skipped_ = 0;

  /// Approximate fault tolerance (src/af, DESIGN.md §17): per-task
  /// un-persisted drift and the certificates of thinned recoveries.
  /// Inert (never observed into) when recovery_mode == kPpa.
  af::DivergenceTracker divergence_;
  std::vector<af::ApproxCertificate> approx_certificates_;

  /// Observability (src/obs/): write-only recording, gated by
  /// config_.observability. All handles are nullptr when disabled; the
  /// obs::Add/Set/Observe helpers make every call site null-safe.
  mutable obs::MetricsRegistry metrics_;
  /// Events of trace_ that metrics() has folded into metrics_.
  mutable size_t trace_folded_ = 0;
  obs::TraceLog trace_;
  /// A tentative-output window is open (kTentativeWindowBegin emitted,
  /// end not yet seen).
  bool tentative_window_open_ = false;
  /// Highest batch any sink delivered tentatively in the open window;
  /// recorded as the window's closing batch (a lagging recovered sink may
  /// close the window while replaying batches below the window start).
  int64_t tentative_window_last_batch_ = -1;
  /// Recovered tasks whose backlog has not yet reached the frontier
  /// (kTaskCaughtUp pending).
  std::set<TaskId> catching_up_;
  obs::Counter* m_batch_ticks_ = nullptr;
  obs::Counter* m_tuples_primary_ = nullptr;
  obs::Counter* m_batches_primary_ = nullptr;
  obs::Counter* m_tuples_replica_ = nullptr;
  obs::Counter* m_batches_replica_ = nullptr;
  obs::Counter* m_sink_corrections_ = nullptr;
  obs::Histogram* m_af_certified_loss_ = nullptr;
  obs::Gauge* m_buffered_tuples_ = nullptr;
  obs::Gauge* m_output_buffer_batches_ = nullptr;
  obs::Gauge* m_buffered_bytes_estimate_ = nullptr;
  obs::Gauge* m_router_max_fanout_ = nullptr;
  obs::Gauge* m_checkpoint_bytes_total_ = nullptr;
  obs::Counter* m_checkpoint_full_ = nullptr;
  obs::Counter* m_checkpoint_delta_ = nullptr;
  obs::Histogram* m_checkpoint_chain_deltas_ = nullptr;
  obs::Histogram* m_checkpoint_duration_us_ = nullptr;
  obs::Histogram* m_checkpoint_state_tuples_ = nullptr;
  obs::Histogram* m_tuples_per_batch_ = nullptr;
  obs::Histogram* m_sink_latency_stable_ = nullptr;
  obs::Histogram* m_sink_latency_tentative_ = nullptr;
  obs::Histogram* m_sink_lineage_hops_ = nullptr;
  /// Per-sink-task latency handles, indexed by task id (nullptr for
  /// non-sink tasks or with observability off).
  std::vector<obs::Histogram*> m_sink_task_latency_stable_;
  std::vector<obs::Histogram*> m_sink_task_latency_tentative_;
};

}  // namespace ppa

#endif  // PPA_RUNTIME_STREAMING_JOB_H_
