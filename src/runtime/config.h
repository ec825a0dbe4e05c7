#ifndef PPA_RUNTIME_CONFIG_H_
#define PPA_RUNTIME_CONFIG_H_

#include <string_view>

#include "af/error_budget.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "ft/recovery_model.h"

namespace ppa {

/// Fault-tolerance strategy of a streaming job (Sec. VI-A compares all of
/// them).
enum class FtMode {
  /// No fault tolerance: failed tasks never recover (for tests).
  kNone,
  /// Periodic checkpoints + upstream buffer replay (Spark-Streaming-style
  /// passive recovery).
  kCheckpoint,
  /// Storm's default: rebuild failed tasks by replaying source data from
  /// the beginning of the unfinished windows through the topology.
  kSourceReplay,
  /// One active replica per task; takeover on failure.
  kActiveReplication,
  /// The paper's scheme: checkpoints for everyone, active replicas for a
  /// selected subset, tentative outputs while passive recovery runs.
  kPpa,
};

/// Stable name of a fault-tolerance mode (e.g. "ppa").
std::string_view FtModeToString(FtMode mode);

/// Configuration of a simulated streaming job.
struct JobConfig {
  /// Batch interval (the paper uses 1-second sliding steps).
  Duration batch_interval = Duration::Seconds(1);
  /// Master heartbeat-based failure-detection period (paper: 5 s).
  Duration detection_interval = Duration::Seconds(5);
  /// Checkpoint period (Fig. 7-10 vary 5/15/30 s).
  Duration checkpoint_interval = Duration::Seconds(15);
  /// Replica output-buffer synchronization period (Fig. 7-8 vary 5/30 s).
  Duration replica_sync_interval = Duration::Seconds(5);

  FtMode ft_mode = FtMode::kCheckpoint;

  /// Recovery exactness contract (DESIGN.md §17): kPpa keeps every
  /// checkpoint (exact recovery, the default); kApprox thins checkpoints
  /// within `error_budget` for every task; kHybrid keeps the
  /// actively-replicated (high-weight) tasks exact and thins the rest.
  /// kApprox requires a checkpoint-bearing ft_mode (kCheckpoint or
  /// kPpa); kHybrid requires ft_mode = kPpa.
  af::RecoveryMode recovery_mode = af::RecoveryMode::kPpa;

  /// Divergence tolerance gating checkpoint thinning when
  /// `recovery_mode` != kPpa (ignored otherwise).
  af::ErrorBudgetSpec error_budget;

  /// Recovery latency cost model.
  RecoveryCostModel recovery;

  /// CPU cost accounting (Fig. 9): per-tuple processing cost and
  /// per-checkpoint cost (fixed + per state tuple).
  double process_cost_per_tuple_us = 2.0;
  double checkpoint_cost_per_state_tuple_us = 0.5;
  double checkpoint_fixed_cost_us = 2000.0;

  /// Cluster shape.
  int num_worker_nodes = 15;
  int num_standby_nodes = 15;

  /// Window length (in batches) assumed by Storm-style source replay when
  /// sizing the replay span.
  int64_t window_batches = 30;

  /// Stagger per-task checkpoints across the interval (checkpoints of
  /// different nodes are asynchronous, Sec. I); disable for tests that
  /// need aligned checkpoints.
  bool stagger_checkpoints = true;

  /// Take incremental (delta) checkpoints between full ones for operators
  /// that support them — the delta-checkpoint optimization the paper cites
  /// as compatible with PPA. A full base checkpoint is still taken every
  /// `max_delta_chain` intervals (and recovery loads base + deltas).
  bool delta_checkpoints = false;
  int max_delta_chain = 8;

  /// Generate tentative outputs (batch-over punctuations on behalf of
  /// failed tasks) once a failure is detected. Forced on for kPpa; the
  /// pure baselines of Sec. VI-A block instead.
  bool tentative_outputs = false;

  /// Record metrics and sim-time trace events (src/obs/) while the job
  /// runs. Recording is write-only — it never feeds back into
  /// scheduling — so disabling it must not change any simulation output
  /// (tests/obs_test.cc pins this).
  bool observability = true;

  /// Checks the configuration for values the simulation cannot run with:
  /// non-positive batch/detection/checkpoint/replica-sync intervals,
  /// negative CPU costs, `max_delta_chain` < 1, non-positive
  /// `window_batches`, a cluster without worker nodes, or a
  /// recovery_mode/ft_mode/error_budget combination outside the af
  /// contract above. Returns
  /// InvalidArgument naming the offending field; StreamingJob construction
  /// PPA_CHECK-fails on an invalid config.
  [[nodiscard]] Status Validate() const;

  /// The paper's cluster calibration with pure checkpoint-based fault
  /// tolerance: 1 s batches, 5 s heartbeat detection, 19 worker nodes
  /// (4 source + 15 processing) and 15 standby nodes, recovery cost model
  /// and CPU costs calibrated to reproduce Fig. 9's checkpoint-to-
  /// processing ratios. Benchmarks and tests start from this preset.
  [[nodiscard]] static JobConfig CheckpointDefaults();

  /// CheckpointDefaults() with `ft_mode = kPpa` (tentative outputs are
  /// forced on by StreamingJob for that mode).
  [[nodiscard]] static JobConfig PpaDefaults();
};

}  // namespace ppa

#endif  // PPA_RUNTIME_CONFIG_H_
