#include "runtime/config.h"

namespace ppa {

Status JobConfig::Validate() const {
  if (batch_interval <= Duration::Zero()) {
    return InvalidArgument("batch_interval must be positive");
  }
  if (detection_interval <= Duration::Zero()) {
    return InvalidArgument("detection_interval must be positive");
  }
  if (checkpoint_interval <= Duration::Zero()) {
    return InvalidArgument("checkpoint_interval must be positive");
  }
  if (replica_sync_interval <= Duration::Zero()) {
    return InvalidArgument("replica_sync_interval must be positive");
  }
  if (process_cost_per_tuple_us < 0.0) {
    return InvalidArgument("process_cost_per_tuple_us must be non-negative");
  }
  if (checkpoint_cost_per_state_tuple_us < 0.0) {
    return InvalidArgument(
        "checkpoint_cost_per_state_tuple_us must be non-negative");
  }
  if (checkpoint_fixed_cost_us < 0.0) {
    return InvalidArgument("checkpoint_fixed_cost_us must be non-negative");
  }
  if (num_worker_nodes <= 0) {
    return InvalidArgument("num_worker_nodes must be positive");
  }
  if (num_standby_nodes < 0) {
    return InvalidArgument("num_standby_nodes must be non-negative");
  }
  if (window_batches <= 0) {
    return InvalidArgument("window_batches must be positive");
  }
  if (max_delta_chain < 1) {
    return InvalidArgument("max_delta_chain must be at least 1");
  }
  if (recovery_mode == af::RecoveryMode::kApprox &&
      ft_mode != FtMode::kCheckpoint && ft_mode != FtMode::kPpa) {
    return InvalidArgument(
        "recovery_mode=approx requires a checkpoint-bearing ft_mode "
        "(checkpoint or ppa)");
  }
  if (recovery_mode == af::RecoveryMode::kHybrid && ft_mode != FtMode::kPpa) {
    return InvalidArgument("recovery_mode=hybrid requires ft_mode=ppa");
  }
  if (recovery_mode != af::RecoveryMode::kPpa) {
    PPA_RETURN_IF_ERROR(error_budget.Validate());
  }
  return OkStatus();
}

JobConfig JobConfig::CheckpointDefaults() {
  JobConfig config;
  config.ft_mode = FtMode::kCheckpoint;
  config.batch_interval = Duration::Seconds(1);
  config.detection_interval = Duration::Seconds(5);
  config.num_worker_nodes = 19;
  config.num_standby_nodes = 15;
  config.recovery.replay_rate_tuples_per_sec = 4000.0;
  config.recovery.state_load_rate_tuples_per_sec = 50000.0;
  config.recovery.task_restart_delay = Duration::Seconds(1.0);
  config.recovery.replica_activation_delay = Duration::Millis(200);
  config.recovery.sync_handshake_delay = Duration::Millis(250);
  config.recovery.replica_resend_rate_tuples_per_sec = 10000.0;
  config.process_cost_per_tuple_us = 2.0;
  config.checkpoint_cost_per_state_tuple_us = 0.04;
  config.checkpoint_fixed_cost_us = 500.0;
  return config;
}

JobConfig JobConfig::PpaDefaults() {
  JobConfig config = CheckpointDefaults();
  config.ft_mode = FtMode::kPpa;
  return config;
}

}  // namespace ppa
