// perfbench: the repository benchmark. Runs one PPA failure drill from a
// single process on the deterministic simulator (the single-threaded
// baseline) and on the real threaded backend, drives the job from outside
// through the public StreamingJob / ExecutionBackend / Planner calls, and
// prints one JSON object on stdout. README.md lists every metric.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   --workload  wide_4k | fig6_ppa_correlated | fig6_approx_correlated
//   --seed      feeds every SyntheticSource of the job
//   --seconds   measurement budget; repetitions continue until it is spent
//   --trace     0: untraced repetitions, end-to-end metrics
//               1: untraced, observability-off and probed repetitions,
//                  per-layer metrics (probes.h)
//
// Every repetition is checked against the first simulator repetition: the
// sink stream record by record and every deterministic counter. A
// mismatch or a non-OK Status counts as a failed operation and makes the
// exit code nonzero.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/execution_backend.h"
#include "common/hash.h"
#include "common/wall_clock.h"
#include "engine/operators.h"
#include "planner/structure_aware_planner.h"
#include "probes.h"
#include "report/json.h"
#include "runtime/streaming_job.h"
#include "topology/serialize.h"
#include "workloads/synthetic_recovery.h"

namespace perfbench {
namespace {

using namespace ppa;

/// Worker shards of the threaded backend. Its pool runs one thread per
/// shard plus the timer pump, so the main thread, the pump and two
/// shards use exactly the 4 cores of the reference machine.
constexpr int kNumShards = 2;
/// Before every repetition, set-up is timed at least once and then until
/// kSetupBatchS is spent (at most kMaxSetupsPerBatch times); setup_s is
/// the median of all samples. A fig6 set-up takes well under a
/// millisecond, and the host's speed changes from second to second, so
/// the samples are many and spread over the whole run.
constexpr int kMaxSetupsPerBatch = 100;
constexpr double kSetupBatchS = 0.04;
/// Minimum repetition rounds per run, whatever --seconds says.
constexpr int kMinRoundsUntraced = 3;
constexpr int kMinRoundsTraced = 2;

// wide_4k: the scale_cluster shape at 4096 nodes.
constexpr int kWideNodes = 4096;
constexpr int kWideDomainSize = 16;
constexpr int kWideReplicaStride = 8;

// fig6_*: the Fig. 6 synthetic recovery workload.
constexpr double kFig6Rate = 2000.0;
constexpr int64_t kFig6WindowBatches = 10;

struct WorkloadDef {
  const char* name;
  bool wide;
  af::RecoveryMode recovery_mode;
  /// Sim seconds: failure injection, end of the run, and the instant the
  /// anchor counters are read (negative: no anchor).
  int64_t fail_at_s;
  int64_t run_to_s;
  int64_t anchor_at_s;
};

constexpr WorkloadDef kWorkloads[] = {
    {"wide_4k", true, af::RecoveryMode::kPpa, 40, 120, -1},
    {"fig6_ppa_correlated", false, af::RecoveryMode::kPpa, 40, 90, 70},
    {"fig6_approx_correlated", false, af::RecoveryMode::kApprox, 40, 90, 70},
};

/// Which instrumentation a repetition runs with.
enum class Mode {
  kUntraced,  // plain operators, raw backend, observability on
  kObsOff,    // as kUntraced with JobConfig::observability off
  kTraced,    // probed operators/sources and a TimedBackend
};

TimePoint At(int64_t seconds) {
  return TimePoint::Zero() + Duration::Seconds(seconds);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Host-speed calibration. The reference machine is a 4-vCPU VM shared
/// with other tenants, and its speed drifts by tens of percent within an
/// hour, more than any regression bound. The kernel below runs before
/// every repetition; its run median divided by kReferenceCalibrationS
/// (its median there) is how much slower the host runs now, and the
/// end-to-end wall metrics are reported at the reference speed.
constexpr double kReferenceCalibrationS = 0.0408;

/// Wall time of a fixed kernel that shares nothing with the PPA code but
/// does what its hot paths do: build short string keys, copy tuples,
/// aggregate them in a std::map, sort, and serialize.
double CalibrationSeconds() {
  constexpr int kTuples = 50'000;
  const double start = WallClockSeconds();
  std::vector<std::pair<std::string, int64_t>> tuples;
  tuples.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) {
    const uint64_t h = Mix64(static_cast<uint64_t>(i));
    tuples.emplace_back("k" + std::to_string(h % 65536),
                        static_cast<int64_t>(h % 1000));
  }
  std::map<std::string, int64_t> sums;
  for (const auto& [key, value] : tuples) {
    sums[key] += value;
  }
  std::vector<std::pair<std::string, int64_t>> sorted = tuples;
  std::sort(sorted.begin(), sorted.end());
  std::string blob;
  for (const auto& [key, value] : sorted) {
    blob += key;
    blob += std::to_string(value);
  }
  const double elapsed = WallClockSeconds() - start;
  // Keeps the work observable so the optimizer cannot drop it.
  static volatile size_t sink = 0;
  sink = sink + blob.size() + sums.size();
  return elapsed;
}

/// A constructed, started job plus what set-up measured.
struct JobHandle {
  std::unique_ptr<StreamingJob> job;
  /// fig6: the 15 synthetic nodes the correlated failure kills.
  std::vector<int> fail_nodes;
  /// Source tuples offered per batch tick, from the workload spec.
  int64_t input_tuples_per_batch = 0;
  double plan_s = 0.0;
  double start_s = 0.0;
  /// Topology, plan, job construction, bind, and Start().
  double setup_s = 0.0;
};

std::string WideSpec(int width) {
  const std::string w = std::to_string(width);
  return "operator src " + w + " rate=4\n" + "operator mid " + w + "\n" +
         "operator sink 1\n" + "edge src mid one-to-one\n" +
         "edge mid sink merge\n";
}

/// Binds `factory`, wrapped in the probes when `session` is set.
Status BindOp(StreamingJob* job, OperatorId op, OperatorFactory factory,
              TraceSession* session) {
  if (session != nullptr) {
    factory = TimedOperatorFactory(std::move(factory), job, session);
  }
  return job->BindOperator(op, std::move(factory));
}

Status BindSrc(StreamingJob* job, OperatorId op, SourceFactory factory,
               TraceSession* session) {
  if (session != nullptr) {
    factory = TimedSourceFactory(std::move(factory), session);
  }
  return job->BindSource(op, std::move(factory));
}

StatusOr<JobHandle> BuildWide(backend::ExecutionBackend* be, uint64_t seed,
                              bool observability, TraceSession* session) {
  JobHandle h;
  const double setup_start = WallClockSeconds();
  const int workers = kWideNodes * 3 / 4;
  PPA_ASSIGN_OR_RETURN(Topology topo, ParseTopologySpec(WideSpec(workers / 2)));
  JobConfig config = JobConfig::PpaDefaults();
  config.num_worker_nodes = workers;
  config.num_standby_nodes = kWideNodes - workers;
  config.observability = observability;
  h.job = std::make_unique<StreamingJob>(topo, config, JobRuntimeDeps(be));
  StreamingJob* job = h.job.get();
  // The bindings of exp::BindGenericWorkload, with the benchmark seed.
  for (const OperatorInfo& oi : topo.operators()) {
    if (oi.upstream.empty()) {
      double rate = 0.0;
      for (TaskId t : oi.tasks) {
        rate += topo.task(t).output_rate;
      }
      const int64_t per_task = std::max<int64_t>(
          1, static_cast<int64_t>(rate / oi.parallelism *
                                  config.batch_interval.seconds()));
      h.input_tuples_per_batch += per_task * oi.parallelism;
      const uint64_t source_seed = seed + static_cast<uint64_t>(oi.id);
      PPA_RETURN_IF_ERROR(BindSrc(
          job, oi.id,
          [per_task, source_seed] {
            return std::make_unique<SyntheticSource>(per_task, 256,
                                                     source_seed);
          },
          session));
    } else {
      PPA_RETURN_IF_ERROR(BindOp(
          job, oi.id,
          [window = config.window_batches, sel = oi.selectivity] {
            return std::make_unique<SlidingWindowAggregateOperator>(window,
                                                                   sel);
          },
          session));
    }
  }
  for (int node = 0; node < kWideNodes; ++node) {
    PPA_RETURN_IF_ERROR(job->cluster().AssignDomain(node, node / kWideDomainSize));
  }
  // Every kWideReplicaStride-th mid task is actively replicated.
  const double plan_start = WallClockSeconds();
  TaskSet plan(topo.num_tasks());
  int mid_index = 0;
  for (TaskId t = 0; t < topo.num_tasks(); ++t) {
    if (topo.task(t).op == 1 && mid_index++ % kWideReplicaStride == 0) {
      plan.Add(t);
    }
  }
  h.plan_s = WallClockSeconds() - plan_start;
  PPA_RETURN_IF_ERROR(job->SetActiveReplicaSet(plan));
  const double start_start = WallClockSeconds();
  PPA_RETURN_IF_ERROR(job->Start());
  const double end = WallClockSeconds();
  h.start_s = end - start_start;
  h.setup_s = end - setup_start;
  return h;
}

StatusOr<JobHandle> BuildFig6(const WorkloadDef& w,
                              backend::ExecutionBackend* be, uint64_t seed,
                              bool observability, TraceSession* session) {
  JobHandle h;
  const double setup_start = WallClockSeconds();
  PPA_ASSIGN_OR_RETURN(
      SyntheticRecoveryWorkload workload,
      MakeSyntheticRecoveryWorkload(kFig6Rate, kFig6WindowBatches));
  const bool approx = w.recovery_mode == af::RecoveryMode::kApprox;
  // The mode_head_to_head configuration of the ppa / approx cells.
  JobConfig config = JobConfig::CheckpointDefaults();
  config.ft_mode = approx ? FtMode::kCheckpoint : FtMode::kPpa;
  config.recovery_mode = w.recovery_mode;
  config.window_batches = kFig6WindowBatches;
  config.error_budget.task_divergence_records = 2'000'000;
  config.error_budget.job_divergence_records = 20'000'000;
  config.error_budget.max_certified_loss = 0.9;
  config.observability = observability;
  h.job = std::make_unique<StreamingJob>(workload.topo, config,
                                         JobRuntimeDeps(be));
  StreamingJob* job = h.job.get();
  const int64_t per_batch = static_cast<int64_t>(
      kFig6Rate * config.batch_interval.seconds());
  h.input_tuples_per_batch =
      per_batch * workload.topo.op(workload.source).parallelism;
  const uint64_t source_seed = seed + static_cast<uint64_t>(workload.source);
  PPA_RETURN_IF_ERROR(BindSrc(
      job, workload.source,
      [per_batch, source_seed] {
        return std::make_unique<SyntheticSource>(per_batch, 1024, source_seed);
      },
      session));
  for (OperatorId op : {workload.o1, workload.o2, workload.o3, workload.o4}) {
    PPA_RETURN_IF_ERROR(BindOp(
        job, op,
        [] {
          return std::make_unique<SlidingWindowAggregateOperator>(
              kFig6WindowBatches, 0.5);
        },
        session));
  }
  PPA_ASSIGN_OR_RETURN(h.fail_nodes,
                       PlaceSyntheticRecoveryWorkload(workload, job));
  if (!approx) {
    // The PPA structure-aware half-budget plan.
    const double plan_start = WallClockSeconds();
    StructureAwarePlanner planner;
    PPA_ASSIGN_OR_RETURN(
        ReplicationPlan plan,
        planner.Plan(PlanRequest(workload.topo, workload.topo.num_tasks() / 2)));
    h.plan_s = WallClockSeconds() - plan_start;
    PPA_RETURN_IF_ERROR(job->SetActiveReplicaSet(plan.replicated));
  }
  const double start_start = WallClockSeconds();
  PPA_RETURN_IF_ERROR(job->Start());
  const double end = WallClockSeconds();
  h.start_s = end - start_start;
  h.setup_s = end - setup_start;
  return h;
}

StatusOr<JobHandle> BuildJob(const WorkloadDef& w,
                             backend::ExecutionBackend* be, uint64_t seed,
                             bool observability, TraceSession* session) {
  return w.wide ? BuildWide(be, seed, observability, session)
                : BuildFig6(w, be, seed, observability, session);
}

Status InjectFailure(const WorkloadDef& w, const JobHandle& h) {
  if (w.wide) {
    return h.job->InjectDomainFailure(0);
  }
  for (int node : h.fail_nodes) {
    PPA_RETURN_IF_ERROR(h.job->InjectNodeFailure(node));
  }
  return OkStatus();
}

/// One delivered sink tuple, keyed for the golden-twin comparison.
using SinkKey = std::tuple<TaskId, int64_t, std::string, int64_t>;

/// The sorted (sink task, batch, key, value) multiset of every delivered,
/// non-correction record.
std::vector<SinkKey> SinkMultiset(const std::vector<SinkRecord>& records) {
  std::vector<SinkKey> keys;
  keys.reserve(records.size());
  for (const SinkRecord& r : records) {
    if (!r.correction) {
      keys.emplace_back(r.tuple.producer, r.tuple.batch, r.tuple.key,
                        r.tuple.value);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Share of the golden multiset missing from `run` (multiset difference,
/// so a tentative batch with the right count but wrong tuples counts).
double GoldenDeficit(const std::vector<SinkKey>& golden,
                     const std::vector<SinkKey>& run) {
  if (golden.empty()) {
    return 0.0;
  }
  int64_t missing = 0;
  size_t j = 0;
  for (const SinkKey& g : golden) {
    while (j < run.size() && run[j] < g) {
      ++j;
    }
    if (j < run.size() && run[j] == g) {
      ++j;
    } else {
      ++missing;
    }
  }
  return static_cast<double>(missing) / static_cast<double>(golden.size());
}

bool SameRecord(const SinkRecord& a, const SinkRecord& b) {
  return a.tuple == b.tuple && a.tentative == b.tentative &&
         a.emitted_at == b.emitted_at && a.correction == b.correction &&
         a.ingest_at == b.ingest_at;
}

/// Everything a repetition computes that must not depend on the backend,
/// the instrumentation, or the repetition.
struct Deterministic {
  int64_t events_processed = 0;
  int64_t sink_records = 0;
  int64_t checkpoint_bytes = 0;
  int64_t checkpoints_taken = 0;
  int64_t checkpoints_skipped = 0;
  int64_t forfeited_records = 0;
  int64_t recoveries = 0;
  int64_t peak_buffered_tuples = 0;
  double recovery_latency_s = 0.0;
  double sink_latency_p50_s = 0.0;
  double sink_latency_p99_s = 0.0;
  double golden_deficit_frac = 0.0;
  /// Counters read at WorkloadDef::anchor_at_s (-1 without an anchor).
  int64_t anchor_events = -1;
  int64_t anchor_sink_records = -1;
  int64_t anchor_checkpoint_bytes = -1;

  bool operator==(const Deterministic&) const = default;
};

/// The work counts the probes book; deterministic like the above.
struct LayerCounts {
  int64_t callbacks = 0;
  int64_t process_calls = 0;
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  int64_t source_tuples = 0;
  int64_t snapshot_calls = 0;
  int64_t snapshot_bytes = 0;
  int64_t restore_calls = 0;

  explicit LayerCounts(const LayerTimes& t)
      : callbacks(t.callbacks),
        process_calls(t.process_calls),
        tuples_in(t.tuples_in),
        tuples_out(t.tuples_out),
        source_tuples(t.source_tuples),
        snapshot_calls(t.snapshot_calls),
        snapshot_bytes(t.snapshot_bytes),
        restore_calls(t.restore_calls) {}
  bool operator==(const LayerCounts&) const = default;
};

struct RepResult {
  Status status;
  backend::BackendKind kind = backend::BackendKind::kSim;
  Mode mode = Mode::kUntraced;
  Deterministic det;
  /// Source tuples offered over the whole run (spec, not counters).
  int64_t input_tuples = 0;
  /// Wall time inside RunUntil, summed over every drive of the run.
  double drive_s = 0.0;
  /// Wall time from the failure injection until AllRecovered() held.
  double recovery_wall_s = 0.0;
  double start_s = 0.0;
  double inject_s = 0.0;
  /// kTraced only.
  LayerTimes layers;
  int threads_used = 0;
};

backend::ThreadedBackendOptions ThreadOptions() {
  backend::ThreadedBackendOptions options;
  options.num_shards = kNumShards;
  options.time_scale = 0.0;  // virtual time as fast as the machine allows
  return options;
}

/// Runs the workload once: set up, drive to the failure, inject it, drive
/// in one-second sim slices until every task has recovered, then to the
/// end. With `inject` false this is the fault-free golden twin.
/// `reference` (when set) is the sink stream the run must reproduce;
/// `capture` (when set) receives the run's sink stream.
RepResult RunRep(const WorkloadDef& w, backend::BackendKind kind, Mode mode,
                 uint64_t seed, bool inject,
                 const std::vector<SinkKey>* golden,
                 const std::vector<SinkRecord>* reference,
                 std::vector<SinkRecord>* capture) {
  RepResult r;
  r.kind = kind;
  r.mode = mode;
  std::unique_ptr<backend::ExecutionBackend> inner =
      backend::MakeBackend(kind, ThreadOptions());
  TraceSession session;
  std::unique_ptr<TimedBackend> timed;
  backend::ExecutionBackend* be = inner.get();
  if (mode == Mode::kTraced) {
    timed = std::make_unique<TimedBackend>(inner.get(), &session);
    be = timed.get();
  }
  StatusOr<JobHandle> built =
      BuildJob(w, be, seed, mode != Mode::kObsOff,
               mode == Mode::kTraced ? &session : nullptr);
  if (!built.ok()) {
    r.status = built.status();
    return r;
  }
  const JobHandle& h = *built;
  StreamingJob& job = *h.job;
  session.WatchJob(&job);
  r.start_s = h.start_s;
  r.input_tuples = h.input_tuples_per_batch * (w.run_to_s + 1);

  auto drive = [&r, be](int64_t to_s) {
    const double start = WallClockSeconds();
    be->RunUntil(At(to_s));
    r.drive_s += WallClockSeconds() - start;
  };
  drive(w.fail_at_s);
  const double inject_start = WallClockSeconds();
  if (inject) {
    r.status = InjectFailure(w, h);
    if (!r.status.ok()) {
      return r;
    }
  }
  r.inject_s = WallClockSeconds() - inject_start;
  bool recovered = !inject;
  for (int64_t t = w.fail_at_s; t < w.run_to_s;) {
    int64_t next = recovered ? w.run_to_s : t + 1;
    if (w.anchor_at_s > t && w.anchor_at_s < next) {
      next = w.anchor_at_s;
    }
    drive(next);
    t = next;
    if (!recovered && job.AllRecovered()) {
      recovered = true;
      r.recovery_wall_s = WallClockSeconds() - inject_start;
    }
    if (t == w.anchor_at_s) {
      r.det.anchor_events = be->events_processed();
      r.det.anchor_sink_records =
          static_cast<int64_t>(job.sink_records().size());
      r.det.anchor_checkpoint_bytes = job.CheckpointBytesWritten();
    }
  }
  if (!recovered) {
    r.status = Internal("job did not recover by the end of the run");
    return r;
  }

  const std::vector<SinkRecord>& sinks = job.sink_records();
  Deterministic& d = r.det;
  d.events_processed = be->events_processed();
  d.sink_records = static_cast<int64_t>(sinks.size());
  d.checkpoint_bytes = job.CheckpointBytesWritten();
  for (TaskId t = 0; t < job.topology().num_tasks(); ++t) {
    d.checkpoints_taken += job.CheckpointCount(t);
  }
  d.checkpoints_skipped = job.CheckpointsSkipped();
  for (const af::ApproxCertificate& cert : job.approx_certificates()) {
    d.forfeited_records += cert.forfeited.records;
  }
  d.recoveries = static_cast<int64_t>(job.recovery_reports().size());
  d.peak_buffered_tuples = job.PeakBufferedTuples();
  for (const RecoveryReport& report : job.recovery_reports()) {
    d.recovery_latency_s =
        std::max(d.recovery_latency_s, report.TotalLatency().seconds());
  }
  std::vector<double> latencies;
  latencies.reserve(sinks.size());
  for (const SinkRecord& rec : sinks) {
    if (!rec.correction) {
      latencies.push_back(rec.Latency().seconds());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    // Nearest rank: the smallest value with at least q of the samples at
    // or below it.
    auto rank = [&latencies](double q) {
      const size_t n = latencies.size();
      const size_t idx =
          static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
      return latencies[std::clamp<size_t>(idx, 1, n) - 1];
    };
    d.sink_latency_p50_s = rank(0.50);
    d.sink_latency_p99_s = rank(0.99);
  }
  if (golden != nullptr) {
    d.golden_deficit_frac = GoldenDeficit(*golden, SinkMultiset(sinks));
  }
  if (reference != nullptr) {
    if (reference->size() != sinks.size()) {
      r.status = Internal("sink stream has " + std::to_string(sinks.size()) +
                          " records, the sim reference " +
                          std::to_string(reference->size()));
    } else {
      for (size_t i = 0; i < sinks.size(); ++i) {
        if (!SameRecord(sinks[i], (*reference)[i])) {
          r.status = Internal("sink record " + std::to_string(i) +
                              " differs from the sim reference");
          break;
        }
      }
    }
  }
  if (capture != nullptr) {
    *capture = sinks;
  }
  if (mode == Mode::kTraced) {
    session.Collect();
    r.layers = session.totals();
    r.threads_used = session.threads_used();
  }
  return r;
}

const char* KindName(backend::BackendKind kind) {
  return kind == backend::BackendKind::kSim ? "sim" : "threads";
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kUntraced:
      return "untraced";
    case Mode::kObsOff:
      return "obs_off";
    case Mode::kTraced:
      return "traced";
  }
  return "?";
}

/// The process's resident-set high-water mark so far.
double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

JsonValue Metric(double value, const char* unit) {
  JsonValue m = JsonValue::Object();
  m.Set("value", value);
  m.Set("unit", unit);
  return m;
}

int Run(const WorkloadDef& w, uint64_t seed, double seconds, bool trace) {
  int64_t attempted = 0;
  int64_t failed = 0;
  JsonValue errors = JsonValue::Array();
  auto fail = [&failed, &errors](const std::string& what) {
    ++failed;
    errors.Append(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  };

  // The fault-free sim twin the golden deficit is measured against.
  std::vector<SinkRecord> twin_sinks;
  ++attempted;
  const RepResult twin = RunRep(w, backend::BackendKind::kSim, Mode::kUntraced,
                                seed, /*inject=*/false, nullptr, nullptr,
                                &twin_sinks);
  if (!twin.status.ok()) {
    fail("golden twin: " + twin.status.ToString());
  }
  const std::vector<SinkKey> golden = SinkMultiset(twin_sinks);
  twin_sinks.clear();
  twin_sinks.shrink_to_fit();

  // Set-up cost, timed on the sim backend (no drive follows) in one batch
  // before every repetition.
  std::vector<double> setup_s;
  std::vector<double> plan_s;
  auto time_setups = [&] {
    const double batch_start = WallClockSeconds();
    for (int i = 0;
         i == 0 || (i < kMaxSetupsPerBatch &&
                    WallClockSeconds() - batch_start < kSetupBatchS);
         ++i) {
      ++attempted;
      std::unique_ptr<backend::ExecutionBackend> be =
          backend::MakeBackend(backend::BackendKind::kSim);
      StatusOr<JobHandle> h = BuildJob(w, be.get(), seed, true, nullptr);
      if (!h.ok()) {
        fail("setup: " + h.status().ToString());
        return;
      }
      setup_s.push_back(h->setup_s);
      plan_s.push_back(h->plan_s);
    }
  };

  // Repetition rounds: each round runs every mode on sim, then threads.
  std::vector<Mode> modes = {Mode::kUntraced};
  if (trace) {
    modes = {Mode::kUntraced, Mode::kObsOff, Mode::kTraced};
  }
  const int min_rounds = trace ? kMinRoundsTraced : kMinRoundsUntraced;
  std::vector<SinkRecord> reference;
  Deterministic det_ref;
  bool have_ref = false;
  std::optional<LayerCounts> counts_ref;
  // Read after the first (sim) repetition: up to there the process ran
  // one thread through a fixed allocation sequence, so the figure repeats;
  // later threaded repetitions add per-thread malloc arenas that do not.
  double peak_rss_mb = 0.0;
  std::vector<double> calibrations;
  std::vector<RepResult> reps;
  const double loop_start = WallClockSeconds();
  for (int round = 0;
       round < min_rounds || WallClockSeconds() - loop_start < seconds;
       ++round) {
    for (backend::BackendKind kind :
         {backend::BackendKind::kSim, backend::BackendKind::kThreads}) {
      for (Mode mode : modes) {
        time_setups();
        const double calibration_s = CalibrationSeconds();
        calibrations.push_back(calibration_s);
        ++attempted;
        RepResult r = RunRep(w, kind, mode, seed, /*inject=*/true, &golden,
                             have_ref ? &reference : nullptr,
                             have_ref ? nullptr : &reference);
        const std::string label = std::string(KindName(kind)) + "/" +
                                  ModeName(mode) + " round " +
                                  std::to_string(round);
        if (!r.status.ok()) {
          fail(label + ": " + r.status.ToString());
          continue;
        }
        std::fprintf(stderr,
                     "perfbench: %s: calibration %.4f s, drive %.4f s, "
                     "recovery %.4f s\n",
                     label.c_str(), calibration_s, r.drive_s,
                     r.recovery_wall_s);
        if (!have_ref) {
          det_ref = r.det;
          have_ref = true;
          peak_rss_mb = PeakRssMb();
        } else if (!(r.det == det_ref)) {
          fail(label + ": deterministic counters differ from the sim "
                       "reference");
          continue;
        }
        if (mode == Mode::kTraced) {
          const LayerCounts counts(r.layers);
          if (!counts_ref.has_value()) {
            counts_ref = counts;
          } else if (!(counts == *counts_ref)) {
            fail(label + ": probe counts differ from the first traced run");
            continue;
          }
        }
        reps.push_back(std::move(r));
      }
    }
  }

  // Medians over the successful repetitions of one backend and mode.
  auto median_of = [&reps](backend::BackendKind kind, Mode mode,
                           auto&& field) {
    std::vector<double> values;
    for (const RepResult& r : reps) {
      if (r.kind == kind && r.mode == mode) {
        values.push_back(field(r));
      }
    }
    return Median(std::move(values));
  };
  auto count_of = [&reps](backend::BackendKind kind, Mode mode) {
    int64_t n = 0;
    for (const RepResult& r : reps) {
      n += r.kind == kind && r.mode == mode ? 1 : 0;
    }
    return n;
  };

  JsonValue metrics = JsonValue::Object();
  JsonValue report = JsonValue::Object();
  report.Set("workload", w.name);
  report.Set("seed", static_cast<int64_t>(seed));
  report.Set("num_shards", kNumShards);
  report.Set("fail_at_s", w.fail_at_s);
  report.Set("run_to_s", w.run_to_s);
  report.Set("input_tuples", have_ref ? reps.front().input_tuples : 0);
  report.Set("sink_latency_samples", det_ref.sink_records);
  report.Set("sink_latency_p50_s", det_ref.sink_latency_p50_s);
  report.Set("events_processed", det_ref.events_processed);
  report.Set("sink_records", det_ref.sink_records);
  report.Set("recoveries", det_ref.recoveries);
  JsonValue anchor = JsonValue::Object();
  anchor.Set("at_s", w.anchor_at_s);
  anchor.Set("events_processed", det_ref.anchor_events);
  anchor.Set("sink_records", det_ref.anchor_sink_records);
  anchor.Set("checkpoint_bytes", det_ref.anchor_checkpoint_bytes);
  report.Set("anchor", std::move(anchor));

  using backend::BackendKind;
  const BackendKind kinds[] = {BackendKind::kSim, BackendKind::kThreads};
  JsonValue rep_counts = JsonValue::Object();
  for (BackendKind kind : kinds) {
    for (Mode mode : modes) {
      rep_counts.Set(std::string(KindName(kind)) + "." + ModeName(mode),
                     count_of(kind, mode));
    }
  }
  report.Set("repetitions", std::move(rep_counts));

  // How much slower than the reference machine this host ran the
  // calibration kernel during the run. End-to-end wall metrics are
  // reported at the reference speed; the raw figures go to the report.
  const double slowdown = Median(calibrations) / kReferenceCalibrationS;
  report.Set("calibration_s", Median(calibrations));
  report.Set("host_slowdown", slowdown);
  if (!trace) {
    JsonValue raw = JsonValue::Object();
    auto wall_metric = [&metrics, &raw, slowdown](const std::string& name,
                                                  double value,
                                                  const char* unit) {
      raw.Set(name, value);
      // Rates scale up with the slowdown, times down.
      const double scaled = std::strcmp(unit, "1/s") == 0 ? value * slowdown
                                                           : value / slowdown;
      metrics.Set(name, Metric(scaled, unit));
    };
    wall_metric("setup_s", Median(setup_s), "s");
    for (BackendKind kind : kinds) {
      const std::string b = KindName(kind);
      wall_metric("tuples_per_s." + b,
                  median_of(kind, Mode::kUntraced,
                            [](const RepResult& r) {
                              return static_cast<double>(r.input_tuples) /
                                     r.drive_s;
                            }),
                  "1/s");
      wall_metric("recovery_wall_s." + b,
                  median_of(kind, Mode::kUntraced,
                            [](const RepResult& r) {
                              return r.recovery_wall_s;
                            }),
                  "s");
    }
    report.Set("raw", std::move(raw));
    metrics.Set("recovery_latency_s",
                Metric(det_ref.recovery_latency_s, "sim_s"));
    metrics.Set("sink_latency_p99_s",
                Metric(det_ref.sink_latency_p99_s, "sim_s"));
    metrics.Set("golden_deficit_frac",
                Metric(det_ref.golden_deficit_frac, "fraction"));
    metrics.Set("checkpoint_bytes",
                Metric(static_cast<double>(det_ref.checkpoint_bytes),
                       "bytes"));
  } else {
    const LayerCounts c =
        counts_ref.value_or(LayerCounts(LayerTimes()));
    metrics.Set("backend.callbacks",
                Metric(static_cast<double>(c.callbacks), "count"));
    metrics.Set("engine.process_calls",
                Metric(static_cast<double>(c.process_calls), "count"));
    metrics.Set("engine.tuples_in",
                Metric(static_cast<double>(c.tuples_in), "count"));
    metrics.Set("engine.tuples_out",
                Metric(static_cast<double>(c.tuples_out), "count"));
    metrics.Set("engine.source_tuples",
                Metric(static_cast<double>(c.source_tuples), "count"));
    metrics.Set("ft.snapshot_calls",
                Metric(static_cast<double>(c.snapshot_calls), "count"));
    metrics.Set("ft.snapshot_bytes",
                Metric(static_cast<double>(c.snapshot_bytes), "bytes"));
    metrics.Set("ft.restore_calls",
                Metric(static_cast<double>(c.restore_calls), "count"));
    metrics.Set("af.checkpoints_skipped",
                Metric(static_cast<double>(det_ref.checkpoints_skipped),
                       "count"));
    metrics.Set("af.forfeited_records",
                Metric(static_cast<double>(det_ref.forfeited_records),
                       "count"));
    const int64_t decisions =
        det_ref.checkpoints_skipped + det_ref.checkpoints_taken;
    metrics.Set("af.skip_ratio",
                Metric(decisions > 0
                           ? static_cast<double>(det_ref.checkpoints_skipped) /
                                 static_cast<double>(decisions)
                           : 0.0,
                       "fraction"));
    metrics.Set("runtime.peak_buffered_tuples",
                Metric(static_cast<double>(det_ref.peak_buffered_tuples),
                       "count"));
    metrics.Set("planner.plan_s", Metric(Median(plan_s), "s"));
    for (BackendKind kind : kinds) {
      const std::string b = KindName(kind);
      auto traced = [&](auto&& field) {
        return median_of(kind, Mode::kTraced, field);
      };
      const double busy =
          traced([](const RepResult& r) { return r.layers.busy_s; });
      metrics.Set("backend.busy_s." + b, Metric(busy, "s"));
      metrics.Set("backend.dispatch_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.drive_s - r.layers.busy_s;
                         }),
                         "s"));
      metrics.Set("backend.parallelism." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.busy_s / r.drive_s;
                         }),
                         "ratio"));
      metrics.Set("backend.threads_used." + b,
                  Metric(traced([](const RepResult& r) {
                           return static_cast<double>(r.threads_used);
                         }),
                         "count"));
      metrics.Set("runtime.self_s." + b,
                  Metric(traced([](const RepResult& r) {
                           const LayerTimes& l = r.layers;
                           // checkpoint_s contains snapshot_s; checkpoint
                           // callbacks run no operator or source work.
                           return l.busy_s - l.process_s - l.source_s -
                                  l.checkpoint_s - l.restore_s;
                         }),
                         "s"));
      metrics.Set("runtime.start_s." + b,
                  Metric(median_of(kind, Mode::kUntraced,
                                   [](const RepResult& r) {
                                     return r.start_s;
                                   }),
                         "s"));
      metrics.Set("runtime.inject_s." + b,
                  Metric(median_of(kind, Mode::kUntraced,
                                   [](const RepResult& r) {
                                     return r.inject_s;
                                   }),
                         "s"));
      metrics.Set("engine.process_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.process_s;
                         }),
                         "s"));
      metrics.Set("engine.replay_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.replay_s;
                         }),
                         "s"));
      metrics.Set("engine.source_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.source_s;
                         }),
                         "s"));
      metrics.Set("ft.snapshot_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.snapshot_s;
                         }),
                         "s"));
      metrics.Set("ft.checkpoint_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.checkpoint_s;
                         }),
                         "s"));
      metrics.Set("ft.restore_s." + b,
                  Metric(traced([](const RepResult& r) {
                           return r.layers.restore_s;
                         }),
                         "s"));
      auto drive = [](const RepResult& r) { return r.drive_s; };
      const double untraced_drive = median_of(kind, Mode::kUntraced, drive);
      metrics.Set("obs.overhead_s." + b,
                  Metric(untraced_drive -
                             median_of(kind, Mode::kObsOff, drive),
                         "s"));
      metrics.Set("bench.trace_overhead_s." + b,
                  Metric(traced(drive) - untraced_drive, "s"));
      report.Set("drive_s." + b, untraced_drive);
    }
  }
  if (!trace) {
    metrics.Set("peak_rss_mb", Metric(peak_rss_mb, "MB"));
  }
  report.Set("peak_rss_mb", peak_rss_mb);
  report.Set("errors", std::move(errors));

  JsonValue out = JsonValue::Object();
  out.Set("correct", failed == 0);
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  out.Set("metrics", std::move(metrics));
  out.Set("report", std::move(report));
  std::printf("%s\n", out.Serialize().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || seed < 0 || seconds < 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  for (const perfbench::WorkloadDef& w : perfbench::kWorkloads) {
    if (workload == w.name) {
      return perfbench::Run(w, static_cast<uint64_t>(seed), seconds,
                            trace == 1);
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
