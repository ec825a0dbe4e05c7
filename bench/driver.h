#ifndef PPA_BENCH_DRIVER_H_
#define PPA_BENCH_DRIVER_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "af/error_budget.h"
#include "backend/execution_backend.h"
#include "bench/bench_util.h"
#include "exp/parallel_runner.h"
#include "exp/progress.h"
#include "report/json.h"

namespace ppa {
namespace bench {

/// All of `text` as a number >= 0 of type T, whole when T is integral;
/// anything else (a sign, a letter, a trailing suffix, an empty,
/// non-finite or out-of-range value) prints why, naming `flag`, and exits
/// 2. Parses --jobs and --seed, and the numeric flags of binaries that
/// add their own.
template <typename T>
T NumberOrExit(const char* flag, const std::string& text) {
  T value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  bool ok = parsed.ec == std::errc() && parsed.ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  // from_chars reads a leading '-' for a signed T.
  if (text.starts_with('-') || !ok) {
    std::fprintf(stderr, "%s: expected a %s >= 0, got '%s'\n", flag,
                 std::is_integral_v<T> ? "whole number" : "number",
                 text.c_str());
    std::exit(2);
  }
  return value;
}

/// Shared driver of every experiment binary: owns the flags all of them
/// understand, the metrics/trace sinks, and the parallel runner the
/// binary fans its independent runs across.
///
/// Flags (parsed and stripped by FromArgs, `--flag=value` and
/// `--flag value` forms):
///   --metrics_out <file>       write labeled metrics snapshots as JSON
///   --chrome_trace_out <file>  write a Chrome/Perfetto trace
///   --flight_record_out <file> write the first captured flight record
///                              (the job's bounded post-mortem event
///                              ring) as JSON
///   --progress                 print live completion tallies to stderr
///                              (observational only — stdout and every
///                              report stay byte-identical)
///   --jobs <n>                 worker threads for independent runs
///                              (default 1; 0 = all hardware threads).
///                              Results are byte-identical for any value.
///                              Not a whole number >= 0: exit 2.
///   --seed <n>                 base RNG seed of randomized experiments
///                              (a whole number >= 0; otherwise exit 2)
///   --commit <sha>             source revision stamped into BENCH_*.json
///                              reports (default "unknown"; passed
///                              explicitly — binaries never shell out or
///                              read the environment)
///   --backend <sim|threads>    execution substrate for binaries that
///                              honour it (default sim). Stamped into
///                              BENCH_*.json headers and cell keys so
///                              bench_diff never cross-compares backends.
///   --recovery_mode <ppa|approx|hybrid>
///                              recovery mode (src/af) for binaries that
///                              honour it (default ppa). Stamped into
///                              BENCH_*.json headers and cell keys like
///                              --backend, so exact and approximate
///                              trajectories never cross-compare.
class Driver {
 public:
  /// Parses the shared flags and strips them from argv (updating *argc),
  /// so the binary's own flag handling never sees them.
  static Driver FromArgs(int* argc, char** argv);

  /// Worker threads to run on; always >= 1 (0 was resolved to the
  /// hardware thread count at parse time).
  [[nodiscard]] int jobs() const { return runner_.jobs(); }

  /// The --seed value, or `fallback` when the flag was absent.
  [[nodiscard]] uint64_t seed_or(uint64_t fallback) const {
    return has_seed_ ? seed_ : fallback;
  }

  /// The --commit value ("unknown" when the flag was absent).
  [[nodiscard]] const std::string& commit() const { return commit_; }

  /// The --backend value (BackendKind::kSim when the flag was absent).
  [[nodiscard]] backend::BackendKind backend_kind() const {
    return backend_;
  }

  /// The --backend value's flag spelling ("sim" / "threads") — the string
  /// StampBenchReport writes and binaries suffix into cell keys.
  [[nodiscard]] std::string backend_name() const {
    return backend::BackendKindToString(backend_);
  }

  /// The --recovery_mode value (af::RecoveryMode::kPpa when absent).
  [[nodiscard]] af::RecoveryMode recovery_mode() const {
    return recovery_mode_;
  }

  /// The --recovery_mode value's flag spelling ("ppa" / "approx" /
  /// "hybrid") — the string StampBenchReport writes and binaries suffix
  /// into cell keys.
  [[nodiscard]] std::string recovery_mode_name() const {
    return std::string(af::RecoveryModeToString(recovery_mode_));
  }

  /// A fresh backend of the --backend kind (default options).
  [[nodiscard]] std::unique_ptr<backend::ExecutionBackend> MakeBackend()
      const {
    return backend::MakeBackend(backend_);
  }

  /// Stamps the standard BENCH_*.json header onto a report so the perf
  /// trajectory is machine-diffable across PRs: `schema_version` (bumped
  /// only on incompatible shape changes), `suite` (the benchmark's
  /// stable name), `commit` (from --commit), and `backend` (from
  /// --backend — a sim report and a threads report are different
  /// trajectories, never diffed against each other). Every BENCH_*.json
  /// writer must call this before serializing.
  void StampBenchReport(JsonValue* report, std::string_view suite) const;

  /// The `schema_version` StampBenchReport writes.
  static constexpr int kBenchSchemaVersion = 1;

  /// Metrics sink (no-op unless --metrics_out was given).
  BenchMetricsSink& metrics() { return metrics_; }

  /// Trace sink (no-op unless --chrome_trace_out was given).
  JsonDocumentSink& traces() { return traces_; }

  /// Flight-record sink (no-op unless --flight_record_out was given).
  JsonDocumentSink& flight() { return flight_; }

  /// True when --progress was given.
  [[nodiscard]] bool progress() const { return progress_; }

  /// With --progress: returns a fresh meter (owned by the driver,
  /// replacing any previous one) whose updates print
  /// "<label> <done>/<total> done (<failed> failed)" to stderr. Without
  /// the flag: nullptr — callers pass the meter to workers only when
  /// non-null. Progress is observational only; it never touches stdout
  /// or the sinks.
  exp::ProgressMeter* StartProgress(int total, std::string label);

  /// Runs fn(0..count-1) across up to jobs() threads, results in index
  /// order (exp::ParallelRunner::Map). Mutate sinks/registries only from
  /// the ordered result pass, never inside fn.
  template <typename T>
  std::vector<T> Map(int count, const std::function<T(int)>& fn) {
    return runner_.Map<T>(count, fn);
  }

  /// Writes all sinks; returns the process exit code (0 on success, 1
  /// when a sink could not be written).
  [[nodiscard]] int Finish(std::string_view benchmark);

 private:
  Driver() = default;

  bool has_seed_ = false;
  uint64_t seed_ = 0;
  bool progress_ = false;
  std::string commit_ = "unknown";
  backend::BackendKind backend_ = backend::BackendKind::kSim;
  af::RecoveryMode recovery_mode_ = af::RecoveryMode::kPpa;
  BenchMetricsSink metrics_;
  JsonDocumentSink traces_;
  JsonDocumentSink flight_;
  std::unique_ptr<exp::ProgressMeter> meter_;
  exp::ParallelRunner runner_;
};

}  // namespace bench
}  // namespace ppa

#endif  // PPA_BENCH_DRIVER_H_
