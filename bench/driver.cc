#include "bench/driver.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>

#include "common/thread_pool.h"

namespace ppa {
namespace bench {
namespace {

/// All of `text` as a whole number >= 0; anything else (a sign, a letter,
/// an empty or out-of-range value) prints why and exits 2.
template <typename T>
T WholeNumberOrExit(const char* flag, const std::string& text) {
  T value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  // from_chars reads a leading '-' for a signed T.
  if (text.starts_with('-') || parsed.ec != std::errc() ||
      parsed.ptr != end) {
    std::fprintf(stderr, "%s: expected a whole number >= 0, got '%s'\n",
                 flag, text.c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

Driver Driver::FromArgs(int* argc, char** argv) {
  Driver driver;
  std::string metrics_path;
  std::string trace_path;
  std::string flight_path;
  std::string jobs_value;
  std::string seed_value;
  std::string commit_value;
  std::string backend_value;
  std::string mode_value;
  int jobs = 1;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    auto match = [&](std::string_view flag, std::string* out) {
      if (arg.size() > flag.size() + 1 &&
          arg.substr(0, flag.size()) == flag && arg[flag.size()] == '=') {
        *out = std::string(arg.substr(flag.size() + 1));
        return true;
      }
      if (arg == flag && i + 1 < *argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    if (match("--metrics_out", &metrics_path) ||
        match("--chrome_trace_out", &trace_path) ||
        match("--flight_record_out", &flight_path)) {
      continue;
    }
    if (arg == "--progress") {
      driver.progress_ = true;
      continue;
    }
    if (match("--jobs", &jobs_value)) {
      jobs = WholeNumberOrExit<int>("--jobs", jobs_value);
      continue;
    }
    if (match("--seed", &seed_value)) {
      driver.has_seed_ = true;
      driver.seed_ = WholeNumberOrExit<uint64_t>("--seed", seed_value);
      continue;
    }
    if (match("--commit", &commit_value)) {
      driver.commit_ = commit_value;
      continue;
    }
    if (match("--backend", &backend_value)) {
      StatusOr<backend::BackendKind> kind =
          backend::ParseBackendKind(backend_value);
      if (!kind.ok()) {
        std::fprintf(stderr, "--backend: %s\n",
                     kind.status().ToString().c_str());
        std::exit(2);
      }
      driver.backend_ = *kind;
      continue;
    }
    if (match("--recovery_mode", &mode_value)) {
      StatusOr<af::RecoveryMode> mode =
          af::RecoveryModeFromString(mode_value);
      if (!mode.ok()) {
        std::fprintf(stderr, "--recovery_mode: %s\n",
                     mode.status().ToString().c_str());
        std::exit(2);
      }
      driver.recovery_mode_ = *mode;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  driver.runner_ =
      exp::ParallelRunner(jobs > 0 ? jobs : ThreadPool::DefaultParallelism());
  driver.metrics_ = BenchMetricsSink(metrics_path);
  driver.traces_ = JsonDocumentSink(
      trace_path, "chrome trace", obs::EmptyChromeTrace(),
      " (load in chrome://tracing or https://ui.perfetto.dev)");
  JsonValue empty_record = JsonValue::Object();
  empty_record.Set("capacity", 0);
  empty_record.Set("dropped", 0);
  empty_record.Set("recorded", 0);
  empty_record.Set("events", JsonValue::Array());
  driver.flight_ = JsonDocumentSink(flight_path, "flight record",
                                    std::move(empty_record));
  return driver;
}

exp::ProgressMeter* Driver::StartProgress(int total, std::string label) {
  if (!progress_) {
    return nullptr;
  }
  meter_ = std::make_unique<exp::ProgressMeter>();
  meter_->set_sink(
      [total, label = std::move(label)](exp::ProgressMeter::Snapshot s) {
        std::fprintf(stderr, "%s %d/%d done (%d failed)\n", label.c_str(),
                     s.done, total, s.failed);
      });
  return meter_.get();
}

void Driver::StampBenchReport(JsonValue* report,
                              std::string_view suite) const {
  report->Set("schema_version", kBenchSchemaVersion);
  report->Set("suite", std::string(suite));
  report->Set("commit", commit_);
  report->Set("backend", backend_name());
  report->Set("recovery_mode", recovery_mode_name());
}

int Driver::Finish(std::string_view benchmark) {
  bool ok = metrics_.Write(benchmark);
  ok = traces_.Write() && ok;
  ok = flight_.Write() && ok;
  return ok ? 0 : 1;
}

}  // namespace bench
}  // namespace ppa
