#include "tools/bench_diff/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace ppa {
namespace benchdiff {
namespace {

/// The deterministic counters: a pure function of the simulated run, so
/// any change is a behavior change and gates exactly.
constexpr const char* kCounters[] = {"events_processed", "sink_records",
                                     "recoveries", "checkpoint_bytes",
                                     "checkpoints_skipped"};

/// The wall metrics with their bad direction: -1 means falling is bad
/// (throughput-like), +1 means rising is bad (cost-like).
struct WallMetric {
  const char* name;
  int bad_sign;
};
constexpr WallMetric kWallMetrics[] = {{"events_per_sec", -1},
                                       {"sim_wall_ratio", -1},
                                       {"wall_seconds", +1}};

bool IsCounter(std::string_view name) {
  for (const char* counter : kCounters) {
    if (name == counter) {
      return true;
    }
  }
  return false;
}

bool IsWallMetric(std::string_view name) {
  for (const WallMetric& metric : kWallMetrics) {
    if (name == metric.name) {
      return true;
    }
  }
  return false;
}

/// The canonical key of a cell: every scalar member that is neither a
/// counter nor a wall metric, in insertion order, as "name=value" pairs.
/// Nested members (tables, arrays) never identify a cell.
std::string CellKey(const JsonValue& cell) {
  std::ostringstream key;
  bool first = true;
  for (const auto& [name, value] : cell.members()) {
    if (IsCounter(name) || IsWallMetric(name) || value.is_object() ||
        value.is_array()) {
      continue;
    }
    if (!first) {
      key << " ";
    }
    first = false;
    key << name << "=" << value.Serialize();
  }
  return key.str();
}

double RelChange(double baseline, double current) {
  if (baseline == 0.0) {
    return current == 0.0 ? 0.0 : (current > 0.0 ? 1.0 : -1.0);
  }
  return (current - baseline) / baseline;
}

std::string SuiteOf(const JsonValue& report) {
  const JsonValue* suite = report.Find("suite");
  return suite != nullptr && suite->is_string() ? suite->AsString() : "";
}

std::string CommitOf(const JsonValue& report) {
  const JsonValue* commit = report.Find("commit");
  return commit != nullptr && commit->is_string() ? commit->AsString() : "";
}

StatusOr<const JsonValue*> CellsOf(const JsonValue& report,
                                   const char* which) {
  if (!report.is_object()) {
    return InvalidArgument(std::string(which) +
                           " report is not a JSON object");
  }
  const JsonValue* cells = report.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return InvalidArgument(std::string(which) +
                           " report has no \"cells\" array");
  }
  for (size_t i = 0; i < cells->size(); ++i) {
    if (!cells->at(i).is_object()) {
      return InvalidArgument(std::string(which) + " cell " +
                             std::to_string(i) + " is not an object");
    }
  }
  return cells;
}

/// Compares one matched cell pair and appends its field deltas.
void DiffCell(const std::string& key, const JsonValue& baseline,
              const JsonValue& current, const DiffOptions& options,
              DiffReport* report) {
  for (const char* counter : kCounters) {
    const JsonValue* old_value = baseline.Find(counter);
    const JsonValue* new_value = current.Find(counter);
    if (old_value == nullptr && new_value == nullptr) {
      continue;
    }
    FieldDelta delta;
    delta.cell = key;
    delta.field = counter;
    delta.deterministic = true;
    // A counter present on one side only is itself a mismatch.
    if (old_value == nullptr || new_value == nullptr ||
        !old_value->is_number() || !new_value->is_number()) {
      delta.baseline = old_value != nullptr && old_value->is_number()
                           ? old_value->AsDouble()
                           : 0.0;
      delta.current = new_value != nullptr && new_value->is_number()
                          ? new_value->AsDouble()
                          : 0.0;
      delta.regression = true;
    } else {
      delta.baseline = old_value->AsDouble();
      delta.current = new_value->AsDouble();
      delta.regression = old_value->AsInt() != new_value->AsInt();
    }
    delta.rel_change = RelChange(delta.baseline, delta.current);
    if (delta.regression) {
      ++report->deterministic_mismatches;
    }
    report->deltas.push_back(std::move(delta));
  }
  for (const WallMetric& metric : kWallMetrics) {
    const JsonValue* old_value = baseline.Find(metric.name);
    const JsonValue* new_value = current.Find(metric.name);
    // Wall metrics are optional (--no_wall runs omit them): compare only
    // when both sides measured.
    if (old_value == nullptr || new_value == nullptr ||
        !old_value->is_number() || !new_value->is_number()) {
      continue;
    }
    FieldDelta delta;
    delta.cell = key;
    delta.field = metric.name;
    delta.baseline = old_value->AsDouble();
    delta.current = new_value->AsDouble();
    delta.rel_change = RelChange(delta.baseline, delta.current);
    delta.regression =
        metric.bad_sign * delta.rel_change > options.wall_tolerance;
    if (delta.regression) {
      ++report->wall_regressions;
    }
    report->deltas.push_back(std::move(delta));
  }
}

std::string FormatValue(const FieldDelta& delta, double value) {
  char buf[64];
  if (delta.deterministic) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", value);
  }
  return buf;
}

std::string FormatDelta(const FieldDelta& delta) {
  if (delta.deterministic) {
    return delta.regression ? "MISMATCH" : "=";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", delta.rel_change * 100.0);
  return buf;
}

}  // namespace

StatusOr<DiffReport> DiffBenchReports(const JsonValue& baseline,
                                      const JsonValue& current,
                                      const DiffOptions& options) {
  if (options.wall_tolerance < 0.0) {
    return InvalidArgument("wall_tolerance must be non-negative");
  }
  PPA_ASSIGN_OR_RETURN(const JsonValue* old_cells,
                       CellsOf(baseline, "baseline"));
  PPA_ASSIGN_OR_RETURN(const JsonValue* new_cells,
                       CellsOf(current, "current"));

  DiffReport report;
  report.baseline_suite = SuiteOf(baseline);
  report.current_suite = SuiteOf(current);
  report.baseline_commit = CommitOf(baseline);
  report.current_commit = CommitOf(current);
  report.wall_tolerance = options.wall_tolerance;
  report.fail_on_wall = options.fail_on_wall;

  std::map<std::string, const JsonValue*> current_by_key;
  for (size_t i = 0; i < new_cells->size(); ++i) {
    const JsonValue& cell = new_cells->at(i);
    if (!current_by_key.emplace(CellKey(cell), &cell).second) {
      return InvalidArgument("current report has duplicate cell key \"" +
                             CellKey(cell) + "\"");
    }
  }
  std::map<std::string, bool> matched;  // key -> seen in baseline
  for (size_t i = 0; i < old_cells->size(); ++i) {
    const JsonValue& cell = old_cells->at(i);
    std::string key = CellKey(cell);
    if (!matched.emplace(key, true).second) {
      return InvalidArgument("baseline report has duplicate cell key \"" +
                             key + "\"");
    }
    auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      report.only_in_baseline.push_back(key);
      continue;
    }
    DiffCell(key, cell, *it->second, options, &report);
  }
  // Current-side extras, in current file order for determinism.
  for (size_t i = 0; i < new_cells->size(); ++i) {
    std::string key = CellKey(new_cells->at(i));
    if (matched.count(key) == 0) {
      report.only_in_current.push_back(key);
    }
  }
  return report;
}

std::string DiffReportToMarkdown(const DiffReport& report) {
  std::ostringstream md;
  md << "# bench_diff: " << report.baseline_suite << " -> "
     << report.current_suite << "\n\n";
  if (!report.baseline_commit.empty() || !report.current_commit.empty()) {
    md << "commits: `" << report.baseline_commit << "` -> `"
       << report.current_commit << "`\n";
  }
  char tol[64];
  std::snprintf(tol, sizeof(tol), "%.1f%%", report.wall_tolerance * 100.0);
  md << "wall tolerance: " << tol << " ("
     << (report.fail_on_wall ? "gating" : "report-only") << ")\n\n";
  md << "| cell | field | baseline | current | delta | status |\n";
  md << "|---|---|---|---|---|---|\n";
  for (const FieldDelta& delta : report.deltas) {
    const char* status = !delta.regression        ? "ok"
                         : delta.deterministic    ? "FAIL"
                         : report.fail_on_wall    ? "FAIL"
                                                  : "warn";
    md << "| " << delta.cell << " | " << delta.field << " | "
       << FormatValue(delta, delta.baseline) << " | "
       << FormatValue(delta, delta.current) << " | " << FormatDelta(delta)
       << " | " << status << " |\n";
  }
  for (const std::string& key : report.only_in_baseline) {
    md << "\nFAIL: cell only in baseline: " << key << "\n";
  }
  for (const std::string& key : report.only_in_current) {
    md << "\nFAIL: cell only in current: " << key << "\n";
  }
  md << "\n" << report.deterministic_mismatches
     << " deterministic mismatch(es), " << report.wall_regressions
     << " wall regression(s), " << report.only_in_baseline.size()
     << "+" << report.only_in_current.size() << " unmatched cell(s)\n";
  md << "\nGATE: " << (report.gate_failed() ? "FAIL" : "PASS") << "\n";
  return md.str();
}

JsonValue DiffReportToJson(const DiffReport& report) {
  JsonValue json = JsonValue::Object();
  json.Set("baseline_suite", report.baseline_suite);
  json.Set("current_suite", report.current_suite);
  json.Set("baseline_commit", report.baseline_commit);
  json.Set("current_commit", report.current_commit);
  json.Set("wall_tolerance", report.wall_tolerance);
  json.Set("fail_on_wall", report.fail_on_wall);
  JsonValue deltas = JsonValue::Array();
  for (const FieldDelta& delta : report.deltas) {
    JsonValue entry = JsonValue::Object();
    entry.Set("cell", delta.cell);
    entry.Set("field", delta.field);
    entry.Set("baseline", delta.baseline);
    entry.Set("current", delta.current);
    entry.Set("rel_change", delta.rel_change);
    entry.Set("deterministic", delta.deterministic);
    entry.Set("regression", delta.regression);
    deltas.Append(std::move(entry));
  }
  json.Set("deltas", std::move(deltas));
  JsonValue only_old = JsonValue::Array();
  for (const std::string& key : report.only_in_baseline) {
    only_old.Append(key);
  }
  json.Set("only_in_baseline", std::move(only_old));
  JsonValue only_new = JsonValue::Array();
  for (const std::string& key : report.only_in_current) {
    only_new.Append(key);
  }
  json.Set("only_in_current", std::move(only_new));
  json.Set("deterministic_mismatches", report.deterministic_mismatches);
  json.Set("wall_regressions", report.wall_regressions);
  json.Set("gate_failed", report.gate_failed());
  return json;
}

}  // namespace benchdiff
}  // namespace ppa
