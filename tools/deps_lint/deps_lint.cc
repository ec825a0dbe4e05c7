#include "tools/deps_lint/deps_lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ppa {
namespace depslint {
namespace {

/// One quoted #include directive found in a file.
struct IncludeEdge {
  int line = 0;        // 1-based
  std::string target;  // the path between the quotes
};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string Trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return std::string(s.substr(b, e - b + 1));
}

/// Extracts the quoted #include directives of a file. Angle includes are
/// system/third-party headers and carry no layering obligations;
/// commented-out directives are skipped.
std::vector<IncludeEdge> ParseIncludes(std::string_view content) {
  std::vector<IncludeEdge> edges;
  int lineno = 0;
  size_t pos = 0;
  while (pos <= content.size()) {
    size_t nl = content.find('\n', pos);
    std::string_view raw =
        content.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    ++lineno;
    std::string line = Trim(raw);
    if (StartsWith(line, "#") &&
        line.find("include") != std::string::npos) {
      size_t open = line.find('"');
      if (open != std::string::npos) {
        size_t close = line.find('"', open + 1);
        if (close != std::string::npos) {
          edges.push_back({lineno, line.substr(open + 1, close - open - 1)});
        }
      }
    }
    if (nl == std::string_view::npos) {
      break;
    }
    pos = nl + 1;
  }
  return edges;
}

/// The module an include target ("common/logging.h") names, using the
/// same carve-outs as ModuleOf.
std::string TargetModuleOf(std::string_view include_path) {
  if (StartsWith(include_path, "report/json.")) {
    return "json";
  }
  size_t slash = include_path.find('/');
  if (slash == std::string_view::npos) {
    return "";  // top-level header; not part of the src DAG
  }
  return std::string(include_path.substr(0, slash));
}

/// Depth-first cycle search over the resolved file-level include graph.
/// Colors: 0 = unvisited, 1 = on the current path, 2 = done.
struct CycleFinder {
  const std::map<std::string, std::vector<IncludeEdge>>& graph;
  std::map<std::string, int> color;
  std::vector<std::string> path;
  std::vector<Diagnostic>* diags;

  /// Resolves an include target to a node of the graph, trying the raw
  /// path and the src/-rooted form (headers are included relative to -I
  /// src). Returns "" when the target is outside the analyzed set.
  std::string Resolve(const std::string& target) const {
    if (graph.count(target) != 0) {
      return target;
    }
    std::string under_src = "src/" + target;
    if (graph.count(under_src) != 0) {
      return under_src;
    }
    return "";
  }

  void Visit(const std::string& node) {
    color[node] = 1;
    path.push_back(node);
    for (const IncludeEdge& edge : graph.at(node)) {
      std::string next = Resolve(edge.target);
      if (next.empty()) {
        continue;
      }
      int c = color.count(next) != 0 ? color[next] : 0;
      if (c == 1) {
        // Back edge: the cycle is the path suffix from `next` to `node`.
        std::ostringstream chain;
        bool in_cycle = false;
        for (const std::string& p : path) {
          if (p == next) {
            in_cycle = true;
          }
          if (in_cycle) {
            chain << p << " -> ";
          }
        }
        chain << next;
        diags->push_back(
            {node, edge.line, "cycle",
             "include cycle: " + chain.str() +
                 "; break it with a forward declaration or by moving the "
                 "shared piece down a layer (DESIGN.md §14)"});
      } else if (c == 0) {
        Visit(next);
      }
    }
    path.pop_back();
    color[node] = 2;
  }
};

}  // namespace

std::string FormatDiagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return os.str();
}

int ModuleRank(std::string_view module) {
  // The layering contract (DESIGN.md §14). An include edge is legal only
  // when the target rank is strictly lower than the source rank (or the
  // modules are equal): same-rank modules are independent siblings.
  static const std::map<std::string, int, std::less<>> kRanks = {
      {"common", 0},
      {"topology", 1}, {"json", 1},
      {"obs", 2},      {"fidelity", 2},
      {"af", 3},
      {"engine", 3},   {"ft", 3},
      {"backend", 4},
      {"planner", 5},  {"runtime", 5},
      {"workloads", 6}, {"report", 6},
      {"exp", 7},
      {"service", 8},
      {"chaos", 9},
  };
  auto it = kRanks.find(module);
  return it == kRanks.end() ? -1 : it->second;
}

std::string ToolOf(std::string_view path) {
  if (!StartsWith(path, "tools/")) {
    return "";
  }
  std::string_view rest = path.substr(6);
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) {
    return "";  // a file directly under tools/ — not inside a tool
  }
  return std::string(rest.substr(0, slash));
}

std::string ModuleOf(std::string_view path) {
  if (!StartsWith(path, "src/")) {
    return "";
  }
  if (StartsWith(path, "src/report/json.")) {
    return "json";
  }
  std::string_view rest = path.substr(4);
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) {
    return "";  // a file directly under src/ (e.g. CMakeLists) — no module
  }
  return std::string(rest.substr(0, slash));
}

std::vector<Diagnostic> CheckLayering(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> diags;
  std::map<std::string, std::vector<IncludeEdge>> graph;
  for (const SourceFile& file : files) {
    graph[file.path] = ParseIncludes(file.content);
  }

  // Tool-isolation check: each tools/<name>/ directory is a standalone
  // checker; one tool including another couples their release cadence
  // and defeats the "pure library + CLI" pattern. Shared code belongs in
  // src/ (where the layer rules apply).
  for (const auto& [path, edges] : graph) {
    std::string tool = ToolOf(path);
    if (tool.empty()) {
      continue;
    }
    for (const IncludeEdge& edge : edges) {
      std::string target_tool = ToolOf(edge.target);
      if (!target_tool.empty() && target_tool != tool) {
        diags.push_back({path, edge.line, "tool-isolation",
                         "tools/" + tool + "/ must not include tools/" +
                             target_tool +
                             "/: tools are standalone; move shared code "
                             "into src/"});
      }
    }
  }

  // Layer / unknown-module checks: only src/ files carry obligations.
  for (const auto& [path, edges] : graph) {
    std::string module = ModuleOf(path);
    if (module.empty()) {
      continue;
    }
    int rank = ModuleRank(module);
    if (rank < 0) {
      diags.push_back(
          {path, 1, "unknown-module",
           "directory src/" + module + "/ is not in the layering contract; "
           "add it to the rank table in tools/deps_lint/deps_lint.cc and "
           "to DESIGN.md §14"});
      continue;
    }
    for (const IncludeEdge& edge : edges) {
      std::string target = TargetModuleOf(edge.target);
      if (target.empty()) {
        continue;
      }
      if (StartsWith(edge.target, "bench/") ||
          StartsWith(edge.target, "tests/") ||
          StartsWith(edge.target, "tools/") ||
          StartsWith(edge.target, "examples/")) {
        diags.push_back({path, edge.line, "layer",
                         "src/ must not depend on " + target +
                             "/: the library layers sit below the "
                             "binaries and tests that drive them"});
        continue;
      }
      if (target == module) {
        continue;
      }
      // Sim-isolation: the concrete backends (the simulator and the
      // threaded backend) are implementation details of src/backend/.
      // Everything else (engine, ft, runtime, ...) must go through
      // backend::ExecutionBackend so the same code runs on either.
      // Emitted instead of the generic layer diagnostic.
      if (edge.target == "backend/sim_backend.h" ||
          edge.target == "backend/threaded_backend.h") {
        diags.push_back(
            {path, edge.line, "sim-isolation",
             "include of \"" + edge.target + "\": only src/backend/ may "
             "name a concrete backend; use backend::ExecutionBackend so "
             "the code stays backend-neutral (DESIGN.md §16)"});
        continue;
      }
      int target_rank = ModuleRank(target);
      if (target_rank < 0) {
        diags.push_back(
            {path, edge.line, "unknown-module",
             "include of \"" + edge.target + "\": module " + target +
                 " is not in the layering contract; add it to the rank "
                 "table in tools/deps_lint/deps_lint.cc"});
        continue;
      }
      if (target_rank >= rank) {
        std::ostringstream msg;
        msg << "illegal dependency " << module << " (layer " << rank
            << ") -> " << target << " (layer " << target_rank << "): ";
        msg << (target_rank == rank
                    ? "same-layer modules are independent siblings"
                    : "an include must point strictly down the layer DAG");
        msg << " (DESIGN.md §14)";
        diags.push_back({path, edge.line, "layer", msg.str()});
      }
    }
  }

  // Cycle check over the whole set (cycles are illegal even inside one
  // module, where the layer rule is silent).
  CycleFinder finder{graph, {}, {}, &diags};
  for (const auto& [path, edges] : graph) {
    (void)edges;
    if (finder.color.count(path) == 0 || finder.color[path] == 0) {
      finder.Visit(path);
    }
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.file != b.file ? a.file < b.file : a.line < b.line;
            });
  return diags;
}

}  // namespace depslint
}  // namespace ppa
