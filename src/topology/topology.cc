#include "topology/topology.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/logging.h"

namespace ppa {

std::string_view PartitionSchemeToString(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kOneToOne:
      return "one-to-one";
    case PartitionScheme::kSplit:
      return "split";
    case PartitionScheme::kMerge:
      return "merge";
    case PartitionScheme::kFull:
      return "full";
  }
  return "?";
}

std::string_view InputCorrelationToString(InputCorrelation correlation) {
  switch (correlation) {
    case InputCorrelation::kIndependent:
      return "independent";
    case InputCorrelation::kCorrelated:
      return "correlated";
  }
  return "?";
}

StatusOr<PartitionScheme> Topology::EdgeScheme(OperatorId from,
                                               OperatorId to) const {
  for (const StreamEdge& e : edges_) {
    if (e.from == from && e.to == to) {
      return e.scheme;
    }
  }
  std::ostringstream oss;
  oss << "no edge between operators " << from << " and " << to;
  return NotFound(oss.str());
}

std::string Topology::TaskLabel(TaskId id) const {
  const TaskInfo& t = task(id);
  std::ostringstream oss;
  oss << op(t.op).name << "[" << t.index_in_op << "]";
  return oss.str();
}

void Topology::RecomputeRates() {
  for (Substream& s : substreams_) {
    s.rate = 0.0;
  }
  for (OperatorId op_id : topo_order_) {
    OperatorInfo& oi = operators_[op_id];
    if (oi.upstream.empty()) {
      // Source operator: divide the configured aggregate rate among tasks
      // proportionally to their weights.
      double weight_sum = 0.0;
      for (TaskId t : oi.tasks) {
        weight_sum += tasks_[t].weight;
      }
      for (TaskId t : oi.tasks) {
        tasks_[t].output_rate =
            weight_sum > 0
                ? source_rates_[op_id] * tasks_[t].weight / weight_sum
                : 0.0;
      }
    } else {
      for (TaskId t : oi.tasks) {
        double in_rate = 0.0;
        for (int si : tasks_[t].in_substreams) {
          in_rate += substreams_[si].rate;
        }
        tasks_[t].output_rate = oi.selectivity * in_rate;
      }
    }
    // Distribute each task's output over its outgoing substreams, grouped by
    // downstream operator: within one downstream edge, the split follows the
    // receiving tasks' weights.
    for (TaskId t : oi.tasks) {
      // Weight sums per downstream operator for this task's fan-out.
      std::vector<std::pair<OperatorId, double>> weight_by_op;
      for (int si : tasks_[t].out_substreams) {
        const Substream& s = substreams_[si];
        double w = tasks_[s.to].weight;
        auto it = std::find_if(weight_by_op.begin(), weight_by_op.end(),
                               [&](const auto& p) { return p.first == s.to_op; });
        if (it == weight_by_op.end()) {
          weight_by_op.emplace_back(s.to_op, w);
        } else {
          it->second += w;
        }
      }
      for (int si : tasks_[t].out_substreams) {
        Substream& s = substreams_[si];
        auto it = std::find_if(weight_by_op.begin(), weight_by_op.end(),
                               [&](const auto& p) { return p.first == s.to_op; });
        double denom = it->second;
        s.rate = denom > 0
                     ? tasks_[t].output_rate * tasks_[s.to].weight / denom
                     : 0.0;
      }
    }
  }
}

OperatorId TopologyBuilder::AddOperator(std::string name, int parallelism,
                                        InputCorrelation correlation,
                                        double selectivity) {
  operators_.push_back(PendingOperator{std::move(name), parallelism,
                                       correlation, selectivity});
  return static_cast<OperatorId>(operators_.size() - 1);
}

TopologyBuilder& TopologyBuilder::Connect(OperatorId from, OperatorId to,
                                          PartitionScheme scheme) {
  edges_.push_back(StreamEdge{from, to, scheme});
  return *this;
}

TopologyBuilder& TopologyBuilder::SetSourceRate(OperatorId op,
                                                double total_rate) {
  source_rates_.emplace_back(op, total_rate);
  return *this;
}

TopologyBuilder& TopologyBuilder::SetTaskWeight(OperatorId op, int index,
                                                double weight) {
  weights_.push_back(PendingWeight{op, index, weight});
  return *this;
}

StatusOr<Topology> TopologyBuilder::Build() const {
  const int n = static_cast<int>(operators_.size());
  if (n == 0) {
    return InvalidArgument("topology has no operators");
  }
  for (int i = 0; i < n; ++i) {
    if (operators_[i].parallelism < 1) {
      return InvalidArgument("operator '" + operators_[i].name +
                             "' has parallelism < 1");
    }
    if (operators_[i].selectivity < 0) {
      return InvalidArgument("operator '" + operators_[i].name +
                             "' has negative selectivity");
    }
  }
  // Validate edges.
  for (const StreamEdge& e : edges_) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      return InvalidArgument("edge references unknown operator");
    }
    if (e.from == e.to) {
      return InvalidArgument("operator '" + operators_[e.from].name +
                             "' cannot subscribe to itself");
    }
    const int n1 = operators_[e.from].parallelism;
    const int n2 = operators_[e.to].parallelism;
    switch (e.scheme) {
      case PartitionScheme::kOneToOne:
        if (n1 != n2) {
          return InvalidArgument(
              "one-to-one edge requires equal parallelism (" +
              operators_[e.from].name + " -> " + operators_[e.to].name + ")");
        }
        break;
      case PartitionScheme::kSplit:
        if (n2 % n1 != 0 || n2 / n1 < 2) {
          return InvalidArgument(
              "split edge requires N2 = M*N1 with M >= 2 (" +
              operators_[e.from].name + " -> " + operators_[e.to].name + ")");
        }
        break;
      case PartitionScheme::kMerge:
        if (n1 % n2 != 0 || n1 / n2 < 2) {
          return InvalidArgument(
              "merge edge requires N1 = M*N2 with M >= 2 (" +
              operators_[e.from].name + " -> " + operators_[e.to].name + ")");
        }
        break;
      case PartitionScheme::kFull:
        break;
    }
  }
  // Duplicate edges are disallowed (an operator subscribes to a given
  // upstream stream once).
  for (size_t i = 0; i < edges_.size(); ++i) {
    for (size_t j = i + 1; j < edges_.size(); ++j) {
      if (edges_[i].from == edges_[j].from && edges_[i].to == edges_[j].to) {
        return InvalidArgument("duplicate edge between operators");
      }
    }
  }

  Topology topo;
  topo.edges_ = edges_;
  topo.operators_.resize(n);
  topo.source_rates_.assign(n, 0.0);
  for (int i = 0; i < n; ++i) {
    OperatorInfo& oi = topo.operators_[i];
    oi.id = i;
    oi.name = operators_[i].name;
    oi.parallelism = operators_[i].parallelism;
    oi.correlation = operators_[i].correlation;
    oi.selectivity = operators_[i].selectivity;
  }
  for (const StreamEdge& e : edges_) {
    topo.operators_[e.to].upstream.push_back(e.from);
    topo.operators_[e.from].downstream.push_back(e.to);
  }

  // Topological order (Kahn); also detects cycles.
  {
    std::vector<int> indegree(n, 0);
    for (const StreamEdge& e : edges_) {
      ++indegree[e.to];
    }
    std::queue<OperatorId> ready;
    for (int i = 0; i < n; ++i) {
      if (indegree[i] == 0) {
        ready.push(i);
      }
    }
    while (!ready.empty()) {
      OperatorId id = ready.front();
      ready.pop();
      topo.topo_order_.push_back(id);
      for (OperatorId down : topo.operators_[id].downstream) {
        if (--indegree[down] == 0) {
          ready.push(down);
        }
      }
    }
    if (static_cast<int>(topo.topo_order_.size()) != n) {
      return InvalidArgument("topology contains a cycle");
    }
  }

  for (int i = 0; i < n; ++i) {
    if (topo.operators_[i].upstream.empty()) {
      topo.sources_.push_back(i);
    }
    if (topo.operators_[i].downstream.empty()) {
      topo.sinks_.push_back(i);
    }
  }

  // Expand tasks.
  for (int i = 0; i < n; ++i) {
    OperatorInfo& oi = topo.operators_[i];
    for (int k = 0; k < oi.parallelism; ++k) {
      TaskInfo t;
      t.id = static_cast<TaskId>(topo.tasks_.size());
      t.op = i;
      t.index_in_op = k;
      oi.tasks.push_back(t.id);
      topo.tasks_.push_back(std::move(t));
    }
  }

  // Expand substreams per edge scheme.
  for (const StreamEdge& e : edges_) {
    const OperatorInfo& a = topo.operators_[e.from];
    const OperatorInfo& b = topo.operators_[e.to];
    const int n1 = a.parallelism;
    const int n2 = b.parallelism;
    auto add = [&](int i, int j) {
      Substream s;
      s.from = a.tasks[i];
      s.to = b.tasks[j];
      s.from_op = e.from;
      s.to_op = e.to;
      int idx = static_cast<int>(topo.substreams_.size());
      topo.substreams_.push_back(s);
      topo.tasks_[s.from].out_substreams.push_back(idx);
      topo.tasks_[s.to].in_substreams.push_back(idx);
    };
    switch (e.scheme) {
      case PartitionScheme::kOneToOne:
        for (int i = 0; i < n1; ++i) {
          add(i, i);
        }
        break;
      case PartitionScheme::kSplit: {
        const int m2 = n2 / n1;
        for (int i = 0; i < n1; ++i) {
          for (int j = i * m2; j < (i + 1) * m2; ++j) {
            add(i, j);
          }
        }
        break;
      }
      case PartitionScheme::kMerge: {
        const int m1 = n1 / n2;
        for (int j = 0; j < n2; ++j) {
          for (int i = j * m1; i < (j + 1) * m1; ++i) {
            add(i, j);
          }
        }
        break;
      }
      case PartitionScheme::kFull:
        for (int i = 0; i < n1; ++i) {
          for (int j = 0; j < n2; ++j) {
            add(i, j);
          }
        }
        break;
    }
  }

  // Every non-source operator must have at least one upstream (trivially
  // true) and be reachable from a source; with a DAG and Kahn order this
  // holds iff every operator with indegree 0 is intended as a source, which
  // we accept. Reject operators that are completely isolated in a
  // multi-operator topology, though.
  if (n > 1) {
    for (int i = 0; i < n; ++i) {
      if (topo.operators_[i].upstream.empty() &&
          topo.operators_[i].downstream.empty()) {
        return InvalidArgument("operator '" + topo.operators_[i].name +
                               "' is disconnected");
      }
    }
  }

  // Default source rates and overrides.
  for (OperatorId s : topo.sources_) {
    topo.source_rates_[s] = 1000.0;
  }
  for (const auto& [op_id, rate] : source_rates_) {
    if (op_id < 0 || op_id >= n) {
      return InvalidArgument("SetSourceRate: bad operator id");
    }
    if (!topo.operators_[op_id].upstream.empty()) {
      return InvalidArgument("SetSourceRate: operator '" +
                             topo.operators_[op_id].name +
                             "' is not a source");
    }
    if (rate < 0) {
      return InvalidArgument("SetSourceRate: negative rate");
    }
    topo.source_rates_[op_id] = rate;
  }
  for (const PendingWeight& w : weights_) {
    if (w.op < 0 || w.op >= n || w.index < 0 ||
        w.index >= topo.operators_[w.op].parallelism) {
      return InvalidArgument("SetTaskWeight: bad operator/task index");
    }
    if (w.weight <= 0) {
      return InvalidArgument("SetTaskWeight: weight must be positive");
    }
    topo.tasks_[topo.operators_[w.op].tasks[w.index]].weight = w.weight;
  }

  topo.RecomputeRates();
  return topo;
}

}  // namespace ppa
