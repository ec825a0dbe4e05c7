#include "chaos/generator.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "planner/planner.h"
#include "topology/random_topology.h"
#include "topology/serialize.h"

namespace ppa {
namespace chaos {

ChaosIntensity ChaosIntensity::Low() {
  ChaosIntensity intensity;
  intensity.min_events = 2;
  intensity.max_events = 5;
  intensity.overlap_probability = 0.05;
  intensity.failure_during_recovery_bias = 0.1;
  return intensity;
}

ChaosIntensity ChaosIntensity::Medium() { return ChaosIntensity(); }

ChaosIntensity ChaosIntensity::High() {
  ChaosIntensity intensity;
  intensity.min_events = 10;
  intensity.max_events = 20;
  intensity.overlap_probability = 0.3;
  intensity.failure_during_recovery_bias = 0.5;
  intensity.domain_failure_fraction = 0.35;
  intensity.correlated_failure_fraction = 0.15;
  return intensity;
}

StatusOr<ChaosIntensity> ChaosIntensityFromString(std::string_view name) {
  if (name == "low") {
    return ChaosIntensity::Low();
  }
  if (name == "medium") {
    return ChaosIntensity::Medium();
  }
  if (name == "high") {
    return ChaosIntensity::High();
  }
  return InvalidArgument("unknown chaos intensity '" + std::string(name) +
                         "' (expected low, medium, or high)");
}

namespace {

/// Draws a planner kind uniformly; every one of the six planners gets
/// exercised across a campaign.
PlannerKind DrawPlannerKind(Rng* rng) {
  constexpr PlannerKind kKinds[] = {
      PlannerKind::kDynamicProgramming, PlannerKind::kGreedy,
      PlannerKind::kStructureAware,     PlannerKind::kExhaustive,
      PlannerKind::kRandom,             PlannerKind::kExpectedFidelity,
  };
  return kKinds[rng->NextUint64(std::size(kKinds))];
}

/// Plans a replica set for `topology` under `budget` with a randomly
/// drawn planner and returns the chosen task ids in ascending order.
StatusOr<std::vector<TaskId>> DrawPlan(const Topology& topology, int budget,
                                       Rng* rng) {
  PlannerOptions options;
  options.seed = rng->Next();
  std::unique_ptr<Planner> planner =
      CreatePlanner(DrawPlannerKind(rng), options);
  PPA_ASSIGN_OR_RETURN(ReplicationPlan plan,
                       planner->Plan(PlanRequest(topology, budget)));
  std::vector<TaskId> tasks;
  for (TaskId t = 0; t < topology.num_tasks(); ++t) {
    if (plan.replicated.Contains(t)) {
      tasks.push_back(t);
    }
  }
  return tasks;
}

}  // namespace

StatusOr<ChaosCase> GenerateChaosCase(const ChaosIntensity& intensity,
                                      uint64_t seed) {
  if (intensity.min_events < 0 || intensity.max_events < intensity.min_events) {
    return InvalidArgument("bad chaos intensity event range");
  }
  Rng rng(seed);
  ChaosCase chaos_case;
  chaos_case.seed = seed;

  RandomTopologyOptions topo_options;
  topo_options.min_operators = 3;
  topo_options.max_operators = 6;
  topo_options.min_parallelism = 1;
  topo_options.max_parallelism = 3;
  topo_options.join_fraction = 0.25;
  topo_options.source_rate = 40.0;
  topo_options.selectivity = 0.8;
  PPA_ASSIGN_OR_RETURN(Topology topology,
                       GenerateRandomTopology(topo_options, &rng));
  chaos_case.topology_spec = ToSpec(topology);
  const int num_tasks = topology.num_tasks();

  chaos_case.num_worker_nodes =
      std::max(4, num_tasks) + static_cast<int>(rng.NextUint64(3));
  chaos_case.num_standby_nodes =
      std::max(2, num_tasks / 2) + static_cast<int>(rng.NextUint64(3));
  const int num_nodes =
      chaos_case.num_worker_nodes + chaos_case.num_standby_nodes;
  chaos_case.window_batches = rng.NextInt(5, 15);
  chaos_case.delta_checkpoints = rng.NextBool(0.5);
  chaos_case.checkpoint_interval_seconds =
      static_cast<double>(rng.NextInt(5, 20));

  const int num_domains = static_cast<int>(rng.NextInt(2, 4));
  chaos_case.node_domains.resize(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    chaos_case.node_domains[static_cast<size_t>(node)] =
        static_cast<int>(rng.NextUint64(static_cast<uint64_t>(num_domains)));
  }

  chaos_case.budget =
      static_cast<int>(rng.NextInt(1, std::max(1, num_tasks / 2)));
  PPA_ASSIGN_OR_RETURN(chaos_case.initial_plan,
                       DrawPlan(topology, chaos_case.budget, &rng));

  // Generator-side liveness bookkeeping: which nodes the schedule has
  // probably killed so far, so revivals usually target a dead node. The
  // runtime remains the source of truth (correlated failures depend on
  // placement), so a stale guess only yields an acceptable
  // FailedPrecondition outcome, never an invalid event.
  std::vector<bool> dead(static_cast<size_t>(num_nodes), false);
  auto dead_nodes = [&dead] {
    std::vector<int> nodes;
    for (size_t node = 0; node < dead.size(); ++node) {
      if (dead[node]) {
        nodes.push_back(static_cast<int>(node));
      }
    }
    return nodes;
  };

  const int num_events = static_cast<int>(
      rng.NextInt(intensity.min_events, intensity.max_events));
  const double detection = chaos_case.detection_interval_seconds;
  double cursor = 5.0 + rng.NextDouble() * 10.0;
  for (int i = 0; i < num_events; ++i) {
    if (i > 0) {
      if (rng.NextBool(intensity.overlap_probability)) {
        // Same instant: races through the loop's same-tick FIFO.
      } else if (rng.NextBool(intensity.failure_during_recovery_bias)) {
        cursor += 0.5 + rng.NextDouble() * (detection + 5.0);
      } else {
        cursor += detection + 5.0 + rng.NextDouble() * 20.0;
      }
    }
    ScenarioEvent event;
    event.at = Duration::Seconds(cursor);
    const double draw = rng.NextDouble();
    const double revive_cut = intensity.revive_probability;
    const double plan_cut = revive_cut + intensity.plan_swap_probability;
    const double reconcile_cut = plan_cut + intensity.reconcile_probability;
    if (draw < revive_cut && !dead_nodes().empty()) {
      const std::vector<int> candidates = dead_nodes();
      if (rng.NextBool(0.3)) {
        event.kind = ScenarioEvent::Kind::kReviveDomain;
        const int node =
            candidates[rng.NextUint64(candidates.size())];
        event.domain = chaos_case.node_domains[static_cast<size_t>(node)];
        for (int n = 0; n < num_nodes; ++n) {
          if (chaos_case.node_domains[static_cast<size_t>(n)] ==
              event.domain) {
            dead[static_cast<size_t>(n)] = false;
          }
        }
      } else {
        event.kind = ScenarioEvent::Kind::kReviveNode;
        event.node = candidates[rng.NextUint64(candidates.size())];
        dead[static_cast<size_t>(event.node)] = false;
      }
    } else if (draw < plan_cut) {
      event.kind = ScenarioEvent::Kind::kApplyPlan;
      const int swap_budget = static_cast<int>(
          rng.NextInt(0, chaos_case.budget));
      PPA_ASSIGN_OR_RETURN(event.plan,
                           DrawPlan(topology, swap_budget, &rng));
    } else if (draw < reconcile_cut) {
      event.kind = ScenarioEvent::Kind::kReconcile;
    } else {
      const double failure_draw = rng.NextDouble();
      if (failure_draw < intensity.correlated_failure_fraction) {
        event.kind = ScenarioEvent::Kind::kCorrelatedFailure;
        event.include_sources = rng.NextBool(0.3);
        // Placement is round-robin over workers, so assume all workers go.
        for (int n = 0; n < chaos_case.num_worker_nodes; ++n) {
          dead[static_cast<size_t>(n)] = true;
        }
      } else if (failure_draw < intensity.correlated_failure_fraction +
                                    intensity.domain_failure_fraction) {
        event.kind = ScenarioEvent::Kind::kDomainFailure;
        event.domain = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(num_domains)));
        for (int n = 0; n < num_nodes; ++n) {
          if (chaos_case.node_domains[static_cast<size_t>(n)] ==
              event.domain) {
            dead[static_cast<size_t>(n)] = true;
          }
        }
      } else {
        event.kind = ScenarioEvent::Kind::kNodeFailure;
        event.node =
            static_cast<int>(rng.NextUint64(static_cast<uint64_t>(num_nodes)));
        dead[static_cast<size_t>(event.node)] = true;
      }
    }
    chaos_case.events.push_back(std::move(event));
  }

  chaos_case.run_for_seconds =
      cursor + 30.0 + static_cast<double>(rng.NextInt(0, 15));
  return chaos_case;
}

StatusOr<ChaosCase> GenerateServiceCase(const ChaosIntensity& intensity,
                                        uint64_t seed) {
  if (intensity.min_events < 0 ||
      intensity.max_events < intensity.min_events) {
    return InvalidArgument("bad chaos intensity event range");
  }
  Rng rng(seed);
  ChaosCase mt_case;
  mt_case.seed = seed;

  const int num_tenants = static_cast<int>(rng.NextInt(2, 8));
  RandomTopologyOptions topo_options;
  topo_options.min_operators = 2;
  topo_options.max_operators = 4;
  topo_options.min_parallelism = 1;
  topo_options.max_parallelism = 2;
  topo_options.join_fraction = 0.25;
  topo_options.source_rate = 40.0;
  topo_options.selectivity = 0.8;

  // Zipf-skewed budgets: most tenants get little or no replication while
  // a few hog the standby pool — the interesting starvation regime.
  const ZipfGenerator budget_zipf(5, 1.2);
  int total_tasks = 0;
  int total_budget = 0;
  int max_budget = 0;
  for (int i = 0; i < num_tenants; ++i) {
    TenantCase tenant;
    PPA_ASSIGN_OR_RETURN(Topology topology,
                         GenerateRandomTopology(topo_options, &rng));
    tenant.topology_spec = ToSpec(topology);
    const int num_tasks = topology.num_tasks();
    total_tasks += num_tasks;
    tenant.priority = static_cast<int>(rng.NextInt(0, 3));
    tenant.replica_budget =
        std::min(num_tasks, static_cast<int>(budget_zipf.Sample(&rng)));
    total_budget += tenant.replica_budget;
    max_budget = std::max(max_budget, tenant.replica_budget);
    std::vector<TaskId> tasks(static_cast<size_t>(num_tasks));
    for (int t = 0; t < num_tasks; ++t) {
      tasks[static_cast<size_t>(t)] = t;
    }
    rng.Shuffle(&tasks);
    tasks.resize(static_cast<size_t>(tenant.replica_budget));
    std::sort(tasks.begin(), tasks.end());
    tenant.initial_plan = std::move(tasks);
    mt_case.tenants.push_back(std::move(tenant));
  }

  // Workers always fit every tenant eventually; standbys are deliberately
  // undersized ~40% of the time (still fitting the largest single budget,
  // so starvation shows up as queueing and degradation, not permanent
  // rejection).
  mt_case.worker_slots_per_node = static_cast<int>(rng.NextInt(2, 4));
  mt_case.num_worker_nodes =
      (total_tasks + mt_case.worker_slots_per_node - 1) /
          mt_case.worker_slots_per_node +
      static_cast<int>(rng.NextInt(1, 3));
  mt_case.standby_slots_per_node = static_cast<int>(rng.NextInt(2, 4));
  const bool starved = rng.NextBool(0.4);
  const int standby_capacity =
      starved ? std::max({1, max_budget,
                          static_cast<int>(0.6 * total_budget)})
              : total_budget + static_cast<int>(rng.NextInt(0, 4));
  mt_case.num_standby_nodes =
      std::max(1, (standby_capacity + mt_case.standby_slots_per_node - 1) /
                      mt_case.standby_slots_per_node);
  const int num_nodes =
      mt_case.num_worker_nodes + mt_case.num_standby_nodes;

  mt_case.arbitration_slot_seconds =
      static_cast<double>(rng.NextInt(1, 4));
  mt_case.window_batches = rng.NextInt(5, 15);
  mt_case.checkpoint_interval_seconds =
      static_cast<double>(rng.NextInt(5, 20));

  const int num_domains = static_cast<int>(rng.NextInt(2, 4));
  mt_case.node_domains.resize(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    mt_case.node_domains[static_cast<size_t>(node)] =
        static_cast<int>(rng.NextUint64(static_cast<uint64_t>(num_domains)));
  }

  // Generator-side dead-node bookkeeping, as in GenerateChaosCase: a
  // stale guess only yields an acceptable FailedPrecondition outcome.
  std::vector<bool> dead(static_cast<size_t>(num_nodes), false);
  auto dead_nodes = [&dead] {
    std::vector<int> nodes;
    for (size_t node = 0; node < dead.size(); ++node) {
      if (dead[node]) {
        nodes.push_back(static_cast<int>(node));
      }
    }
    return nodes;
  };

  const int num_events = static_cast<int>(
      rng.NextInt(intensity.min_events, intensity.max_events));
  const double detection = mt_case.detection_interval_seconds;
  double cursor = 5.0 + rng.NextDouble() * 10.0;
  for (int i = 0; i < num_events; ++i) {
    if (i > 0) {
      if (rng.NextBool(intensity.overlap_probability)) {
        // Same instant: races through the loop's same-tick FIFO.
      } else if (rng.NextBool(intensity.failure_during_recovery_bias)) {
        cursor += 0.5 + rng.NextDouble() * (detection + 5.0);
      } else {
        cursor += detection + 5.0 + rng.NextDouble() * 20.0;
      }
    }
    ScenarioEvent event;
    event.at = Duration::Seconds(cursor);
    const double draw = rng.NextDouble();
    if (draw < intensity.revive_probability && !dead_nodes().empty()) {
      const std::vector<int> candidates = dead_nodes();
      if (rng.NextBool(0.3)) {
        event.kind = ScenarioEvent::Kind::kReviveDomain;
        const int node = candidates[rng.NextUint64(candidates.size())];
        event.domain = mt_case.node_domains[static_cast<size_t>(node)];
        for (int n = 0; n < num_nodes; ++n) {
          if (mt_case.node_domains[static_cast<size_t>(n)] == event.domain) {
            dead[static_cast<size_t>(n)] = false;
          }
        }
      } else {
        event.kind = ScenarioEvent::Kind::kReviveNode;
        event.node = candidates[rng.NextUint64(candidates.size())];
        dead[static_cast<size_t>(event.node)] = false;
      }
    } else if (rng.NextDouble() < intensity.domain_failure_fraction +
                                      intensity.correlated_failure_fraction) {
      // Correlated mass is folded into domain failures: a domain outage IS
      // the cross-tenant correlated failure at this layer.
      event.kind = ScenarioEvent::Kind::kDomainFailure;
      event.domain = static_cast<int>(
          rng.NextUint64(static_cast<uint64_t>(num_domains)));
      for (int n = 0; n < num_nodes; ++n) {
        if (mt_case.node_domains[static_cast<size_t>(n)] == event.domain) {
          dead[static_cast<size_t>(n)] = true;
        }
      }
    } else {
      event.kind = ScenarioEvent::Kind::kNodeFailure;
      // Half the node kills target the standby pool: killing standbys is
      // what forces budget starvation and degradation cascades.
      if (rng.NextBool(0.5)) {
        event.node =
            mt_case.num_worker_nodes +
            static_cast<int>(rng.NextUint64(
                static_cast<uint64_t>(mt_case.num_standby_nodes)));
      } else {
        event.node = static_cast<int>(
            rng.NextUint64(static_cast<uint64_t>(num_nodes)));
      }
      dead[static_cast<size_t>(event.node)] = true;
    }
    mt_case.events.push_back(std::move(event));
  }

  mt_case.run_for_seconds =
      cursor + 30.0 + static_cast<double>(rng.NextInt(0, 15));
  return mt_case;
}

}  // namespace chaos
}  // namespace ppa
