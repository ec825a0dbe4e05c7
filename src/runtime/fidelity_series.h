#ifndef PPA_RUNTIME_FIDELITY_SERIES_H_
#define PPA_RUNTIME_FIDELITY_SERIES_H_

#include <vector>

#include "obs/timeline.h"
#include "obs/trace.h"
#include "topology/topology.h"

namespace ppa {

/// Folds a job's trace into its OF(t)/IC(t) series (DESIGN.md §8.3) in one
/// pass. A primary counts as failed from its `task-failed` event until its
/// `recovery-done`, or until it delivers a sink batch: a dead primary never
/// delivers, and an active takeover installs the replica before it
/// delivers the buffered outputs. Every tentative sink delivery, and every
/// delivery while a tentative window is open, yields one sample against
/// the failed set at that point; the stable delivery that closes a window
/// is its last sample. The trace must hold the whole run (no evictions).
std::vector<obs::FidelitySample> DeriveFidelitySeries(
    const Topology& topology, const obs::TraceLog& trace);

}  // namespace ppa

#endif  // PPA_RUNTIME_FIDELITY_SERIES_H_
