#include "engine/serde.h"

#include <string>

#include "common/logging.h"

namespace ppa {
namespace serde_internal {

void FailTupleEncode(size_t tuples, size_t written, uint64_t stray,
                     const TupleRun& run) {
  PPA_CHECK(written == tuples)
      << tuples << " tuples do not encode to the presized bytes (" << written
      << " fit)";
  PPA_CHECK(stray == 0) << "tuples do not derive from their run (producer "
                        << run.producer << ", batch " << run.batch
                        << ", first seq " << run.first_seq << ")";
}

void FailRunEncode(size_t tuples, size_t runs) {
  PPA_LOG(Fatal) << tuples << " tuples do not encode to " << runs
                 << " runs in the presized bytes";
}

Status KeyOverCapacity(size_t key_size) {
  return OutOfRange("stored tuple key of " + std::to_string(key_size) +
                    " bytes exceeds " + std::to_string(TupleKey::kCapacity));
}

Status RunsCannotHold(uint64_t runs, uint64_t count) {
  return OutOfRange(std::to_string(runs) + " runs cannot hold " +
                    std::to_string(count) + " tuples");
}

Status RunLongerThanLeft(uint32_t n, uint64_t left) {
  return OutOfRange("run of " + std::to_string(n) + " tuples where " +
                    std::to_string(left) + " are left");
}

Status RunsCoverTooFew(uint64_t covered, uint64_t count) {
  return OutOfRange("runs cover " + std::to_string(covered) + " of " +
                    std::to_string(count) + " tuples");
}

}  // namespace serde_internal
}  // namespace ppa
