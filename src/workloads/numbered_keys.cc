#include "workloads/numbered_keys.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace ppa {
namespace {

struct KeyTables {
  Mutex mu;
  std::map<std::pair<std::string, int>, std::vector<TupleKey>> tables
      PPA_GUARDED_BY(mu);
};

}  // namespace

const TupleKey* NumberedKeys(std::string_view prefix, int count) {
  PPA_CHECK(count >= 1) << "key table '" << prefix
                        << "' needs at least 1 key, got " << count;
  static KeyTables* const registry = new KeyTables;
  MutexLock lock(&registry->mu);
  std::vector<TupleKey>& keys =
      registry->tables[{std::string(prefix), count}];
  if (keys.empty()) {
    keys.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      keys.push_back(TupleKey::Numbered(prefix, i));
    }
  }
  return keys.data();
}

}  // namespace ppa
