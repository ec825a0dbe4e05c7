#ifndef PPA_WORKLOADS_NUMBERED_KEYS_H_
#define PPA_WORKLOADS_NUMBERED_KEYS_H_

#include <string_view>

#include "engine/tuple.h"

namespace ppa {

/// The keys `prefix`0 ... `prefix`<count-1>, each built with
/// TupleKey::Numbered, so a source copies a key instead of formatting it.
/// The process holds one table per (prefix, count): it is built on first
/// use under a mutex, never changes after that and is never freed, so the
/// pointer stays valid for the life of the process and may be read from
/// any thread without a lock. A source looks its table up once, when it is
/// constructed. `count < 1` is fatal and names the prefix and the count.
const TupleKey* NumberedKeys(std::string_view prefix, int count);

}  // namespace ppa

#endif  // PPA_WORKLOADS_NUMBERED_KEYS_H_
