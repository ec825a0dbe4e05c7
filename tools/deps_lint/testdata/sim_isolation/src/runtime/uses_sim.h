// Planted violation: runtime code naming a concrete backend directly.
// Only src/backend/ may include backend/sim_backend.h (DESIGN.md §16).
#include "backend/sim_backend.h"
