// Legal: the backend module is the one place allowed to name a concrete
// backend.
#include "backend/sim_backend.h"
