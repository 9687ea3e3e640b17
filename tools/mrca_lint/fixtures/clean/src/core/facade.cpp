// Fixture: a reached header's implementation links in, so what it includes
// is reached too.
#include "core/facade.h"

#include "core/dynamics/run_ledger.h"
#include "sim/good_medium.h"

namespace mrca {
int facade() { return GoodMedium().has(0) ? 1 : 0; }
}  // namespace mrca
