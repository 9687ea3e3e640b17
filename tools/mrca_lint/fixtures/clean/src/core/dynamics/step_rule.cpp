// Fixture: an engine that leaves its result to the ledger (R9 one-ledger):
// returning one and copying the ledger's never count.
#include "core/dynamics/run_ledger.h"

namespace mrca {

DynamicsResult run_engine() {
  const RunLedger ledger;
  const DynamicsResult result = ledger.finish();
  return result;
}

}  // namespace mrca
