// Fixture: an engine that builds its own result (R9 one-ledger).
// DynamicsResult{ in a comment or a string does not count, and neither do
// a function that returns one or a copy of one.
#include "core/dynamics/engine.h"

namespace mrca {

DynamicsResult run_engine(const StrategyMatrix& start) {
  const char* label = "DynamicsResult result{";
  DynamicsResult result{.final_state = start};
  if (label[0] == 'D') return DynamicsResult{};
  const DynamicsResult copy = result;
  return copy;
}

}  // namespace mrca
