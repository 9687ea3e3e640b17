// Fixture: an engine that checks stability with the stateless rescan (R7
// hot-loop-scratch). is_single_move_stable( in a comment or a string does
// not count, and neither does the run-owned check's holds().
#include "core/analysis/nash.h"

namespace mrca {

bool run_until_stable(const GameModel& model, StrategyMatrix& state) {
  StabilityCheck stability;
  const char* label = "is_single_move_stable(";
  for (int round = 0; round < 10 && label[0] != '\0'; ++round) {
    if (is_single_move_stable(model, state)) return true;  // finding
    if (stability.holds(model, state)) return true;
  }
  return mrca::is_single_move_stable(model, state, 0.0);  // finding
}

}  // namespace mrca
