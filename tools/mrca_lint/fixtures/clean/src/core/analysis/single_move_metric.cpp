// Fixture: outside the engine directories a one-shot verdict may use the
// stateless check (R7 covers core/dynamics and core/alloc only).
#include "core/analysis/nash.h"

namespace mrca {
double single_move_metric(const GameModel& model, const StrategyMatrix& s) {
  return is_single_move_stable(model, s) ? 1.0 : 0.0;
}
}  // namespace mrca
