// Fixture: declaring the result type is not building one (R9 one-ledger).
#pragma once

namespace mrca {

struct DynamicsResult {
  int activations = 0;
};

}  // namespace mrca
