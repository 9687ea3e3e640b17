// Fixture: declaring the result type is not building one (R9 one-ledger),
// and declaring its proof is not writing one (R10 one-proof).
#pragma once

namespace mrca {

struct DynamicsResult {
  int activations = 0;
  int proof = 0;
};

}  // namespace mrca
