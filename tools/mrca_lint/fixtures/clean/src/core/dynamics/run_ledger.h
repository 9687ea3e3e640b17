// Fixture: the run ledger is the one file that builds a DynamicsResult by
// brace-initialization (R9 one-ledger).
#pragma once

#include "core/dynamics/result.h"

namespace mrca {

class RunLedger {
 public:
  DynamicsResult finish() const { return result_; }

 private:
  DynamicsResult result_{.activations = 0};
};

}  // namespace mrca
