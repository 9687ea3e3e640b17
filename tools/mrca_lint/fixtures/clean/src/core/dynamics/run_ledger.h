// Fixture: the run ledger is the one file that builds a DynamicsResult by
// brace-initialization (R9 one-ledger) and writes its proof (R10
// one-proof).
#pragma once

#include "core/dynamics/result.h"

namespace mrca {

class RunLedger {
 public:
  void converge() { result_.proof = 1; }
  DynamicsResult finish() const { return result_; }

 private:
  DynamicsResult result_{.activations = 0};
};

}  // namespace mrca
