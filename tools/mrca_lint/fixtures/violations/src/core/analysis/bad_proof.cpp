// Fixture: a metric that writes a run's proof outside the run ledger (R10
// one-proof). result.proof = in a comment or a string does not count, and
// neither do reading or comparing a proof, nor a local named proof.
#include "core/analysis/metrics.h"

namespace mrca {

bool forge(DynamicsResult& result, DynamicsResult* other) {
  const char* label = "result.proof = StabilityProof::kNash";
  result.proof = StabilityProof::kNash;
  other->proof= StabilityProof::kSingleMove;
  StabilityProof proof = result.proof;
  proof = StabilityProof::kNone;
  return label[0] != '\0' && result.proof == other->proof &&
         proof != StabilityProof::kNash;
}

}  // namespace mrca
