// Fixture: a header only the mrca.h umbrella includes (R5
// header-consumer — the umbrella is not a consumer).
#pragma once

namespace mrca {
int umbrella_only();
}  // namespace mrca
