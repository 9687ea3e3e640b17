// Fixture: a header only a test includes (R5 header-consumer — tests/ is
// not a consumer directory).
#pragma once

namespace mrca {
int orphan();
}  // namespace mrca
