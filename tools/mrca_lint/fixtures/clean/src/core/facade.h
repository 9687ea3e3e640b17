// Fixture: the one header a consumer includes. R5 reaches common/rng.h
// through it and sim/good_medium.h through its implementation.
#pragma once

#include "common/rng.h"

namespace mrca {
int facade();
}  // namespace mrca
