// Fixture: umbrella header. Reaching it marks only the umbrella, so
// core/umbrella_only.h has no consumer of its own (R5 header-consumer).
#pragma once

#include "core/umbrella_only.h"
