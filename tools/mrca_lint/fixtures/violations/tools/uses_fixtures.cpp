// Fixture: the consumer of every other violation header, so R5 flags only
// the two headers seeded for it.
#include "core/bad_entropy.h"
#include "core/bad_layer.h"
#include "core/bad_seed.h"
#include "engine/bad_header.h"
#include "engine/bad_order.h"
#include "mrca.h"
#include "sim/bad_medium.h"

int main() { return 0; }
