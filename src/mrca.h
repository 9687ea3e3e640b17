// Umbrella header: the full public API of the mrca library.
//
// Reproduction of Felegyhazi, Cagalj & Hubaux, "Multi-radio channel
// allocation in competitive wireless networks", ICDCS 2006.
//
//   #include "mrca.h"
//
//   auto rate = mrca::make_tdma_rate(1.0);           // constant R, Mbit/s
//   mrca::GameModel game({/*users=*/4, /*channels=*/6, /*radios=*/4}, rate);
//   auto ne = mrca::sequential_allocation(game);     // paper's Algorithm 1
//   assert(mrca::is_nash_equilibrium(game, ne));
#pragma once

#include "common/format.h"       // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/solvers.h"      // IWYU pragma: export
#include "common/stats.h"        // IWYU pragma: export
#include "common/table.h"        // IWYU pragma: export
#include "core/alloc/best_response.h"   // IWYU pragma: export
#include "core/alloc/random_alloc.h"    // IWYU pragma: export
#include "core/alloc/sequential.h"      // IWYU pragma: export
#include "core/alloc/utility_cache.h"   // IWYU pragma: export
#include "core/analysis/deviation.h"    // IWYU pragma: export
#include "core/analysis/efficiency.h"   // IWYU pragma: export
#include "core/analysis/lemmas.h"       // IWYU pragma: export
#include "core/analysis/metrics.h"      // IWYU pragma: export
#include "core/analysis/nash.h"         // IWYU pragma: export
#include "core/analysis/pareto.h"       // IWYU pragma: export
#include "core/dynamics/engine.h"       // IWYU pragma: export
#include "core/game_model.h"     // IWYU pragma: export
#include "core/io.h"             // IWYU pragma: export
#include "core/rate_function.h"  // IWYU pragma: export
#include "core/rate_table.h"     // IWYU pragma: export
#include "core/strategy.h"       // IWYU pragma: export
#include "core/types.h"          // IWYU pragma: export
#include "engine/scenario.h"     // IWYU pragma: export
#include "engine/session.h"      // IWYU pragma: export
#include "engine/sim_tier.h"     // IWYU pragma: export
#include "engine/sinks.h"        // IWYU pragma: export
#include "engine/sweep.h"        // IWYU pragma: export
#include "engine/sweep_io.h"     // IWYU pragma: export
#include "engine/thread_pool.h"  // IWYU pragma: export
#include "mac/bianchi.h"         // IWYU pragma: export
#include "mac/dcf_parameters.h"  // IWYU pragma: export
#include "mac/tdma.h"            // IWYU pragma: export
#include "sim/mac_dcf.h"         // IWYU pragma: export
#include "sim/mac_tdma.h"        // IWYU pragma: export
#include "sim/network.h"         // IWYU pragma: export
#include "sim/simulator.h"       // IWYU pragma: export
