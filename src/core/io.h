// Rendering of strategy matrices in the paper's two visual styles:
//  - Figure 2 style: the raw |N| x |C| matrix of radio counts;
//  - Figure 1 style: channels on the x-axis, radios stacked per channel,
//    each cell labelled with its owner ("u3 u3 u1 ..." columns).
// Plus a per-user utility report used by the bench harness.
#pragma once

#include <string>

#include "core/game_model.h"
#include "core/strategy.h"

namespace mrca {

/// Figure-2 style: one row per user, one column per channel.
std::string render_matrix(const StrategyMatrix& strategies);

/// Figure-1 style: stacked channel occupancy diagram (ASCII).
std::string render_occupancy(const StrategyMatrix& strategies);

/// Channel loads on one line, e.g. "loads: [4, 3, 3, 3] (delta = 1)".
std::string render_loads(const StrategyMatrix& strategies);

/// Per-user utilities and totals under the model's rates.
std::string render_utilities(const GameModel& model,
                             const StrategyMatrix& strategies);

/// Parses the canonical key format produced by StrategyMatrix::key():
/// rows separated by '|', cells by ',', e.g. "1,0,2|0,1,1".
/// Whitespace around cells is ignored. Throws std::invalid_argument on
/// malformed input or shape/budget mismatch with `config`.
StrategyMatrix parse_matrix(const GameConfig& config, const std::string& key);

}  // namespace mrca
