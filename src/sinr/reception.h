// Per-link and per-listener reception under the SINR rule, with the paper's
// extra gate δ(u,v) ≤ R_T and the medium's test s ≥ β·(N + I). Every slot
// loop resolves through the slot-level SINR medium
// (radio/interference_model.h) instead, which is held to these oracles
// (tests/field_equivalence_test.cpp, tests/mac_test.cpp).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "geometry/point.h"
#include "sinr/medium_field.h"
#include "sinr/params.h"

namespace sinrcolor::sinr {

/// True iff listener at `at` decodes transmitters[sender] under SINR and the
/// range gate δ ≤ R_T: the per-link what-if test of a transmitter set
/// (mac::greedy_link_schedule's feasibility check).
bool decodes(const SinrParams& params, const geometry::Point& at,
             std::span<const Transmitter> transmitters, std::size_t sender);

/// Index of the unique transmitter the listener decodes, or nullopt — the
/// per-candidate oracle: every candidate within R_T (others cannot pass the
/// range gate) re-sums the interference of all other transmitters. With
/// β ≥ 1 at most one transmitter can satisfy the SINR condition at a given
/// listener; this invariant is asserted.
std::optional<std::size_t> resolve_reception(
    const SinrParams& params, const geometry::Point& at,
    std::span<const Transmitter> transmitters);

}  // namespace sinrcolor::sinr
