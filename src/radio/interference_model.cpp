#include "radio/interference_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "sinr/medium_field.h"

namespace sinrcolor::radio {

namespace {

using Row = SinrInterferenceModel::Row;

/// One pass of the row kernel: adds a transmitter's received power at every
/// listener of the row into `acc`, acc[k] += w / δ(listener k, tx)^α, with
/// w = `weight`, or `weight`·g[k] with the row's fades g when kFaded. Each
/// acc[k] gains exactly the term the per-pair loop adds for its listener,
/// with the same expression (`distance_sq(listener, tx)`, then δ^α through
/// the profile's pow_alpha_from_sq twin). kBracketed is the pre-filter's
/// pass: the gain column holds lower fades, and `acc_hi` also gains the
/// term for the upper fades (gain_hi), with the same expression and δ^α,
/// so each exact term lies between the two; an unfaded term (a jammer's)
/// goes into both. The body is branch-free, so the loop vectorizes across
/// the row. Returns the pass's smallest δ²: a zero is a transmitter
/// sitting on a listener.
template <sinr::AlphaProfile P, bool kFaded, bool kBracketed = false>
double add_row_pass(const Row& row, std::size_t count,
                    const geometry::Point& tx, double weight,
                    double half_alpha, double* acc,
                    double* acc_hi = nullptr) {
  const double* x = row.x.data();
  const double* y = row.y.data();
  const double* gain = row.gain.data();
  const double* gain_hi = row.gain_hi.data();
  double nearest = std::numeric_limits<double>::infinity();
#pragma omp simd reduction(min : nearest)
  for (std::size_t k = 0; k < count; ++k) {
    const double dx = x[k] - tx.x;
    const double dy = y[k] - tx.y;
    const double d_sq = dx * dx + dy * dy;
    nearest = std::min(nearest, d_sq);
    const double path = sinr::pow_alpha_profiled<P>(d_sq, half_alpha);
    acc[k] += (kFaded ? weight * gain[k] : weight) / path;
    if constexpr (kBracketed) {
      acc_hi[k] += (kFaded ? weight * gain_hi[k] : weight) / path;
    }
  }
  return nearest;
}

/// The decode threshold β·(N + I) of one listener, the one expression the
/// early rejection, the decode test and the margin share.
double threshold_of(const sinr::SinrParams& phys, double interference) {
  return phys.beta * (phys.noise + interference);
}

/// Drops the row's listeners whose signal already fails the decode test
/// against their partial interference sum, keeping the rest in order;
/// returns the new row length. Exact: the remaining terms are non-negative,
/// a floating-point sum of non-negative terms never decreases, and
/// fl(β·(N + x)) is monotone in x, so a listener dropped here fails the
/// final test too. kBracketed tests the pre-filter's upper signal against
/// its lower partial sum instead (a certified fail, since the exact values
/// lie between the bounds) and keeps the upper columns in step.
template <bool kBracketed>
std::size_t keep_decodable(Row& row, std::size_t count,
                           const sinr::SinrParams& phys) {
  const double* signal =
      kBracketed ? row.signal_hi.data() : row.signal.data();
  const auto passes = [&](std::size_t k) {
    return signal[k] >= threshold_of(phys, row.interference[k]);
  };
  // Most passes drop nobody: scan before moving anything.
  std::size_t kept = 0;
  while (kept < count && passes(kept)) ++kept;
  for (std::size_t k = kept; k < count; ++k) {
    if (!passes(k)) continue;
    row.id[kept] = row.id[k];
    row.x[kept] = row.x[k];
    row.y[kept] = row.y[k];
    row.signal[kept] = row.signal[k];
    row.interference[kept] = row.interference[k];
    if constexpr (kBracketed) {
      row.signal_hi[kept] = row.signal_hi[k];
      row.interference_hi[kept] = row.interference_hi[k];
    }
    ++kept;
  }
  return kept;
}

/// The naive kernel, one row per real transmitter i: its listening UDG
/// neighbours u (only they can pass the δ ≤ R_T gate) gather in ascending
/// id order, a signal pass adds transmitter i's power, then one
/// interference pass per transmitter j ≠ i, ascending, jammers last, adds
/// the rest. Every (i, u) pair therefore sums the same terms in the same
/// order, from 0.0, as the per-pair loop, and the s ≥ β·(N + I) test the
/// field engine applies decides it. O(T²·Δ) terms per slot; decodes land in
/// sender-major order, ascending listener within a row. Under fading each
/// real pass draws the row's fades in one batch, and a listener leaves the
/// row as soon as its signal fails the test against its partial sum
/// (keep_decodable).
///
/// `bracketed` (log-normal fading, no margin histogram) puts a pre-filter
/// ahead of those exact passes. It runs the same passes with certified fade
/// brackets (sinr::fade_brackets), summing lower and upper bounds of every
/// term; fl(a + b), fl(a·b) and fl(a/b) for b > 0 are monotone in each
/// argument, so the bounds hold the exact sums between them. A listener
/// whose upper signal fails against its lower partial sum leaves the row (a
/// certified fail); after the last pass, one whose lower signal clears β·(N
/// + upper interference) decodes (a certified decode). Only the rest, 0.25%
/// of fading_sync's row listeners, run the exact passes, and every
/// decision is the exact kernel's, bit for bit (docs/KERNELS.md "Bracketed
/// fades").
template <sinr::AlphaProfile P>
void naive_decodes(const graph::UnitDiskGraph& graph,
                   const sinr::SinrParams& phys, double base_power,
                   const sinr::FadingSpec& fading, bool bracketed, Slot slot,
                   std::span<const TxRecord> transmissions,
                   std::span<const Jammer> jammers,
                   std::span<const std::uint8_t> listening, Row& row,
                   std::vector<sinr::FieldEngine::Decode>& decodes) {
  decodes.clear();
  const double half_alpha = phys.alpha / 2.0;
  const bool faded = fading.enabled();
  const std::size_t passes = transmissions.size() + jammers.size();
  for (std::size_t i = 0; i < transmissions.size(); ++i) {
    std::size_t count = 0;
    for (graph::NodeId u : graph.neighbors(transmissions[i].sender)) {
      if (!listening[u]) continue;
      row.id[count] = u;
      row.x[count] = graph.position(u).x;
      row.y[count] = graph.position(u).y;
      ++count;
    }
    if (count == 0) continue;
    const auto tx = static_cast<std::uint32_t>(i);
    const std::span<const std::uint32_t> ids(row.id.data(), count);
    // The row's passes in the per-pair loop's order: transmitter i's signal
    // pass, then every j ≠ i ascending, jammers last, while any listener
    // is left. pass(j, signal) runs one of them.
    const auto run_passes = [&](const auto& pass) {
      pass(i, true);
      for (std::size_t j = 0; j < passes && count > 0; ++j) {
        if (j != i) pass(j, false);
      }
    };
    // A real transmitter's gain is its fade, drawn for the whole row in
    // one batch, and exactly 1 without fading (P·1 = P). A jammer's gain
    // is its power over the medium's base power (P·g = jammer power); it
    // rides unfaded, having no node id to key a draw
    // (docs/ROBUSTNESS.md). Every pass checks that no transmitter sits on
    // a listener, as the per-pair loop checks every term. A listener that
    // left its row early skips that check for its remaining terms. A real
    // transmitter on a listening node still aborts, since that node is in
    // its own row, whose first pass is its signal pass, and jammers are
    // kept off node positions before any run (FaultPlan::validate,
    // FaultEngine::install).
    const auto check_nearest = [](double nearest) {
      SINRCOLOR_CHECK_MSG(nearest > 0.0, "transmitter coincides with listener");
    };
    const auto jammer_weight = [&](const Jammer& jam) {
      return phys.power * (jam.power / base_power);
    };
    const std::size_t row_decodes = decodes.size();
    if (bracketed) {
      for (auto* column : {&row.signal, &row.interference, &row.signal_hi,
                           &row.interference_hi}) {
        std::fill_n(column->data(), count, 0.0);
      }
      run_passes([&](std::size_t j, bool signal) {
        double* lo = signal ? row.signal.data() : row.interference.data();
        double* hi =
            signal ? row.signal_hi.data() : row.interference_hi.data();
        if (j >= transmissions.size()) {
          const Jammer& jam = jammers[j - transmissions.size()];
          check_nearest(add_row_pass<P, false, true>(
              row, count, jam.position, jammer_weight(jam), half_alpha, lo,
              hi));
        } else {
          const graph::NodeId sender = transmissions[j].sender;
          sinr::fade_brackets(fading, slot, sender, ids.first(count),
                              row.gain.data(), row.gain_hi.data());
          check_nearest(add_row_pass<P, true, true>(
              row, count, graph.position(sender), phys.power, half_alpha, lo,
              hi));
        }
        count = keep_decodable<true>(row, count, phys);
      });
      // Certified decodes go out now, in row order; the undecided rest
      // moves to the front of the row for the exact passes.
      std::size_t undecided = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const double threshold = threshold_of(phys, row.interference_hi[k]);
        if (row.signal[k] >= threshold) {
          decodes.push_back({row.id[k], tx, row.signal[k] / threshold});
          continue;
        }
        row.id[undecided] = row.id[k];
        row.x[undecided] = row.x[k];
        row.y[undecided] = row.y[k];
        ++undecided;
      }
      count = undecided;
      if (count == 0) continue;
    }
    const std::size_t exact_decodes = decodes.size();
    std::fill_n(row.signal.data(), count, 0.0);
    std::fill_n(row.interference.data(), count, 0.0);
    run_passes([&](std::size_t j, bool signal) {
      double* acc = signal ? row.signal.data() : row.interference.data();
      if (j >= transmissions.size()) {
        const Jammer& jam = jammers[j - transmissions.size()];
        check_nearest(add_row_pass<P, false>(row, count, jam.position,
                                             jammer_weight(jam), half_alpha,
                                             acc));
      } else if (!faded) {
        check_nearest(add_row_pass<P, false>(
            row, count, graph.position(transmissions[j].sender), phys.power,
            half_alpha, acc));
      } else {
        const graph::NodeId sender = transmissions[j].sender;
        sinr::fade_factors(fading, slot, sender, ids.first(count),
                           row.gain.data());
        check_nearest(add_row_pass<P, true>(row, count, graph.position(sender),
                                            phys.power, half_alpha, acc));
      }
      if (faded) count = keep_decodable<false>(row, count, phys);
    });
    for (std::size_t k = 0; k < count; ++k) {
      const double threshold = threshold_of(phys, row.interference[k]);
      if (row.signal[k] >= threshold) {
        decodes.push_back({row.id[k], tx, row.signal[k] / threshold});
      }
    }
    // The row's certified and exact decodes are each in ascending listener
    // order; merge them (the exact ones are few) so the row's decodes are
    // too, as without the pre-filter.
    if (exact_decodes > row_decodes && decodes.size() > exact_decodes) {
      std::sort(decodes.begin() + static_cast<std::ptrdiff_t>(row_decodes),
                decodes.end(), [](const auto& a, const auto& b) {
                  return a.listener < b.listener;
                });
    }
  }
}

}  // namespace

void check_radius_matches_phys(const graph::UnitDiskGraph& graph,
                               const sinr::SinrParams& params) {
  const double mismatch = std::abs(graph.radius() - params.r_t());
  SINRCOLOR_CHECK_MSG(mismatch <= 1e-9 * params.r_t(),
                      "UDG radius must equal the physical-layer R_T");
}

SinrInterferenceModel::SinrInterferenceModel(const graph::UnitDiskGraph& graph,
                                             sinr::SinrParams params,
                                             sinr::FadingSpec fading,
                                             sinr::ResolveKind kind)
    : graph_(graph), params_(params), fading_(fading), kind_(kind) {
  params_.validate();
  const std::string fading_problem = fading_.violation();
  SINRCOLOR_CHECK_MSG(fading_problem.empty(), fading_problem.c_str());
  check_radius_matches_phys(graph_, params_);
  if (kind_ == sinr::ResolveKind::kNaive) {
    // A row holds one transmitter's listening neighbours: at most Δ.
    row_.resize(graph_.max_degree(),
                fading_.kind == sinr::FadingKind::kLogNormal);
  } else {
    // n·(Δ+1) bounds the engine's candidate-pair arena: each transmitter
    // covers at most its UDG neighborhood (δ ≤ R_T ⇔ adjacency).
    engine_.reserve(graph_.size(), graph_.size() * (graph_.max_degree() + 1));
    txs_.reserve(graph_.size());
    if (fading_.enabled()) tx_ids_.reserve(graph_.size());
  }
  decodes_.reserve(graph_.size());
}

void SinrInterferenceModel::Row::resize(std::size_t capacity,
                                        bool bracketed) {
  for (auto* column : {&x, &y, &signal, &interference, &gain}) {
    column->resize(capacity);
  }
  if (bracketed) {
    for (auto* column : {&signal_hi, &interference_hi, &gain_hi}) {
      column->resize(capacity);
    }
  }
  id.resize(capacity);
}

std::size_t SinrInterferenceModel::Row::memory_bytes() const {
  std::size_t doubles = 0;
  for (const auto* column : {&x, &y, &signal, &interference, &gain,
                             &signal_hi, &interference_hi, &gain_hi}) {
    doubles += column->capacity();
  }
  return id.capacity() * sizeof(std::uint32_t) + doubles * sizeof(double);
}

void InterferenceModel::resolve(
    Slot slot, const std::vector<TxRecord>& transmissions,
    const std::vector<bool>& listening,
    std::vector<std::optional<Message>>& deliveries) const {
  SINRCOLOR_DCHECK(deliveries.size() == listening.size());
  if (dense_listening_.size() != listening.size()) {
    // A listener receives at most once, so n bounds the reception list.
    dense_listening_.resize(listening.size());
    dense_receptions_.reserve(listening.size());
  }
  for (std::size_t v = 0; v < listening.size(); ++v) {
    dense_listening_[v] = static_cast<std::uint8_t>(listening[v]);
  }
  resolve(slot, transmissions, dense_listening_, dense_receptions_);
  for (const Reception& r : dense_receptions_) {
    SINRCOLOR_CHECK_MSG(!deliveries[r.listener].has_value(),
                        "beta >= 1 forbids two decodable senders");
    deliveries[r.listener] = transmissions[r.tx].message;
  }
}

void SinrInterferenceModel::resolve(Slot slot,
                                    std::span<const TxRecord> transmissions,
                                    std::span<const std::uint8_t> listening,
                                    std::vector<Reception>& receptions) const {
  SINRCOLOR_DCHECK(listening.size() == graph_.size());
  receptions.clear();
  if (transmissions.empty()) return;

  // A disturbance scales the noise floor and adds its jammers after the
  // real transmitters.
  sinr::SinrParams phys = params_;
  std::span<const Jammer> jammers;
  if (disturbance_ != nullptr) {
    phys.noise *= disturbance_->noise_factor;
    jammers = disturbance_->jammers;
  }
  if (kind_ == sinr::ResolveKind::kNaive) {
    SINRCOLOR_PROFILE(profiler_, obs::Phase::kNaiveResolve);
    // Margins of bracket-certified decodes are bounds, so an attached
    // histogram runs the exact passes alone.
    const bool bracketed = fading_.kind == sinr::FadingKind::kLogNormal &&
                           margin_histogram_ == nullptr;
    // One instantiation per α profile, picked once per resolve (the
    // engine's field_kernel_for idiom).
    using sinr::AlphaProfile;
    static constexpr decltype(&naive_decodes<AlphaProfile::kCube>) kKernels[] =
        {&naive_decodes<AlphaProfile::kCube>,
         &naive_decodes<AlphaProfile::kQuartic>,
         &naive_decodes<AlphaProfile::kSextic>,
         &naive_decodes<AlphaProfile::kGeneral>};
    kKernels[static_cast<std::size_t>(sinr::classify_alpha(phys.alpha))](
        graph_, phys, params_.power, fading_, bracketed, slot, transmissions,
        jammers, listening, row_, decodes_);
  } else {
    txs_.clear();
    for (const auto& t : transmissions) {
      txs_.push_back({graph_.position(t.sender)});
    }
    for (const Jammer& jam : jammers) txs_.push_back({jam.position});
    if (fading_.enabled()) {
      tx_ids_.clear();
      for (const auto& t : transmissions) tx_ids_.push_back(t.sender);
    }
    // Engine coverage: a sender's δ ≤ R_T listeners are exactly its UDG
    // neighbors (check_radius_matches_phys pins radius == R_T). Jammers are
    // never decode candidates; they reach F(u) through txs_ alone.
    const auto coverage_for = [&](std::size_t j) {
      return graph_.neighbors(transmissions[j].sender);
    };
    // Listener u's weights P·g(u, j): a real transmitter's gain is its
    // fade, drawn in one batch, and exactly 1 without fading; a jammer's is
    // its power over the medium's base power (P·g = jammer power), unfaded
    // as in the row kernel.
    const auto fill_weights = [&](graph::NodeId listener, double* w) {
      if (fading_.enabled()) {
        sinr::fade_factors(fading_, slot, listener, tx_ids_, w);
        for (std::size_t j = 0; j < transmissions.size(); ++j) {
          w[j] = phys.power * w[j];
        }
      } else {
        std::fill_n(w, transmissions.size(), phys.power);
      }
      for (std::size_t m = 0; m < jammers.size(); ++m) {
        w[transmissions.size() + m] =
            phys.power * (jammers[m].power / params_.power);
      }
    };
    // Fades differ per listener; jammer gains alone do not.
    engine_.resolve_slot(phys, txs_, transmissions.size(),
                         graph_.deployment().points, listening, fill_weights,
                         /*weights_listener_invariant=*/!fading_.enabled(),
                         coverage_for, kind_, decodes_);
  }
  for (const auto& d : decodes_) {
    // Both kernels decode real senders only: the naive rows and the
    // engine's coverage come from the senders' UDG neighborhoods.
    SINRCOLOR_DCHECK(d.tx < transmissions.size());
    receptions.push_back({d.listener, d.tx});
    if (margin_histogram_ != nullptr) {
      margin_histogram_->record(d.margin);
    }
  }
}

void GraphInterferenceModel::resolve(Slot /*slot*/,
                                     std::span<const TxRecord> transmissions,
                                     std::span<const std::uint8_t> listening,
                                     std::vector<Reception>& receptions) const {
  SINRCOLOR_DCHECK(listening.size() == graph_.size());
  receptions.clear();

  // A listener decodes iff exactly one neighbor transmits. candidate_tx_
  // needs no reset: it is read only where covering_[u] == 1, i.e. where it
  // was written this slot.
  for (std::uint32_t i = 0; i < transmissions.size(); ++i) {
    for (graph::NodeId u : graph_.neighbors(transmissions[i].sender)) {
      if (covering_[u] < 2) ++covering_[u];
      candidate_tx_[u] = i;
    }
  }
  // Injected jammers have no SINR arithmetic under this medium: a listener
  // within a jammer's blocking radius (plan radius, or R_T when unset)
  // simply decodes nothing this slot.
  const std::span<const Jammer> jammers =
      disturbance_ != nullptr ? disturbance_->jammers
                              : std::span<const Jammer>{};
  const auto jammed = [&](graph::NodeId u) {
    for (const Jammer& jam : jammers) {
      const double r = jam.radius > 0.0 ? jam.radius : graph_.radius();
      if (geometry::distance_sq(graph_.position(u), jam.position) <= r * r) {
        return true;
      }
    }
    return false;
  };
  // Every covered listener is revisited once per covering transmitter, and
  // the first visit zeroes its count: a singly covered listener is decided
  // on its only visit, later visits of a multiply covered one see 0, and
  // covering_ ends the slot all zero without an O(n) clear.
  for (const auto& t : transmissions) {
    for (graph::NodeId u : graph_.neighbors(t.sender)) {
      if (covering_[u] == 1 && listening[u] != 0 &&
          (jammers.empty() || !jammed(u))) {
        receptions.push_back({u, candidate_tx_[u]});
      }
      covering_[u] = 0;
    }
  }
}

}  // namespace sinrcolor::radio
