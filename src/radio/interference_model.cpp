#include "radio/interference_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

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
template <sinr::AlphaProfile P, bool kFaded, bool kBracketed>
double add_row_pass(const Row& row, std::size_t count,
                    const geometry::Point& tx, double weight,
                    double half_alpha, double* acc, double* acc_hi) {
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
  const std::size_t n = graph_.size();
  if (kind_ == sinr::ResolveKind::kNaive) {
    // A row holds one transmitter's listening neighbours: at most Δ.
    row_.resize(graph_.max_degree(),
                fading_.kind == sinr::FadingKind::kLogNormal);
    return;
  }
  touched_.resize(n, 0);
  covered_.reserve(n);
  // n·(Δ+1) bounds the coverage pairs: each transmitter covers at most its
  // UDG neighborhood (δ ≤ R_T ⇔ adjacency).
  pairs_.reserve(n * (graph_.max_degree() + 1));
  cand_begin_.resize(n, 0);
  cand_count_.resize(n, 0);
  cand_idx_.reserve(pairs_.capacity());
  soa_x_.reserve(n);
  soa_y_.reserve(n);
  weights_.reserve(n);
  if (fading_.enabled()) tx_ids_.reserve(n);
}

std::size_t SinrInterferenceModel::memory_bytes() const {
  return sizeof(*this) + row_.memory_bytes() +
         touched_.capacity() * sizeof(std::uint64_t) +
         pairs_.capacity() * sizeof(CandidatePair) +
         (soa_x_.capacity() + soa_y_.capacity() + weights_.capacity()) *
             sizeof(double) +
         (covered_.capacity() + cand_begin_.capacity() +
          cand_count_.capacity() + cand_idx_.capacity() +
          tx_ids_.capacity()) *
             sizeof(std::uint32_t);
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
  SlotInputs in{slot, transmissions, {}, listening, params_};
  if (disturbance_ != nullptr) {
    in.phys.noise *= disturbance_->noise_factor;
    in.jammers = disturbance_->jammers;
  }
  sinr::with_alpha_profile(sinr::classify_alpha(params_.alpha), [&](auto p) {
    constexpr sinr::AlphaProfile P = decltype(p)::value;
    if (kind_ == sinr::ResolveKind::kNaive) {
      SINRCOLOR_PROFILE(profiler_, obs::Phase::kNaiveResolve);
      naive_resolve<P>(in, receptions);
    } else {
      field_resolve<P>(in, receptions);
    }
  });
}

void SinrInterferenceModel::push_decode(std::vector<Reception>& receptions,
                                        graph::NodeId listener,
                                        std::uint32_t tx,
                                        double margin) const {
  receptions.push_back({listener, tx});
  if (margin_histogram_ != nullptr) margin_histogram_->record(margin);
}

/// The naive kernel, one row per real transmitter i: its listening UDG
/// neighbours u (only they can pass the δ ≤ R_T gate) gather in ascending
/// id order, and row_passes sums their signal and interference. Every
/// (i, u) pair therefore sums the same terms in the same order, from 0.0,
/// as the per-pair loop, and the s ≥ β·(N + I) test the field resolve
/// applies decides it. O(T²·Δ) terms per slot; receptions land in
/// sender-major order, ascending listener within a row.
///
/// Under log-normal fading with no margin histogram a pre-filter runs the
/// passes first with certified fade brackets (sinr::fade_brackets),
/// summing lower and upper bounds of every term; fl(a + b), fl(a·b) and
/// fl(a/b) for b > 0 are monotone in each argument, so the bounds hold the
/// exact sums between them. A listener whose upper signal fails against its
/// lower partial sum leaves the row (a certified fail); after the last pass,
/// one whose lower signal clears β·(N + upper interference) decodes (a
/// certified decode). Only the rest, 0.25% of fading_sync's row listeners,
/// run the exact passes, and every decision is the exact kernel's, bit for
/// bit (docs/KERNELS.md "Bracketed fades"). Margins of certified decodes
/// are bounds, so an attached histogram runs the exact passes alone.
template <sinr::AlphaProfile P>
void SinrInterferenceModel::naive_resolve(
    const SlotInputs& in, std::vector<Reception>& receptions) const {
  const bool bracketed = fading_.kind == sinr::FadingKind::kLogNormal &&
                         margin_histogram_ == nullptr;
  Row& row = row_;
  for (std::size_t i = 0; i < in.transmissions.size(); ++i) {
    std::size_t count = 0;
    for (graph::NodeId u : graph_.neighbors(in.transmissions[i].sender)) {
      if (!in.listening[u]) continue;
      row.id[count] = u;
      row.x[count] = graph_.position(u).x;
      row.y[count] = graph_.position(u).y;
      ++count;
    }
    if (count == 0) continue;
    const auto tx = static_cast<std::uint32_t>(i);
    const std::size_t row_begin = receptions.size();
    if (bracketed) {
      count = row_passes<P, true>(in, i, count);
      // Certified decodes go out now, in row order; the undecided rest
      // moves to the front of the row for the exact passes.
      std::size_t undecided = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const double threshold = threshold_of(in.phys, row.interference_hi[k]);
        if (row.signal[k] >= threshold) {
          push_decode(receptions, row.id[k], tx, row.signal[k] / threshold);
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
    const std::size_t exact_begin = receptions.size();
    count = row_passes<P, false>(in, i, count);
    for (std::size_t k = 0; k < count; ++k) {
      const double threshold = threshold_of(in.phys, row.interference[k]);
      if (row.signal[k] >= threshold) {
        push_decode(receptions, row.id[k], tx, row.signal[k] / threshold);
      }
    }
    // The row's certified and exact decodes are each in ascending listener
    // order; merge them (the exact ones are few) so the row's receptions
    // are too, as without the pre-filter.
    if (exact_begin > row_begin && receptions.size() > exact_begin) {
      std::sort(receptions.begin() + static_cast<std::ptrdiff_t>(row_begin),
                receptions.end(), [](const Reception& a, const Reception& b) {
                  return a.listener < b.listener;
                });
    }
  }
}

/// Row i's passes over its first `count` listeners, in the per-pair loop's
/// order: transmitter i's signal pass, then every j ≠ i ascending, jammers
/// last, while any listener is left; returns the row's new length. A real
/// transmitter's gain is its fade, drawn for the whole row in one batch
/// (kBracketed: its certified bracket), and exactly 1 without fading
/// (P·1 = P). A jammer's gain is its power over the medium's base power
/// (P·g = jammer power); it rides unfaded, having no node id to key a draw
/// (docs/ROBUSTNESS.md). Under fading a listener leaves the row as soon as
/// its signal fails the test against its partial sum (keep_decodable).
/// Every pass checks that no transmitter sits on a listener, as the
/// per-pair loop checks every term. A listener that left its row early
/// skips that check for its remaining terms. A real transmitter on a
/// listening node still aborts, since that node is in its own row, whose
/// first pass is its signal pass, and jammers are kept off node positions
/// before any run (FaultPlan::validate, FaultEngine::install).
template <sinr::AlphaProfile P, bool kBracketed>
std::size_t SinrInterferenceModel::row_passes(const SlotInputs& in,
                                              std::size_t i,
                                              std::size_t count) const {
  Row& row = row_;
  std::fill_n(row.signal.data(), count, 0.0);
  std::fill_n(row.interference.data(), count, 0.0);
  if constexpr (kBracketed) {
    std::fill_n(row.signal_hi.data(), count, 0.0);
    std::fill_n(row.interference_hi.data(), count, 0.0);
  }
  const std::size_t senders = in.transmissions.size();
  const double half_alpha = in.phys.alpha / 2.0;
  const bool faded = fading_.enabled();
  const auto pass = [&](std::size_t j, bool signal) {
    double* acc = signal ? row.signal.data() : row.interference.data();
    double* acc_hi = nullptr;
    if constexpr (kBracketed) {
      acc_hi = signal ? row.signal_hi.data() : row.interference_hi.data();
    }
    double nearest = 0.0;
    if (j >= senders) {
      const Jammer& jam = in.jammers[j - senders];
      nearest = add_row_pass<P, false, kBracketed>(
          row, count, jam.position, in.phys.power * (jam.power / params_.power),
          half_alpha, acc, acc_hi);
    } else if (!faded) {
      nearest = add_row_pass<P, false, kBracketed>(
          row, count, graph_.position(in.transmissions[j].sender),
          in.phys.power, half_alpha, acc, acc_hi);
    } else {
      const graph::NodeId sender = in.transmissions[j].sender;
      const std::span<const std::uint32_t> ids(row.id.data(), count);
      if constexpr (kBracketed) {
        sinr::fade_brackets(fading_, in.slot, sender, ids, row.gain.data(),
                            row.gain_hi.data());
      } else {
        sinr::fade_factors(fading_, in.slot, sender, ids, row.gain.data());
      }
      nearest = add_row_pass<P, true, kBracketed>(
          row, count, graph_.position(sender), in.phys.power, half_alpha, acc,
          acc_hi);
    }
    SINRCOLOR_CHECK_MSG(nearest > 0.0, "transmitter coincides with listener");
    if (faded) count = keep_decodable<kBracketed>(row, count, in.phys);
  };
  pass(i, true);
  for (std::size_t j = 0; j < senders + in.jammers.size() && count > 0; ++j) {
    if (j != i) pass(j, false);
  }
  return count;
}

/// The field resolve. Coverage comes from the real senders' UDG neighbour
/// spans (δ ≤ R_T is exactly adjacency, check_radius_matches_phys), sorted
/// into the covered-listener list and scattered into a per-listener
/// candidate CSR; the whole transmitter batch, jammers included, is staged
/// as contiguous x/y/weight arrays; each covered listener sums F(u) over
/// them, then tests its candidates, in ascending transmitter order, against
/// F − signal. A jammer adds to F(u) but is never a candidate: with β ≥ 1 a
/// listener that could "decode" a jammer decodes no real sender, and a
/// listener only a jammer reaches hears nothing, so neither needs covering.
/// Receptions come out in ascending listener order.
template <sinr::AlphaProfile P>
void SinrInterferenceModel::field_resolve(
    const SlotInputs& in, std::vector<Reception>& receptions) const {
  const std::size_t senders = in.transmissions.size();
  ++epoch_;
  covered_.clear();
  pairs_.clear();
  // Sender-outer, so each listener's pairs are tx-ascending.
  for (std::uint32_t i = 0; i < senders; ++i) {
    for (const graph::NodeId u : graph_.neighbors(in.transmissions[i].sender)) {
      if (!in.listening[u]) continue;
      pairs_.push_back({u, i});
      if (touched_[u] == epoch_) continue;
      touched_[u] = epoch_;
      covered_.push_back(u);
    }
  }
  std::sort(covered_.begin(), covered_.end());
  // Counting-sort scatter of the pairs into per-listener candidate lists;
  // it is stable, so each list stays in ascending transmitter order.
  for (const std::uint32_t u : covered_) cand_count_[u] = 0;
  for (const CandidatePair& pair : pairs_) ++cand_count_[pair.listener];
  std::uint32_t offset = 0;
  for (const std::uint32_t u : covered_) {
    cand_begin_[u] = offset;
    offset += cand_count_[u];
    cand_count_[u] = 0;
  }
  if (cand_idx_.size() < offset) cand_idx_.resize(offset);
  for (const CandidatePair& pair : pairs_) {
    cand_idx_[cand_begin_[pair.listener] + cand_count_[pair.listener]++] =
        pair.tx;
  }
  // SoA snapshot of the batch, with weights P·g folded so the accumulator
  // body is a single divide. Jammer weights (P·g = jammer power, unfaded as
  // in the row kernel) are the same for every listener, and so is every
  // weight without fading (P·1 = P); under fading each listener refills
  // its senders' weights from one fade batch.
  soa_x_.clear();
  soa_y_.clear();
  tx_ids_.clear();
  for (const TxRecord& t : in.transmissions) {
    soa_x_.push_back(graph_.position(t.sender).x);
    soa_y_.push_back(graph_.position(t.sender).y);
    if (fading_.enabled()) tx_ids_.push_back(t.sender);
  }
  for (const Jammer& jam : in.jammers) {
    soa_x_.push_back(jam.position.x);
    soa_y_.push_back(jam.position.y);
  }
  const std::size_t count = soa_x_.size();
  weights_.resize(count);
  std::fill_n(weights_.data(), senders, in.phys.power);
  for (std::size_t m = 0; m < in.jammers.size(); ++m) {
    weights_[senders + m] =
        in.phys.power * (in.jammers[m].power / params_.power);
  }
  const bool lanes = kind_ == sinr::ResolveKind::kSimd;
  const double half_alpha = in.phys.alpha / 2.0;
  const auto decode_covered = [&] {
    const double* x = soa_x_.data();
    const double* y = soa_y_.data();
    double* w = weights_.data();
    for (const std::uint32_t u : covered_) {
      if (fading_.enabled()) {
        sinr::fade_factors(fading_, in.slot, u, tx_ids_, w);
        for (std::size_t j = 0; j < senders; ++j) w[j] = in.phys.power * w[j];
      }
      const double ux = graph_.position(u).x;
      const double uy = graph_.position(u).y;
      const double field =
          lanes ? sinr::field_accumulate_lanes<P>(x, y, w, count, ux, uy,
                                                  half_alpha)
                : sinr::field_accumulate_serial<P>(x, y, w, count, ux, uy,
                                                   half_alpha);
      // Both accumulators are branch-free; a coincident transmitter shows
      // up here as δ² = 0 ⇒ p = ∞ ⇒ F = ∞/NaN.
      SINRCOLOR_CHECK_MSG(std::isfinite(field),
                          "transmitter coincides with listener");
      // Each candidate's signal is recomputed through contribution_at, the
      // same bits the accumulator folded into F. The unique candidate (if
      // any) with signal ≥ β·(N + F − signal) decodes; with β ≥ 1 at most
      // one candidate can carry more than half the received power.
      double margin = 0.0;
      std::optional<std::uint32_t> winner;
      const std::uint32_t cb = cand_begin_[u];
      for (std::uint32_t c = 0; c < cand_count_[u]; ++c) {
        const std::uint32_t j = cand_idx_[cb + c];
        const double signal =
            sinr::contribution_at<P>(x, y, w, j, ux, uy, half_alpha);
        const double threshold = threshold_of(in.phys, field - signal);
        if (signal >= threshold) {
          SINRCOLOR_CHECK_MSG(!winner.has_value(),
                              "beta >= 1 forbids two decodable senders");
          winner = j;
          margin = signal / threshold;
        }
      }
      if (winner.has_value()) push_decode(receptions, u, *winner, margin);
    }
  };
  // One kFieldAccum scope per resolve when profiling. The scope lives out
  // here, not inside decode_covered, so the unprofiled path runs the hot
  // loop with no scope object bracketing it (a live non-trivial destructor
  // around the loop measurably pessimizes its codegen).
  if (profiler_ == nullptr) {
    decode_covered();
  } else {
    SINRCOLOR_PROFILE(profiler_, obs::Phase::kFieldAccum);
    decode_covered();
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
