#include "radio/interference_model.h"

#include <cmath>

#include "common/check.h"
#include "sinr/medium_field.h"

namespace sinrcolor::radio {

namespace {

/// The per-link power gain g(u, j) at listener u in one slot: the one
/// expression every resolve path applies per term. A real transmitter's gain
/// is its (seed, slot, link)-keyed fade, exactly 1 without fading; an
/// injected jammer's is its power over the medium's base power (P·g = jammer
/// power). Jammers carry no node id to key a fade draw, so they ride unfaded
/// (docs/ROBUSTNESS.md).
struct LinkGain {
  const sinr::FadingSpec* fading;
  Slot slot;
  graph::NodeId listener;
  std::span<const TxRecord> transmissions;
  std::span<const Jammer> jammers;
  double base_power;

  double operator()(std::size_t j) const {
    if (j >= transmissions.size()) {
      return jammers[j - transmissions.size()].power / base_power;
    }
    if (!fading->enabled()) return 1.0;
    return sinr::fade_factor(*fading, slot, listener, transmissions[j].sender);
  }
};

/// The naive oracle: for every (real transmitter i, listening UDG neighbor u)
/// pair — only neighbors can pass the δ ≤ R_T gate — re-sums the gained
/// power of every transmitter at u, jammers included, and applies the decode
/// test s ≥ β·(N + I) the field engine applies. O(T²·Δ) per slot; decodes
/// land in sender-major order.
template <typename GainFor>
void naive_decodes(const graph::UnitDiskGraph& graph,
                   const sinr::SinrParams& phys,
                   std::span<const sinr::Transmitter> txs,
                   std::span<const TxRecord> transmissions,
                   std::span<const std::uint8_t> listening,
                   const GainFor& gain_for,
                   std::vector<sinr::FieldEngine::Decode>& decodes) {
  decodes.clear();
  for (std::size_t i = 0; i < transmissions.size(); ++i) {
    for (graph::NodeId u : graph.neighbors(transmissions[i].sender)) {
      if (!listening[u]) continue;
      const auto gain = gain_for(u);
      double signal = 0.0;
      double interference = 0.0;
      for (std::size_t j = 0; j < txs.size(); ++j) {
        const double d_sq =
            geometry::distance_sq(graph.position(u), txs[j].position);
        SINRCOLOR_CHECK_MSG(d_sq > 0.0, "transmitter coincides with listener");
        const double power =
            phys.power * gain(j) / sinr::pow_alpha_from_sq(d_sq, phys.alpha);
        (j == i ? signal : interference) += power;
      }
      const double threshold = phys.beta * (phys.noise + interference);
      if (signal >= threshold) {
        decodes.push_back(
            {u, static_cast<std::uint32_t>(i), signal / threshold});
      }
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
  check_radius_matches_phys(graph_, params_);
  // n·(Δ+1) bounds the engine's candidate-pair arena: each transmitter
  // covers at most its UDG neighborhood (δ ≤ R_T ⇔ adjacency). The naive
  // path never touches the engine.
  if (kind_ != sinr::ResolveKind::kNaive) {
    engine_.reserve(graph_.size(), graph_.size() * (graph_.max_degree() + 1));
  }
  decodes_.reserve(graph_.size());
  txs_.reserve(graph_.size());
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

  // Real transmitters first, then any jammers; a disturbance also scales the
  // noise floor.
  txs_.clear();
  for (const auto& t : transmissions) {
    txs_.push_back({graph_.position(t.sender)});
  }
  sinr::SinrParams phys = params_;
  std::span<const Jammer> jammers;
  if (disturbance_ != nullptr) {
    phys.noise *= disturbance_->noise_factor;
    jammers = disturbance_->jammers;
    for (const Jammer& jam : jammers) txs_.push_back({jam.position});
  }
  // Engine coverage: a node transmitter's δ ≤ R_T listeners are exactly its
  // UDG neighbors (check_radius_matches_phys pins radius == R_T); injected
  // jammers carry no node id and fall back to the grid query.
  const auto coverage_for =
      [&](std::size_t j) -> std::optional<std::span<const graph::NodeId>> {
    if (j < transmissions.size()) {
      return graph_.neighbors(transmissions[j].sender);
    }
    return std::nullopt;
  };
  const auto decode_with = [&](const auto& gain_for,
                               bool gain_listener_invariant) {
    if (kind_ == sinr::ResolveKind::kNaive) {
      SINRCOLOR_PROFILE(profiler_, obs::Phase::kNaiveResolve);
      naive_decodes(graph_, phys, txs_, transmissions, listening, gain_for,
                    decodes_);
    } else {
      engine_.resolve_slot(phys, txs_, graph_.index(),
                           graph_.deployment().points, listening,
                           graph_.radius(), gain_for, gain_listener_invariant,
                           coverage_for, kind_, decodes_);
    }
  };
  if (!fading_.enabled() && jammers.empty()) {
    // The paper's channel keeps a compile-time unit gain, so every path's
    // per-term arithmetic is exactly P/δ^α.
    decode_with([](graph::NodeId /*listener*/) { return sinr::UnitGain{}; },
                /*gain_listener_invariant=*/true);
  } else {
    // Fades differ per listener; jammer gains alone do not.
    decode_with(
        [&](graph::NodeId listener) {
          return LinkGain{&fading_,      slot,    listener,
                          transmissions, jammers, params_.power};
        },
        /*gain_listener_invariant=*/!fading_.enabled());
  }
  for (const auto& d : decodes_) {
    // A "decodable" jammer carries no message — the listener hears only
    // noise (and the jammer's field already drowned every real sender).
    if (d.tx >= transmissions.size()) continue;
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
