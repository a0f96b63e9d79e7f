#include "sinr/reception.h"

#include "common/check.h"

namespace sinrcolor::sinr {

bool decodes(const SinrParams& params, const geometry::Point& at,
             std::span<const Transmitter> transmitters, std::size_t sender) {
  SINRCOLOR_CHECK(sender < transmitters.size());
  const geometry::Point& from = transmitters[sender].position;
  if (!geometry::within(at, from, params.r_t())) return false;
  const double d_sq = geometry::distance_sq(at, from);
  SINRCOLOR_CHECK_MSG(d_sq > 0.0, "sender coincides with receiver");
  // The medium's product form s ≥ β·(N + I), so a boundary link decides the
  // same way here and in radio::SinrInterferenceModel.
  const double signal = params.power / pow_alpha_from_sq(d_sq, params.alpha);
  const double interference = interference_at(params, at, transmitters, sender);
  return signal >= params.beta * (params.noise + interference);
}

std::optional<std::size_t> resolve_reception(
    const SinrParams& params, const geometry::Point& at,
    std::span<const Transmitter> transmitters) {
  std::optional<std::size_t> winner;
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    if (!decodes(params, at, transmitters, i)) continue;
    SINRCOLOR_CHECK_MSG(!winner.has_value(),
                        "two senders decodable at one listener with beta>=1");
    winner = i;
  }
  return winner;
}

}  // namespace sinrcolor::sinr
