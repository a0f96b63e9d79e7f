#include "sinr/reception.h"

#include "common/check.h"

namespace sinrcolor::sinr {

bool decodes(const SinrParams& params, const geometry::Point& at,
             std::span<const Transmitter> transmitters, std::size_t sender) {
  SINRCOLOR_CHECK(sender < transmitters.size());
  if (!geometry::within(at, transmitters[sender].position, params.r_t())) {
    return false;
  }
  return sinr_at(params, at, transmitters, sender) >= params.beta;
}

std::optional<std::size_t> resolve_reception(
    const SinrParams& params, const geometry::Point& at,
    std::span<const Transmitter> transmitters) {
  std::optional<std::size_t> winner;
  const double r_t = params.r_t();
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    if (!geometry::within(at, transmitters[i].position, r_t)) continue;
    if (sinr_at(params, at, transmitters, i) >= params.beta) {
      SINRCOLOR_CHECK_MSG(!winner.has_value(),
                          "two senders decodable at one listener with beta>=1");
      winner = i;
    }
  }
  return winner;
}

}  // namespace sinrcolor::sinr
