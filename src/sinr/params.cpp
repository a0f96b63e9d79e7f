#include "sinr/params.h"

#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "sinr/medium_field.h"

namespace sinrcolor::sinr {

std::string SinrParams::violation() const {
  // Written so that NaN fails every rule.
  struct Rule {
    bool holds;
    const char* text;
    double value;
  };
  const Rule rules[] = {
      {power > 0.0, "transmit power P must be positive", power},
      {noise > 0.0, "ambient noise N must be positive", noise},
      {alpha > 2.0, "path-loss exponent alpha must exceed 2", alpha},
      {beta >= 1.0, "SINR threshold beta must be at least 1", beta},
      {rho > 1.0, "Markov constant rho must exceed 1", rho},
  };
  for (const Rule& rule : rules) {
    if (rule.holds) continue;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s, got %g", rule.text, rule.value);
    return buf;
  }
  return {};
}

void SinrParams::validate() const {
  const std::string problem = violation();
  SINRCOLOR_CHECK_MSG(problem.empty(), problem.c_str());
}

SinrParams SinrParams::with_r_t(double r_t) const {
  SinrParams solved = *this;
  solved.noise = power / (2.0 * beta * std::pow(r_t, alpha));
  return solved;
}

double SinrParams::r_max() const {
  return std::pow(power / (noise * beta), 1.0 / alpha);
}

double SinrParams::r_t() const {
  return std::pow(power / (2.0 * noise * beta), 1.0 / alpha);
}

double SinrParams::r_i() const {
  const double base = 96.0 * rho * beta * (alpha - 1.0) / (alpha - 2.0);
  return 2.0 * r_t() * std::pow(base, 1.0 / (alpha - 2.0));
}

double SinrParams::lemma3_interference_bound() const {
  return power / (2.0 * rho * beta * std::pow(r_t(), alpha));
}

double SinrParams::mac_distance_d() const {
  return std::pow(32.0 * (alpha - 1.0) / (alpha - 2.0) * beta, 1.0 / alpha);
}

SinrParams SinrParams::with_range_scaled(double s) const {
  SINRCOLOR_CHECK(s > 0.0);
  SinrParams scaled = *this;
  scaled.power = power * std::pow(s, alpha);
  return scaled;
}

std::string SinrParams::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "SinrParams{P=%g, N=%g, alpha=%g, beta=%g, rho=%g, R_T=%.4g, "
                "R_I=%.4g, d=%.4g}",
                power, noise, alpha, beta, rho, r_t(), r_i(), mac_distance_d());
  return buf;
}

double received_power(const SinrParams& p, double dist) {
  SINRCOLOR_CHECK(dist > 0.0);
  // δ^α via the shared fast path (δ² route), matching the per-term
  // arithmetic of every resolve kernel on the specialized α ∈ {3,4,6}.
  return p.power / pow_alpha_from_sq(dist * dist, p.alpha);
}

}  // namespace sinrcolor::sinr
