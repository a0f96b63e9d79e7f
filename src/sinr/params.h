// SINR physical-model parameters and the paper's derived radii/constants.
//
// Reception rule (paper, Section II): receiver u decodes sender v iff
//
//        P / δ(u,v)^α
//   ───────────────────────────────── ≥ β ,
//   N + Σ_{w transmitting, w≠v} P / δ(u,w)^α
//
// with path-loss exponent α > 2, threshold β ≥ 1, ambient noise N > 0 and a
// uniform transmit power P. The paper additionally requires δ(u,v) ≤ R_T,
// with R_T = (P / 2Nβ)^{1/α} < R_max = (P / Nβ)^{1/α}.
#pragma once

#include <string>

namespace sinrcolor::sinr {

struct SinrParams {
  double power = 1.0;     ///< P — uniform transmit power.
  double noise = 1e-6;    ///< N — ambient noise (> 0).
  double alpha = 4.0;     ///< α — path-loss exponent (> 2).
  double beta = 1.5;      ///< β — decoding threshold (≥ 1).
  double rho = 1.5;       ///< ρ — Markov slack constant (> 1), Lemma 3.

  /// The model constraints above as one rule list: returns the first
  /// violated rule as a one-line diagnostic ("path-loss exponent alpha must
  /// exceed 2, got 1"), or an empty string when every rule holds. Front ends
  /// print it and exit 2; validate() is the in-library contract.
  std::string violation() const;

  /// CHECKs violation() is empty; aborts on violation.
  void validate() const;

  /// A copy whose noise floor is solved so that R_T equals `r_t`:
  /// N = P / (2·β·r_t^α), the inverse of r_t(). α, β and P are kept.
  SinrParams with_r_t(double r_t) const;

  /// R_max = (P / (N·β))^{1/α}: maximum decoding distance without competition.
  double r_max() const;

  /// R_T = (P / (2·N·β))^{1/α}: the paper's transmission range.
  double r_t() const;

  /// R_I = 2·R_T·(96·ρ·β·(α-1)/(α-2))^{1/(α-2)}: the interference-disk radius
  /// of Lemma 3. Satisfies R_I ≥ 2·R_T for any admissible ρ, β, α.
  double r_i() const;

  /// Lemma 3's bound on the probabilistic far interference: P / (2·ρ·β·R_T^α).
  double lemma3_interference_bound() const;

  /// Theorem 3's MAC constant d = (32·(α-1)/(α-2)·β)^{1/α}; a (d+1, V)-coloring
  /// schedules an interference-free TDMA frame of length V.
  double mac_distance_d() const;

  /// Scale transmit power by s^α so that the effective range becomes s·R_T
  /// (Section V's construction for coloring G^d).
  SinrParams with_range_scaled(double s) const;

  std::string to_string() const;
};

/// Received signal strength P/δ^α for one link of length `dist`.
double received_power(const SinrParams& p, double dist);

}  // namespace sinrcolor::sinr
