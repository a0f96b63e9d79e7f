#include "core/recovery_types.h"

#include <cstdio>

namespace sinrcolor::core {

std::string RecoveryOptions::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "RecoveryOptions{enabled=%s, max_failovers=%zu, "
                "join_frac=%.3g, join_at=%lld, join_window=%lld, "
                "retransmit=%lld, degrade=%s, settle=%lld}",
                enabled ? "yes" : "no", max_failovers,
                join_fraction, static_cast<long long>(join_at),
                static_cast<long long>(join_window),
                static_cast<long long>(retransmit.initial_wait),
                degrade_to_provisional ? "yes" : "no",
                static_cast<long long>(settle_slots));
  return buf;
}

std::string RecoveryStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "failovers=%zu recovered=%zu joined=%zu conflicts_repaired=%zu "
                "late_repairs=%zu join_fallbacks=%zu degraded=%zu "
                "failover_latency=%.1f/%lld",
                failovers, recovered_nodes, joined_nodes,
                join_conflicts_repaired, late_conflicts_repaired,
                join_fallbacks, degraded_nodes, mean_failover_latency,
                static_cast<long long>(max_failover_latency));
  return buf;
}

}  // namespace sinrcolor::core
