#include "mac/link_scheduler.h"

#include <utility>

#include "common/check.h"
#include "mac/slot_step.h"
#include "sinr/reception.h"

namespace sinrcolor::mac {
namespace {

struct SlotState {
  std::vector<std::size_t> links;            // request indices
  std::vector<sinr::Transmitter> txs;        // transmitter positions
  std::vector<graph::NodeId> tx_nodes;       // transmitter ids
  std::vector<graph::NodeId> rx_nodes;       // receiver ids
};

bool feasible_with(const graph::UnitDiskGraph& g, const sinr::SinrParams& phys,
                   const std::vector<LinkRequest>& requests,
                   const SlotState& slot, const LinkRequest& candidate) {
  // Half-duplex and role exclusivity inside a slot.
  for (graph::NodeId node : slot.tx_nodes) {
    if (node == candidate.sender || node == candidate.receiver) return false;
  }
  for (graph::NodeId node : slot.rx_nodes) {
    if (node == candidate.sender || node == candidate.receiver) return false;
  }

  std::vector<sinr::Transmitter> txs = slot.txs;
  txs.push_back({g.position(candidate.sender)});

  // The candidate link must decode...
  if (!sinr::decodes(phys, g.position(candidate.receiver), txs,
                     txs.size() - 1)) {
    return false;
  }
  // ...and must not break any already-scheduled link.
  for (std::size_t idx = 0; idx < slot.links.size(); ++idx) {
    const auto& link = requests[slot.links[idx]];
    if (!sinr::decodes(phys, g.position(link.receiver), txs, idx)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<LinkRequest> all_neighbor_links(const graph::UnitDiskGraph& g) {
  std::vector<LinkRequest> requests;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    for (graph::NodeId u : g.neighbors(v)) {
      requests.push_back({v, u});
    }
  }
  return requests;
}

LinkSchedule greedy_link_schedule(const graph::UnitDiskGraph& g,
                                  const sinr::SinrParams& phys,
                                  const std::vector<LinkRequest>& requests) {
  phys.validate();
  radio::check_radius_matches_phys(g, phys);
  for (const auto& request : requests) {
    SINRCOLOR_CHECK(request.sender < g.size());
    SINRCOLOR_CHECK(request.receiver < g.size());
    SINRCOLOR_CHECK_MSG(g.adjacent(request.sender, request.receiver),
                        "link request beyond R_T can never decode");
  }

  LinkSchedule schedule;
  schedule.slot_of.assign(requests.size(), 0);
  std::vector<SlotState> slots;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    bool placed = false;
    for (std::size_t s = 0; s < slots.size() && !placed; ++s) {
      if (feasible_with(g, phys, requests, slots[s], requests[i])) {
        slots[s].links.push_back(i);
        slots[s].txs.push_back({g.position(requests[i].sender)});
        slots[s].tx_nodes.push_back(requests[i].sender);
        slots[s].rx_nodes.push_back(requests[i].receiver);
        schedule.slot_of[i] = static_cast<std::uint32_t>(s);
        placed = true;
      }
    }
    if (!placed) {
      SlotState fresh;
      fresh.links.push_back(i);
      fresh.txs.push_back({g.position(requests[i].sender)});
      fresh.tx_nodes.push_back(requests[i].sender);
      fresh.rx_nodes.push_back(requests[i].receiver);
      schedule.slot_of[i] = static_cast<std::uint32_t>(slots.size());
      slots.push_back(std::move(fresh));
    }
  }
  schedule.slots = static_cast<std::uint32_t>(slots.size());
  return schedule;
}

std::size_t count_infeasible_links(const graph::UnitDiskGraph& g,
                                   const sinr::SinrParams& phys,
                                   const std::vector<LinkRequest>& requests,
                                   const LinkSchedule& schedule) {
  SINRCOLOR_CHECK(schedule.slot_of.size() == requests.size());
  const radio::SinrInterferenceModel medium(g, phys);
  SlotStep step(g, medium);
  std::size_t bad = 0;
  std::vector<std::size_t> members;
  std::vector<graph::NodeId> senders;
  for (std::uint32_t s = 0; s < schedule.slots; ++s) {
    members.clear();
    senders.clear();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (schedule.slot_of[i] != s) continue;
      members.push_back(i);
      senders.push_back(requests[i].sender);
    }
    step.resolve(s, senders);
    for (std::size_t i : members) {
      bad += !step.heard(requests[i].receiver, requests[i].sender);
    }
  }
  return bad;
}

}  // namespace sinrcolor::mac
