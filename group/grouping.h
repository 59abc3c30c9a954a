// The Algorithm-2 grouping enumerator: all request groups (cliques in the
// shareability graph) a given vehicle could feasibly absorb, each with a
// concrete schedule and delta cost. Two insertion-order policies trade
// enumeration cost for schedule quality:
//
//  - kByShareability: the paper's additive tree — one schedule per group,
//    members inserted in ascending shareability (degree) order, which is
//    exactly the ordering Sec. IV-A shows reaches the optimum most often.
//  - kBestOfAllParents: the GAS-quality variant — every parent group's
//    schedule is tried for the new member and the cheapest kept; more work,
//    occasionally better schedules.
//
// Groups append into a caller-owned GroupingScratch (schedules in a
// SchedulePool, member ids in one flat vector) that persists across
// batches, so a warmed scratch serves a steady-state batch without heap
// allocation (DESIGN.md §8).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/entity_pools.h"
#include "core/insertion.h"
#include "sharegraph/share_graph.h"

namespace structride {

enum class InsertionOrderPolicy {
  kByShareability,
  kBestOfAllParents,
};

struct GroupingOptions {
  int max_group_size = 4;
  InsertionOrderPolicy insertion_order = InsertionOrderPolicy::kByShareability;
  /// Safety cap on enumerated groups (RTV wires its ILP node cap in here).
  size_t max_groups = 200000;
};

/// Instrumented bytes charged per enumerated group on top of its member ids
/// and stops (the Fig.-14 accounting): the record of one group held as
/// owning containers — a member-id vector, a stop schedule and the delta.
constexpr size_t kGroupRecordBytes =
    sizeof(std::vector<RequestId>) + sizeof(Schedule) + sizeof(double);

/// One enumerated group in the pooled representation: members are a slice
/// of GroupingScratch::member_ids, the schedule a SchedulePool handle.
struct PooledGroup {
  uint32_t members_first = 0;
  uint32_t members_len = 0;
  SchedulePool::Handle schedule = SchedulePool::kInvalid;
  double delta_cost = 0;
};

/// Batch-lifetime storage for pooled enumeration. One instance per
/// dispatcher: Reset() once per batch (retains capacity), then any number
/// of EnumerateGroupsPooled calls append into it and the consumer reads
/// groups until the next Reset.
struct GroupingScratch {
  SchedulePool schedules;
  std::vector<RequestId> member_ids;
  std::vector<PooledGroup> groups;

  Span<const RequestId> MembersOf(const PooledGroup& g) const {
    return {member_ids.data() + g.members_first, g.members_len};
  }
  Span<const Stop> ScheduleOf(const PooledGroup& g) const {
    return schedules.View(g.schedule);
  }

  void Reset() {
    schedules.Reset();
    member_ids.clear();
    groups.clear();
    level_.clear();
    next_.clear();
  }
  size_t MemoryBytes() const {
    return schedules.MemoryBytes() + member_ids.capacity() * sizeof(RequestId) +
           groups.capacity() * sizeof(PooledGroup);
  }

  // Per-call working state (capacity reused across calls; the pointers
  // reference the calling thread's scratch arena and die with the call).
  struct LevelNode {
    const RequestId* members = nullptr;
    const size_t* member_idx = nullptr;
    uint32_t len = 0;
    SchedulePool::Handle schedule = SchedulePool::kInvalid;
    double delta = 0;
  };
  std::vector<LevelNode> level_, next_;
};

/// Where EnumerateGroupsPooled put this call's groups: indices
/// [first_group, first_group + count) of scratch->groups.
struct PooledGroupingResult {
  size_t first_group = 0;
  size_t count = 0;
  bool truncated = false;  ///< hit max_groups before finishing a level
};

/// Enumerates feasible groups from \p pool for a vehicle at \p state with
/// \p committed stops, appending them to \p scratch. \p committed_legs is
/// the vehicle's leg plane (Vehicle::legs()) or empty; it prices the
/// singletons, while larger groups re-walk their parent's schedule. Groups
/// must be cliques in \p graph (a null graph admits only singleton groups).
/// \p options.max_groups caps this call's group count (not the scratch
/// total).
PooledGroupingResult EnumerateGroupsPooled(const RouteState& state,
                                           Span<const Stop> committed,
                                           Span<const double> committed_legs,
                                           Span<const Request* const> pool,
                                           const ShareGraph* graph,
                                           TravelCostEngine* engine,
                                           const GroupingOptions& options,
                                           GroupingScratch* scratch);

/// Instrumented footprint of one call's slice (Fig.-14 accounting): a
/// group record per group plus its member ids and schedule stops.
size_t PooledGroupingMemoryBytes(const GroupingScratch& scratch,
                                 const PooledGroupingResult& result);

}  // namespace structride
