#include "core/kinetic_tree.h"

#include <algorithm>
#include <limits>

#include "util/arena.h"

namespace structride {

bool KineticTree::Insert(const Request& request, TravelCostEngine* engine) {
  SchedulePool& src = pools_[cur_];
  SchedulePool& dst = pools_[1 - cur_];
  dst.Reset();

  auto expand = [&](Span<const Stop> stops) {
    size_t n = stops.size();
    ArenaScope scope(ScratchArena());
    Stop* cand = scope.AllocateArray<Stop>(n + 2);
    for (size_t i = 0; i <= n; ++i) {
      for (size_t j = i; j <= n; ++j) {
        size_t w = 0;
        for (size_t k = 0; k < i; ++k) cand[w++] = stops[k];
        cand[w++] = PickupStop(request);
        for (size_t k = i; k < j; ++k) cand[w++] = stops[k];
        cand[w++] = DropoffStop(request);
        for (size_t k = j; k < n; ++k) cand[w++] = stops[k];
        if (CheckSchedule(root_, {cand, w}, engine).first) {
          dst.Append({cand, w});
        }
      }
    }
  };

  if (empty_tree_) {
    expand({});
  } else {
    for (size_t s = 0; s < src.NumSchedules(); ++s) {
      expand(src.View(static_cast<uint32_t>(s)));
    }
  }
  const size_t produced = dst.NumSchedules();
  if (produced == 0) return false;

  if (produced > kMaxSchedules) {
    // One cost per ordering, then an index sort: the cheapest survive, in
    // cost order (ties by production index). The survivors are rewritten
    // into the source pool, which becomes the next generation.
    ArenaScope scope(ScratchArena());
    double* cost = scope.AllocateArray<double>(produced);
    size_t* order = scope.AllocateArray<size_t>(produced);
    for (size_t i = 0; i < produced; ++i) {
      cost[i] =
          CheckSchedule(root_, dst.View(static_cast<uint32_t>(i)), engine)
              .second;
      order[i] = i;
    }
    std::sort(order, order + produced, [&](size_t a, size_t b) {
      return cost[a] != cost[b] ? cost[a] < cost[b] : a < b;
    });
    src.Reset();
    for (size_t k = 0; k < kMaxSchedules; ++k) {
      src.Append(dst.View(static_cast<uint32_t>(order[k])));
    }
    // cur_ stays: src holds the pruned generation.
  } else {
    cur_ = 1 - cur_;
  }
  empty_tree_ = false;
  return true;
}

double KineticTree::BestCost(TravelCostEngine* engine) const {
  double best = std::numeric_limits<double>::infinity();
  const size_t count = NumSchedules();
  for (size_t s = 0; s < count; ++s) {
    auto [ok, cost] = CheckSchedule(root_, ScheduleAt(s), engine);
    if (ok && cost < best) best = cost;
  }
  return best;
}

}  // namespace structride
