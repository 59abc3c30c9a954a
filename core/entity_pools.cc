#include "core/entity_pools.h"

#include <algorithm>

namespace structride {

void RequestSoA::Refresh(Span<const Request* const> pending) {
  const size_t n = pending.size();
  id.resize(n);
  source.resize(n);
  destination.resize(n);
  release.resize(n);
  latest_pickup.resize(n);
  deadline.resize(n);
  direct.resize(n);
  order_by_id.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = *pending[i];
    id[i] = r.id;
    source[i] = r.source;
    destination[i] = r.destination;
    release[i] = r.release_time;
    latest_pickup[i] = r.latest_pickup;
    deadline[i] = r.deadline;
    direct[i] = r.direct_cost;
    order_by_id[i] = static_cast<uint32_t>(i);
  }
  // Ids are unique within a pool, so this comparator is a strict total
  // order and std::sort (allocation-free) is deterministic.
  std::sort(order_by_id.begin(), order_by_id.end(),
            [this](uint32_t a, uint32_t b) { return id[a] < id[b]; });
}

int64_t RequestSoA::IndexOfId(RequestId rid) const {
  size_t lo = 0, hi = order_by_id.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (id[order_by_id[mid]] < rid) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < order_by_id.size() && id[order_by_id[lo]] == rid) {
    return static_cast<int64_t>(order_by_id[lo]);
  }
  return -1;
}

size_t RequestSoA::MemoryBytes() const {
  return id.capacity() * sizeof(RequestId) +
         (source.capacity() + destination.capacity()) * sizeof(NodeId) +
         (release.capacity() + latest_pickup.capacity() +
          deadline.capacity() + direct.capacity()) *
             sizeof(double) +
         order_by_id.capacity() * sizeof(uint32_t);
}

}  // namespace structride
