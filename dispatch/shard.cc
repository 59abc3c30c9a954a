#include "dispatch/shard.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace structride {

void ShardPartition::Build(const RoadNetwork& net, int num_shards,
                           int grid_cols) {
  net_ = &net;
  num_shards_ = std::max(1, num_shards);
  if (num_shards_ == 1 || net.num_nodes() == 0) {
    cols_ = rows_ = 1;
    cell_w_ = cell_h_ = 1;
    min_x_ = min_y_ = 0;
    return;
  }
  double min_x = net.position(0).x, max_x = min_x;
  double min_y = net.position(0).y, max_y = min_y;
  for (size_t n = 1; n < net.num_nodes(); ++n) {
    const Point p = net.position(static_cast<NodeId>(n));
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  int cols = grid_cols > 0
                 ? std::min(grid_cols, num_shards_)
                 : static_cast<int>(
                       std::ceil(std::sqrt(static_cast<double>(num_shards_))));
  cols_ = std::max(1, cols);
  rows_ = (num_shards_ + cols_ - 1) / cols_;
  min_x_ = min_x;
  min_y_ = min_y;
  // Same clamp discipline as FleetIndex: degenerate (single-point)
  // extents still index safely.
  cell_w_ = std::max((max_x - min_x) / cols_, 1e-9);
  cell_h_ = std::max((max_y - min_y) / rows_, 1e-9);
}

int ShardPartition::ShardOfNode(NodeId node) const {
  if (num_shards_ == 1) return 0;
  SR_CHECK(net_ != nullptr);
  const Point p = net_->position(node);
  int cx = std::min(
      cols_ - 1,
      std::max(0, static_cast<int>((p.x - min_x_) / cell_w_)));
  int cy = std::min(
      rows_ - 1,
      std::max(0, static_cast<int>((p.y - min_y_) / cell_h_)));
  return std::min(cy * cols_ + cx, num_shards_ - 1);
}

uint64_t MemberPlaneFingerprint(const std::vector<size_t>& members) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t m : members) {
    h ^= static_cast<uint64_t>(m);
    h *= 0x100000001b3ull;
  }
  // Fold the length in so a plane that shrinks to a prefix still changes.
  h ^= static_cast<uint64_t>(members.size());
  h *= 0x100000001b3ull;
  return h;
}

double ShardLoadMaxOverMean(const std::vector<uint64_t>& loads) {
  if (loads.empty()) return 0;
  uint64_t total = 0, max_load = 0;
  for (uint64_t l : loads) {
    total += l;
    max_load = std::max(max_load, l);
  }
  if (total == 0) return 0;
  return static_cast<double>(max_load) * static_cast<double>(loads.size()) /
         static_cast<double>(total);
}

}  // namespace structride
