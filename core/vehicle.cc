#include "core/vehicle.h"

#include <cmath>

#include "util/arena.h"
#include "util/logging.h"

namespace structride {

bool Vehicle::CommitStops(Span<const Stop> stops, double now,
                          TravelCostEngine* engine) {
  RouteState state = route_state(now);
  const size_t n = stops.size();
  // Arrival/leg staging lives on the thread's scratch arena so an
  // infeasible attempt leaves no trace and a feasible one is copied into
  // the vehicle's retained vectors below.
  ArenaScope scope(ScratchArena());
  double* arrivals = scope.AllocateArray<double>(n);
  double* legs = scope.AllocateArray<double>(n);

  WalkState walk = WalkState::At(state);
  auto cost = [engine](NodeId a, NodeId b) { return engine->Cost(a, b); };
  for (size_t k = 0; k < n; ++k) {
    const double leg = LegCost(walk.pos, stops[k].node, cost);
    if (!walk.Serve(stops[k], leg, capacity_)) return false;
    arrivals[k] = walk.time;
    legs[k] = leg;
  }

  // assign() refills in place, reusing the members' capacity once warmed.
  // A span viewing the vehicle's own stop vector must not self-assign
  // (assign from a range inside the vector is UB); such a span is
  // necessarily a prefix of the storage, so truncation preserves it.
  if (stops.data() == schedule_.stops().data()) {
    schedule_.mutable_stops().resize(n);
  } else {
    schedule_.mutable_stops().assign(stops.begin(), stops.end());
  }
  arrivals_.assign(arrivals, arrivals + n);
  legs_.assign(legs, legs + n);
  time_ = state.start_time;
  repositioning_ = false;  // real work abandons an in-flight reposition
  ++epoch_;
  return true;
}

bool Vehicle::BeginReposition(NodeId target, double now,
                              TravelCostEngine* engine) {
  if (!schedule_.empty() || repositioning_ || target == node_) return false;
  double leg = engine->Cost(node_, target);
  // An unreachable target (disconnected component: Cost = +inf) must not
  // become a leg — it would never complete mid-run and would charge +inf
  // into travel_cost at the end-of-run drain.
  if (!std::isfinite(leg)) return false;
  double start = now > time_ ? now : time_;
  reposition_leg_ = leg;
  reposition_arrival_ = start + leg;
  reposition_target_ = target;
  repositioning_ = true;
  ++epoch_;
  return true;
}

void Vehicle::CancelReposition() {
  if (!repositioning_) return;
  repositioning_ = false;
  ++epoch_;
}

void Vehicle::AdvanceTo(double now,
                        const std::function<void(const Stop&, double)>& on_stop) {
  size_t done = 0;
  const auto& stops = schedule_.stops();
  while (done < stops.size() && arrivals_[done] <= now) {
    const Stop& stop = stops[done];
    travel_cost_ += legs_[done];
    node_ = stop.node;
    time_ = arrivals_[done];
    if (stop.kind == StopKind::kPickup) {
      ++onboard_;
    } else {
      SR_CHECK(onboard_ > 0);
      --onboard_;
    }
    if (on_stop) on_stop(stop, arrivals_[done]);
    ++done;
  }
  if (done > 0) {
    auto& mutable_stops = schedule_.mutable_stops();
    mutable_stops.erase(mutable_stops.begin(),
                        mutable_stops.begin() + static_cast<long>(done));
    arrivals_.erase(arrivals_.begin(), arrivals_.begin() + static_cast<long>(done));
    legs_.erase(legs_.begin(), legs_.begin() + static_cast<long>(done));
    ++epoch_;
  }
  if (repositioning_ && reposition_arrival_ <= now) {
    travel_cost_ += reposition_leg_;
    reposition_cost_ += reposition_leg_;
    ++repositions_completed_;
    node_ = reposition_target_;
    time_ = reposition_arrival_;
    repositioning_ = false;
    ++epoch_;
  }
}

bool FleetView::Commit(size_t i, Span<const Stop> stops, double now,
                       TravelCostEngine* engine) const {
  SR_CHECK(commit_log_ != nullptr);
  if (!(*storage_)[global_index(i)].CommitStops(stops, now, engine)) {
    return false;
  }
  commit_log_->push_back(i);
  return true;
}

void MemberRanks::Reset(size_t fleet_size) {
  bits_.assign(fleet_size / 64 + 1, 0);
  below_.assign(bits_.size(), 0);
}

void MemberRanks::Add(size_t g) {
  SR_CHECK(!Contains(g));
  bits_[g / 64] |= uint64_t{1} << (g % 64);
  for (size_t w = g / 64 + 1; w < below_.size(); ++w) ++below_[w];
}

void MemberRanks::Remove(size_t g) {
  SR_CHECK(Contains(g));
  bits_[g / 64] &= ~(uint64_t{1} << (g % 64));
  for (size_t w = g / 64 + 1; w < below_.size(); ++w) --below_[w];
}

FleetView::FleetView(std::vector<Vehicle>* storage,
                     std::vector<size_t>* commit_log,
                     const std::vector<size_t>* members,
                     const MemberRanks* ranks)
    : storage_(storage),
      commit_log_(commit_log),
      members_(members),
      ranks_(ranks) {
  SR_CHECK(members != nullptr && ranks != nullptr);
}

size_t FleetView::local_index(size_t g) const {
  if (members_ == nullptr) return g;
  SR_CHECK(ranks_->Contains(g));
  return ranks_->Rank(g);
}

}  // namespace structride
