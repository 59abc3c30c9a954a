// A vehicle: current position/time, seat usage, and its committed stop
// sequence with precomputed arrival times. Movement follows the committed
// model documented in DESIGN.md §4: the vehicle is considered to be at the
// last completed stop; committing a new schedule re-times every remaining
// stop from there and must pass a full feasibility check, so promises made
// to committed riders are never broken.
//
// Two orthogonal bits of state serve the event-driven simulation core
// (DESIGN.md §6):
//  - `in_service`: an out-of-service vehicle (scenario downtime / shift
//    change) finishes its committed stops but receives no new work — every
//    dispatcher candidate scan skips it.
//  - an empty *reposition* leg: an idle vehicle can be sent toward demand.
//    Under the committed model it stays at its current node until the leg's
//    arrival; the travel cost accrues on completion, and committing a real
//    schedule first abandons the move at zero cost (the vehicle never left).
//  - `epoch`: bumped whenever the committed future changes (commit,
//    reposition begin/cancel, any completion), so queued stop-completion
//    events can detect they are stale.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/schedule.h"

namespace structride {

class Vehicle {
 public:
  Vehicle(int id, NodeId start, int capacity)
      : id_(id), node_(start), capacity_(capacity) {}

  int id() const { return id_; }
  int capacity() const { return capacity_; }
  int onboard() const { return onboard_; }
  NodeId node() const { return node_; }
  bool idle() const { return schedule_.empty(); }
  double total_travel_cost() const { return travel_cost_; }

  const Schedule& schedule() const { return schedule_; }
  /// Travel cost of the leg into each remaining stop, parallel to
  /// schedule(): filled by CommitStops, trimmed by AdvanceTo. Pricing reads
  /// it instead of looking the committed legs up again.
  Span<const double> legs() const { return legs_; }

  /// True unless a scenario pulled the vehicle out of service. Out-of-
  /// service vehicles still complete their committed stops.
  bool in_service() const { return in_service_; }
  void set_in_service(bool in) { in_service_ = in; }

  /// Bumped on every change to the committed timeline; see header comment.
  uint64_t epoch() const { return epoch_; }

  /// When the next committed stop (or reposition arrival) completes;
  /// +infinity when nothing is in flight.
  double next_completion_time() const {
    if (!arrivals_.empty()) return arrivals_.front();
    if (repositioning_) return reposition_arrival_;
    return std::numeric_limits<double>::infinity();
  }

  bool repositioning() const { return repositioning_; }
  NodeId reposition_target() const { return reposition_target_; }
  /// Completed (not abandoned) reposition legs and their summed travel
  /// cost; the cost is also folded into total_travel_cost().
  int repositions_completed() const { return repositions_completed_; }
  double reposition_cost() const { return reposition_cost_; }

  /// Vehicle-side context for evaluating schedule edits at time \p now.
  RouteState route_state(double now) const {
    return {node_, now > time_ ? now : time_, capacity_, onboard_};
  }

  /// Replaces the remaining schedule with \p stops, re-timing every stop
  /// from route_state(now). Returns false (and leaves the vehicle
  /// untouched) if the new schedule is infeasible. Success abandons any
  /// in-flight reposition leg (committed model: the vehicle never left, no
  /// cost). \p stops may live in an arena or SchedulePool, or view the
  /// vehicle's own schedule storage; the retained stop/arrival/leg vectors
  /// are re-filled in place (no heap allocation once their capacity has
  /// warmed).
  bool CommitStops(Span<const Stop> stops, double now,
                   TravelCostEngine* engine);

  /// Starts an empty relocation toward \p target (one travel-cost query for
  /// the leg). Requires an idle, non-repositioning vehicle; returns false
  /// when those preconditions fail or \p target is the current node.
  bool BeginReposition(NodeId target, double now, TravelCostEngine* engine);

  /// Abandons an in-flight reposition at zero cost. No-op when idle.
  void CancelReposition();

  /// Completes every stop serviced by \p now — and a reposition leg whose
  /// arrival has passed — invoking \p on_stop with each stop and its
  /// service time, in order (reposition completions don't invoke it).
  void AdvanceTo(double now,
                 const std::function<void(const Stop&, double)>& on_stop);

 private:
  int id_;
  NodeId node_;
  int capacity_;
  int onboard_ = 0;
  double time_ = 0;  ///< time the vehicle became free at node_
  double travel_cost_ = 0;
  Schedule schedule_;
  std::vector<double> arrivals_;  ///< service time per remaining stop
  std::vector<double> legs_;     ///< travel cost into each remaining stop

  bool in_service_ = true;
  uint64_t epoch_ = 0;
  bool repositioning_ = false;
  NodeId reposition_target_ = 0;
  double reposition_arrival_ = 0;
  double reposition_leg_ = 0;
  int repositions_completed_ = 0;
  double reposition_cost_ = 0;
};

/// The inverse of one shard's member plane: the position of each member in
/// the ascending plane — its view-local index (FleetView) — in O(1), as a
/// rank over fleet indices. Bit g % 64 of word g / 64 is set iff fleet index
/// g is a member, and below_[w] counts the members in the words before w,
/// so member g sits at below_[g / 64] plus the members below it in its
/// word. Adding or removing a member costs O(fleet size / 64).
class MemberRanks {
 public:
  /// No members, over fleet indices [0, fleet_size).
  void Reset(size_t fleet_size);
  void Add(size_t g);
  void Remove(size_t g);
  bool Contains(size_t g) const { return (bits_[g / 64] >> (g % 64)) & 1; }
  /// The members below \p g: member g's position in the plane.
  size_t Rank(size_t g) const {
    const uint64_t below_g = bits_[g / 64] & ((uint64_t{1} << (g % 64)) - 1);
    return below_[g / 64] + static_cast<size_t>(__builtin_popcountll(below_g));
  }

 private:
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> below_;
};

/// A possibly-restricted view over the one global fleet vector (geo-sharding,
/// DESIGN.md §12). The simulation engine keeps a single fleet for the whole
/// metro; a shard's dispatcher sees only its resident vehicles through the
/// optional member-index plane. Every index a dispatcher hands out or
/// receives (candidate scans, proposals, RepositionMove::vehicle) is
/// view-local; global_index() translates back to fleet storage and
/// local_index() forward, each in O(1). An unrestricted view is a pure
/// pass-through — view-local == global — which is what keeps the
/// single-shard engine bitwise identical to the pre-sharding one. The
/// members plane, when present, must hold strictly ascending fleet indices
/// so deterministic (distance, index) tie breaks survive restriction, and
/// comes with the MemberRanks that inverts it.
///
/// Vehicles are read-only through the view; the one way to change one is
/// Commit, which also records the view-local index in the view's commit log.
/// After the round the engine re-queues stop events for exactly the logged
/// vehicles (DESIGN.md §6), so no commit can go unsynced.
class FleetView {
 public:
  FleetView() = default;
  FleetView(std::vector<Vehicle>* storage, std::vector<size_t>* commit_log)
      : storage_(storage), commit_log_(commit_log) {}
  /// The view restricted to \p members, inverted by \p ranks.
  FleetView(std::vector<Vehicle>* storage, std::vector<size_t>* commit_log,
            const std::vector<size_t>* members, const MemberRanks* ranks);

  size_t size() const {
    if (members_ != nullptr) return members_->size();
    return storage_ != nullptr ? storage_->size() : 0;
  }
  bool empty() const { return size() == 0; }

  const Vehicle& operator[](size_t i) const {
    return (*storage_)[global_index(i)];
  }

  /// Vehicle::CommitStops on view-local vehicle \p i; on success also logs
  /// \p i in the commit log.
  bool Commit(size_t i, Span<const Stop> stops, double now,
              TravelCostEngine* engine) const;

  /// Fleet-storage index of view-local index \p i.
  size_t global_index(size_t i) const {
    return members_ != nullptr ? (*members_)[i] : i;
  }

  /// View-local index of fleet-storage index \p g, which the view holds.
  size_t local_index(size_t g) const;

  bool restricted() const { return members_ != nullptr; }

 private:
  std::vector<Vehicle>* storage_ = nullptr;
  std::vector<size_t>* commit_log_ = nullptr;
  const std::vector<size_t>* members_ = nullptr;
  const MemberRanks* ranks_ = nullptr;
};

}  // namespace structride
