// The online insertion baselines and the learning-method surrogate.
//
//  - pruneGDP: greedy min-delta insertion at release, with the
//    lower-bound reachability prune over a distance-sorted fleet scan.
//  - TicketAssign+: first-feasible insertion among the nearest vehicles
//    (a bucketed nearest-candidate scheme; faster, slightly worse).
//  - DARM+DPRS: the paper compares against a learned dispatcher; without
//    its training data this is an honest heuristic surrogate — delay-
//    tolerant batched insertion that holds a request back while its slack
//    allows a cheaper shared match (DESIGN.md §4).
//
// Each baseline answers candidate queries from the engine's fleet index
// into thread-scratch buffers and stages only the winning schedule in the
// scratch arena (materializing it issues no engine queries, so deferring it
// past the scan changes nothing) — zero heap allocations per steady-state
// batch once pools are warm.

#include <limits>

#include "dispatch/common.h"
#include "dispatch/dispatcher.h"

namespace structride {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class PruneGdpDispatcher : public Dispatcher {
 public:
  using Dispatcher::Dispatcher;

  void OnBatch(DispatchContext* ctx) override {
    if (ctx->pending.empty()) return;
    const FleetView& fleet = ctx->fleet;
    ArenaScope batch_scope(ScratchArena());
    size_t* nearest = batch_scope.AllocateArray<size_t>(fleet.size());
    for (const Request* r : ctx->pending) {
      double best = kInf;
      size_t best_vehicle = 0;
      InsertionCandidate best_cand;
      // Reachability prune: only vehicles whose straight-line distance still
      // makes the pickup deadline can serve the request, and vehicle
      // positions are fixed within a batch, so the radius query visits
      // exactly the prefix the sorted full-fleet scan used to.
      double reach = r->latest_pickup - ctx->now;
      const size_t num_near = dispatch::NearestVehiclesWithinInto(
          *ctx, r->source, fleet.size(), reach, nearest);
      for (size_t ni = 0; ni < num_near; ++ni) {
        const Vehicle& v = fleet[nearest[ni]];
        InsertionCandidate cand =
            BestInsertion(v.route_state(ctx->now), v.schedule().stops(),
                          v.legs(), *r, ctx->engine);
        if (cand.feasible && cand.delta_cost < best) {
          best = cand.delta_cost;
          best_vehicle = nearest[ni];
          best_cand = cand;
        }
      }
      bool committed = false;
      if (best < kInf) {
        ArenaScope scope(ScratchArena());
        const std::vector<Stop>& cur = fleet[best_vehicle].schedule().stops();
        Stop* staged = scope.AllocateArray<Stop>(cur.size() + 2);
        size_t len = ApplyInsertionInto(cur, *r, best_cand, staged);
        committed =
            fleet.Commit(best_vehicle, {staged, len}, ctx->now, ctx->engine);
      }
      if (committed) {
        ctx->assigned.push_back(r->id);
      } else {
        ctx->rejected.push_back(r->id);  // online: no second chance
      }
    }
    NotePeak(fleet.size() * sizeof(double) +
             ctx->pending.size() * sizeof(Request*));
  }
};

class TicketAssignDispatcher : public Dispatcher {
 public:
  using Dispatcher::Dispatcher;

  void OnBatch(DispatchContext* ctx) override {
    if (ctx->pending.empty()) return;
    const FleetView& fleet = ctx->fleet;
    for (const Request* r : ctx->pending) {
      bool placed = false;
      size_t nearest[kScanLimit];
      const size_t num_near =
          dispatch::NearestVehiclesInto(*ctx, r->source, kScanLimit, nearest);
      for (size_t ni = 0; ni < num_near; ++ni) {
        const Vehicle& v = fleet[nearest[ni]];
        InsertionCandidate cand =
            BestInsertion(v.route_state(ctx->now), v.schedule().stops(),
                          v.legs(), *r, ctx->engine);
        if (!cand.feasible) continue;
        ArenaScope scope(ScratchArena());
        const std::vector<Stop>& cur = v.schedule().stops();
        Stop* staged = scope.AllocateArray<Stop>(cur.size() + 2);
        size_t len = ApplyInsertionInto(cur, *r, cand, staged);
        if (fleet.Commit(nearest[ni], {staged, len}, ctx->now, ctx->engine)) {
          ctx->assigned.push_back(r->id);
          placed = true;
          break;
        }
      }
      if (!placed) ctx->rejected.push_back(r->id);
    }
    NotePeak(kScanLimit * sizeof(size_t) +
             ctx->pending.size() * sizeof(Request*));
  }

 private:
  static constexpr size_t kScanLimit = 16;
};

class DarmDprsDispatcher : public Dispatcher {
 public:
  using Dispatcher::Dispatcher;

  void OnBatch(DispatchContext* ctx) override {
    if (ctx->pending.empty()) return;
    const FleetView& fleet = ctx->fleet;
    for (const Request* r : ctx->pending) {
      double best = kInf;
      size_t best_vehicle = 0;
      InsertionCandidate best_cand;
      size_t nearest[kScanLimit];
      const size_t num_near =
          dispatch::NearestVehiclesInto(*ctx, r->source, kScanLimit, nearest);
      for (size_t ni = 0; ni < num_near; ++ni) {
        const Vehicle& v = fleet[nearest[ni]];
        InsertionCandidate cand =
            BestInsertion(v.route_state(ctx->now), v.schedule().stops(),
                          v.legs(), *r, ctx->engine);
        if (cand.feasible && cand.delta_cost < best) {
          best = cand.delta_cost;
          best_vehicle = nearest[ni];
          best_cand = cand;
        }
      }
      if (best == kInf) continue;  // stays pending until slack runs out
      double slack = r->latest_pickup - ctx->now;
      if (best <= kCheapRatio * r->direct_cost || slack <= kUrgentSlack) {
        ArenaScope scope(ScratchArena());
        const std::vector<Stop>& cur = fleet[best_vehicle].schedule().stops();
        Stop* staged = scope.AllocateArray<Stop>(cur.size() + 2);
        size_t len = ApplyInsertionInto(cur, *r, best_cand, staged);
        if (fleet.Commit(best_vehicle, {staged, len}, ctx->now,
                         ctx->engine)) {
          ctx->assigned.push_back(r->id);
        }
      }
    }
    NotePeak(ctx->pending.size() * (sizeof(Request*) + sizeof(double)) +
             kScanLimit * sizeof(size_t));
  }

 private:
  // Hold a request back while it still has slack and no cheap (likely
  // shared) placement exists; assign unconditionally once it gets urgent.
  static constexpr size_t kScanLimit = 16;
  static constexpr double kCheapRatio = 0.6;  // delta <= 60% of direct cost
  static constexpr double kUrgentSlack = 60;  // seconds of pickup slack
};

}  // namespace

std::unique_ptr<Dispatcher> MakePruneGdp(const DispatchConfig& config) {
  return std::make_unique<PruneGdpDispatcher>(config);
}
std::unique_ptr<Dispatcher> MakeTicketAssign(const DispatchConfig& config) {
  return std::make_unique<TicketAssignDispatcher>(config);
}
std::unique_ptr<Dispatcher> MakeDarmDprs(const DispatchConfig& config) {
  return std::make_unique<DarmDprsDispatcher>(config);
}

}  // namespace structride
