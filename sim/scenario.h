// The pluggable scenario subsystem of the event-driven simulation core
// (DESIGN.md §6). A Scenario perturbs one run — reshaping the workload at
// install time and/or scheduling events that mutate the world mid-run —
// through the narrow ScenarioHost surface the engine exposes. With no
// scenarios installed the engine is bitwise identical to the frozen
// fixed-batch loop, so every scenario is a pure delta on a pinned baseline.
//
// A RepositioningPolicy is the second hook: after every dispatch round it
// may send idle vehicles on empty relocation legs toward demand. Off by
// default; relocation travel is charged to travel_cost (and reported
// separately in RunMetrics), so a policy must earn its deadhead miles.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/vehicle.h"
#include "dispatch/dispatcher.h"

namespace structride {

/// The engine-side surface scenarios act through. Methods marked
/// *install-only* SR_CHECK-fail outside Scenario::OnInstall; the rest are
/// valid from both OnInstall and OnEvent.
class ScenarioHost {
 public:
  virtual ~ScenarioHost() = default;

  /// Current simulation time (0 during OnInstall).
  virtual double now() const = 0;
  virtual const std::vector<Vehicle>& fleet() const = 0;

  /// Schedules OnEvent(tag) for the calling scenario at \p when (>= now()).
  virtual void ScheduleAt(double when, int64_t tag) = 0;

  // Zone surface (geo-sharding, DESIGN.md §12). A single-shard run has one
  // zone covering the whole metro; zone < 0 means every zone.
  virtual int num_zones() const = 0;
  /// Zone of a network node.
  virtual int ZoneOfNode(NodeId node) const = 0;
  /// Install-only: compresses the arrival window [begin, end) by \p factor
  /// (> 1 squeezes the same demand into a 1/factor-length window starting
  /// at \p begin — a surge), for the requests whose pickup lies in \p zone.
  /// Each retimed request's deadline and latest pickup shift with its
  /// release, so per-request slack is preserved; so is a pending
  /// cancellation's countdown.
  virtual void RetimeZoneWindow(int zone, double begin, double end,
                                double factor) = 0;
  /// Takes up to \p count in-service vehicles currently inside \p zone out
  /// of service (idle vehicles first, then busy ones, ascending fleet index
  /// — deterministic). Pulled vehicles finish committed stops but receive
  /// no new work; an in-flight reposition is abandoned. Returns how many
  /// were pulled.
  virtual int PullVehiclesInZone(int zone, int count) = 0;
  /// Returns up to \p count vehicles *the calling scenario* pulled back to
  /// service (most recent first — overlapping downtime scenarios never
  /// restore each other's vehicles); returns how many came back.
  virtual int RestoreVehicles(int count) = 0;

  /// Switches per-request online dispatch on or off: when on, every
  /// request-release event triggers an immediate dispatch round (same-time
  /// releases coalesce into one round) in addition to the periodic batch
  /// ticks that still retry leftovers and drive termination.
  virtual void SetOnlineDispatch(bool on) = 0;
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual const char* name() const = 0;
  /// Called once at the start of every Run, before any event fires.
  /// Reshape the workload and schedule the scenario's events here.
  virtual void OnInstall(ScenarioHost* host) = 0;
  /// Called when an event this scenario scheduled fires.
  virtual void OnEvent(ScenarioHost* host, int64_t tag) = 0;
};

/// Demand surge: the releases in [begin, end) compress by \p factor (> 1)
/// toward \p begin. Pure install-time reshaping; no mid-run events.
std::unique_ptr<Scenario> MakeDemandSurge(double begin, double end,
                                          double factor);

/// Vehicle downtime / shift change: at \p start pulls
/// max(1, floor(fraction * fleet)) vehicles out of service and restores
/// them at \p start + \p duration (never, if duration is +infinity).
std::unique_ptr<Scenario> MakeVehicleDowntime(double start, double duration,
                                              double fraction);

/// Dispatch-mode switch: online per-request dispatch turns on at
/// \p on_time and (optionally) back off at \p off_time (+infinity = stays
/// on for the rest of the run).
std::unique_ptr<Scenario> MakeDispatchModeSwitch(double on_time,
                                                 double off_time);

/// Zone-targeted demand surge: like MakeDemandSurge, but only requests whose
/// pickup lies in \p zone retime (zone < 0 = every zone, identical to the
/// global surge). A single-shard run has one zone, 0, covering the metro.
std::unique_ptr<Scenario> MakeZonalDemandSurge(int zone, double begin,
                                               double end, double factor);

/// Zone-targeted downtime: at \p start pulls max(1, floor(fraction * (fleet
/// currently in \p zone))) vehicles from that zone (zone < 0 = whole fleet,
/// identical to MakeVehicleDowntime) and restores them at \p start +
/// \p duration. An empty zone pulls nothing.
std::unique_ptr<Scenario> MakeZonalVehicleDowntime(int zone, double start,
                                                   double duration,
                                                   double fraction);

// ---------------------------------------------------------------------------

/// What a repositioning policy sees after a dispatch round: the fleet and
/// the requests still open (released, unassigned, unexpired).
struct RepositioningContext {
  double now = 0;
  const RoadNetwork* net = nullptr;
  const std::vector<Vehicle>* fleet = nullptr;
  const std::vector<const Request*>* open = nullptr;
};

class RepositioningPolicy {
 public:
  virtual ~RepositioningPolicy() = default;
  virtual const char* name() const = 0;
  /// Appends moves for idle vehicles. The engine validates each move
  /// (in-service, idle, not already repositioning, target != current node)
  /// before starting the leg, so a policy may propose optimistically.
  virtual void Propose(const RepositioningContext& ctx,
                       std::vector<RepositionMove>* moves) = 0;
};

struct GreedyRepositioningOptions {
  /// At most this many relocations start per dispatch round.
  size_t max_moves_per_round = 4;
  /// A vehicle closer than this (straight-line) to the demand centroid
  /// stays put.
  double min_move_distance = 0;
};

/// The first concrete policy: compute the centroid of the open requests'
/// pickup points, pick the open pickup node nearest that centroid as the
/// round's target, and send the idle vehicles farthest from the centroid
/// (the most mispositioned ones) toward it. No moves when nothing is open.
std::unique_ptr<RepositioningPolicy> MakeGreedyCentroidRepositioning(
    GreedyRepositioningOptions options = {});

}  // namespace structride
