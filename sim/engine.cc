#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "dispatch/shard.h"
#include "roadnet/travel_cost.h"
#include "sim/event_queue.h"
#include "util/alloc_gate.h"
#include "util/latency_histogram.h"
#include "util/logging.h"
#include "util/spsc_ring.h"
#include "util/thread_pool.h"

namespace structride {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock stripes per travel-cost cache partition: intra-shard parallelism is
// bounded by SARD's acceptance stage, so partitions need fewer stripes than
// the 64-way root cache.
constexpr size_t kPartitionStripes = 16;

// Nearest-rank percentile over an ascending-sorted sample; 0 when empty.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

// Service-quality stats over the served riders: pickup wait = pickup -
// release; detour ratio = in-vehicle time / direct cost.
void FinalizeServiceQuality(const std::vector<Request>& requests,
                            const std::vector<char>& served_mask,
                            const std::vector<double>& pickup_time,
                            const std::vector<double>& dropoff_time,
                            RunMetrics* m) {
  std::vector<double> waits;
  waits.reserve(static_cast<size_t>(m->served));
  double detour_sum = 0;
  size_t detour_count = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!served_mask[i]) continue;
    waits.push_back(pickup_time[i] - requests[i].release_time);
    if (requests[i].direct_cost > 0) {
      detour_sum +=
          (dropoff_time[i] - pickup_time[i]) / requests[i].direct_cost;
      ++detour_count;
    }
  }
  std::sort(waits.begin(), waits.end());
  m->pickup_wait_p50 = NearestRank(waits, 0.50);
  m->pickup_wait_p99 = NearestRank(waits, 0.99);
  m->mean_detour_ratio =
      detour_count > 0 ? detour_sum / static_cast<double>(detour_count) : 0;
}

// max/mean over a non-negative sample; 0 when the sum is zero. The double
// sibling of ShardLoadMaxOverMean, for the per-shard batch-time imbalance.
double MaxOverMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double total = 0, max_value = 0;
  for (double v : values) {
    total += v;
    max_value = std::max(max_value, v);
  }
  if (total <= 0) return 0;
  return max_value * static_cast<double>(values.size()) / total;
}

}  // namespace

SimulationEngine::SimulationEngine(TravelCostEngine* engine,
                                   std::vector<Request> requests,
                                   SimulationOptions options)
    : engine_(engine),
      requests_(std::move(requests)),
      options_(std::move(options)),
      run_rng_(options_.seed ^ 0xfa51c0de5eedull) {
  SR_CHECK(engine_ != nullptr);
  std::stable_sort(requests_.begin(), requests_.end(),
                   [](const Request& a, const Request& b) {
                     return a.release_time < b.release_time;
                   });
}

SimulationEngine::~SimulationEngine() = default;

void SimulationEngine::SpawnFleet(int num_vehicles, int capacity) {
  SR_CHECK(num_vehicles > 0);
  SR_CHECK(capacity > 0);
  Rng rng(options_.seed);
  spawn_nodes_.clear();
  int64_t n = static_cast<int64_t>(engine_->network().num_nodes());
  for (int i = 0; i < num_vehicles; ++i) {
    spawn_nodes_.push_back(static_cast<NodeId>(rng.UniformInt(0, n - 1)));
  }
  spawn_capacity_ = capacity;
}

void SimulationEngine::AddScenario(std::unique_ptr<Scenario> scenario) {
  SR_CHECK(scenario != nullptr);
  scenarios_.push_back(std::move(scenario));
}

void SimulationEngine::ClearScenarios() { scenarios_.clear(); }

void SimulationEngine::SetRepositioningPolicy(
    std::unique_ptr<RepositioningPolicy> policy) {
  repositioning_ = std::move(policy);
}

std::vector<Vehicle> SimulationEngine::BuildFleet() {
  // Fresh fleet from the fixed spawn; per-run capacity draws under the
  // Appendix-C variance model, in fleet order.
  std::vector<Vehicle> fleet;
  fleet.reserve(spawn_nodes_.size());
  for (size_t i = 0; i < spawn_nodes_.size(); ++i) {
    int capacity = spawn_capacity_;
    if (options_.capacity_sigma > 0) {
      double draw = run_rng_.Gaussian(static_cast<double>(options_.capacity_mean),
                                      options_.capacity_sigma);
      capacity = std::max(1, static_cast<int>(std::lround(draw)));
    }
    fleet.emplace_back(static_cast<int>(i), spawn_nodes_[i], capacity);
  }
  return fleet;
}

std::vector<double> SimulationEngine::DrawCancelOffsets() {
  std::vector<double> offset(requests_.size(), kInf);
  if (options_.cancellation_rate > 0) {
    for (size_t i = 0; i < offset.size(); ++i) {
      if (run_rng_.Uniform(0, 1) < options_.cancellation_rate) {
        offset[i] = run_rng_.Exponential(options_.cancellation_patience);
      }
    }
  }
  return offset;
}

// ---------------------------------------------------------------------------
// The event-driven core. One EventRun is one Run(): it owns the per-run
// state (a retimeable copy of the stream, the fleet, the event queue, the
// request-state array) and is the ScenarioHost the installed scenarios act
// through. See DESIGN.md §6 for the event taxonomy and the batch-tick
// equivalence argument.
// ---------------------------------------------------------------------------

class SimulationEngine::EventRun : public ScenarioHost {
 public:
  EventRun(SimulationEngine* owner, const std::string& algorithm,
           const DispatchConfig& config)
      : owner_(owner),
        engine_(owner->engine_),
        options_(owner->options_),
        config_(config),
        algorithm_(algorithm),
        requests_(owner->requests_) {}

  RunMetrics Execute();

  // -- ScenarioHost ---------------------------------------------------------
  double now() const override { return now_; }
  const std::vector<Vehicle>& fleet() const override { return fleet_; }

  void ScheduleAt(double when, int64_t tag) override {
    SR_CHECK(current_scenario_ >= 0);  // only from OnInstall / OnEvent
    queue_.Push({when < now_ ? now_ : when, EventType::kScenario,
                 current_scenario_, tag});
  }

  void RetimeZoneWindow(int zone, double begin, double end,
                        double factor) override;
  int PullVehiclesInZone(int zone, int count) override;

  int num_zones() const override { return num_shards_; }

  int ZoneOfNode(NodeId node) const override {
    return partition_.ShardOfNode(node);
  }

  int RestoreVehicles(int count) override {
    SR_CHECK(current_scenario_ >= 0);
    // Each scenario restores only the vehicles *it* pulled (most recent
    // first) — with overlapping downtime windows, popping a shared stack
    // would hand one scenario another's off-duty fleet.
    int restored = 0;
    for (size_t k = pulled_stack_.size(); k-- > 0 && restored < count;) {
      if (pulled_stack_[k].scenario != current_scenario_) continue;
      fleet_[pulled_stack_[k].vehicle].set_in_service(true);
      pulled_stack_.erase(pulled_stack_.begin() + static_cast<long>(k));
      ++restored;
    }
    return restored;
  }

  void SetOnlineDispatch(bool on) override { online_dispatch_ = on; }

 private:
  enum class ReqState : uint8_t {
    kUnreleased,
    kOpen,
    kAssigned,
    kRejected,
    kExpired,
    kCancelled,
    kServed,
  };
  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  void OpenRequest(size_t idx);
  void HandleRelease(size_t idx);
  void HandleStopEvent(size_t vi, int64_t epoch);
  void DispatchRound(bool online);
  // Streaming service mode (DESIGN.md §13). None of this runs — and none
  // of the state below is constructed — unless options_.service_mode.
  void SetupServiceMode(const std::vector<size_t>& order);
  void ProducerLoop();
  void DrainIngest();
  /// Wall seconds since the run epoch (set just before the producer starts).
  double WallNow() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_epoch_)
        .count();
  }
  void SleepUntilWall(double target) const;
  /// The travel-cost oracle a shard dispatches against: its private cache
  /// partition under geo-sharding, the root engine at 1 shard (preserving
  /// the bitwise 1-shard gate).
  TravelCostEngine* ShardEngine(ShardRuntime& sh) const {
    return sh.cache != nullptr ? sh.cache : engine_;
  }
  /// Phase A of the round protocol: build the shard's context in place and
  /// run its OnBatch. Touches only shard-local state plus read-only global
  /// planes, so shards may run this concurrently.
  void RunShardBatch(ShardRuntime& sh, bool online);
  /// Phase B: merge one shard's output buffers (assignments, rejections,
  /// repositions) into global state. Always serial, in shard-id order.
  void CommitShardOutputs(ShardRuntime& sh);
  void SweepPending();
  void CloseRequest(size_t idx, ReqState to);
  void ApplyRepositions(const std::vector<RepositionMove>& moves);
  void SyncVehicle(size_t vi);
  void RecordStop(const Stop& stop, double when);
  bool AllVehiclesIdle() const;
  RunMetrics Finalize();
  // Geo-sharding (DESIGN.md §12); every one of these is a no-op or
  // unreachable when num_shards_ == 1.
  void MigrateVehicle(size_t vi);
  void DrainEscrow();
  void ScheduleEscrow();
  void CheckConservation() const;

  SimulationEngine* owner_;
  TravelCostEngine* engine_;
  const SimulationOptions& options_;
  const DispatchConfig& config_;
  std::string algorithm_;

  std::vector<Request> requests_;  ///< per-run copy; scenarios may retime it
  std::vector<double> cancel_offset_;
  std::unordered_map<RequestId, size_t> id2idx_;
  std::vector<ReqState> state_;
  std::vector<char> served_mask_;
  std::vector<double> pickup_time_;
  std::vector<double> dropoff_time_;
  std::vector<size_t> pending_;  ///< request indices, release order
  std::vector<char> dispatched_;  ///< request was in some earlier round

  std::vector<Vehicle> fleet_;
  std::vector<uint64_t> scheduled_epoch_;  ///< per vehicle: epoch with a
                                           ///< live queued stop event
  struct PulledVehicle {
    size_t vehicle = 0;
    int64_t scenario = -1;  ///< which scenario pulled it
  };
  std::vector<PulledVehicle> pulled_stack_;

  EventQueue queue_;
  std::unique_ptr<ThreadPool> pool_;
  /// The zone partition and one runtime per zone (DESIGN.md §12). Each
  /// ShardRuntime owns its dispatcher instance, its incrementally
  /// maintained share graph, its persistent DispatchContext (outputs keep
  /// their capacity across rounds), and its round-scoped arena/SoA pools
  /// (DESIGN.md §8).
  /// With num_shards_ == 1 the single runtime sees the unrestricted fleet
  /// and the whole pending pool — the exact pre-sharding round, bitwise.
  ShardPartition partition_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::vector<int> vehicle_shard_;  ///< resident shard per fleet index
  std::vector<int> request_shard_;  ///< owning shard per request index
  /// Boundary escrow: requests whose best candidate vehicle sat across a
  /// zone edge at the end of a round; drained (state-rechecked) at the
  /// start of the next round, re-homing the request to that shard.
  struct EscrowEntry {
    size_t request = 0;
    int to_shard = 0;
  };
  std::vector<EscrowEntry> escrow_;
  /// Heap allocations inside OnBatch, one sample per steady-state round
  /// (see RunMetrics); all-zero unless the counting allocator is linked.
  std::vector<uint64_t> steady_alloc_samples_;
  /// Reposition moves arrive view-local from each shard's context; this
  /// persistent scratch holds the storage-index translation per round.
  std::vector<RepositionMove> round_moves_;
  /// The concurrent batch phase's pool task, built once per run (capturing
  /// only `this`, so the std::function stays within its small-buffer
  /// storage — no per-round allocation).
  std::function<void(size_t)> shard_task_;
  bool round_online_ = false;
  /// Member-plane fingerprints snapshotted before the batch phase and
  /// SR_CHECKed unchanged after it (see MemberPlaneFingerprint).
  std::vector<uint64_t> member_fingerprints_;

  // -- Streaming service mode (DESIGN.md §13) -------------------------------
  /// One ring slot: the request index the producer admitted plus the wall
  /// stamp taken at the push — the start of the ingest→decision latency.
  struct IngestRecord {
    uint32_t idx = 0;
    double wall = 0;
  };
  bool service_ = false;
  /// The virtual-time pacer: virtual seconds per wall second while arrivals
  /// are live. Batch ticks (and every other event) wait for wall time
  /// event.time / time_scale_; once the stream is exhausted and drained the
  /// run free-runs to termination.
  double time_scale_ = 1;
  bool free_running_ = false;
  std::chrono::steady_clock::time_point wall_epoch_;
  std::unique_ptr<SpscRing<IngestRecord>> ring_;
  std::thread producer_;
  std::atomic<bool> producer_done_{false};
  /// The producer's precomputed open-loop schedule: arrival k pushes
  /// request index arrival_idx_[k] at wall second arrival_wall_[k]. Frozen
  /// before the thread starts; the producer reads nothing else of the run.
  std::vector<double> arrival_wall_;
  std::vector<uint32_t> arrival_idx_;
  /// Producer-owned overflow log (read by the consumer only after join).
  std::vector<uint32_t> shed_;
  std::atomic<uint64_t> producer_depth_max_{0};
  uint64_t consumer_depth_max_ = 0;
  /// Wall stamp each drained request carried through the ring.
  std::vector<double> ingest_wall_;
  /// Requests first presented to a dispatcher this round; their
  /// ingest→decision latency is recorded when the round's commit finishes.
  std::vector<size_t> round_new_;
  LatencyHistogram latency_hist_;

  double now_ = 0;
  double tick_time_ = 0;
  bool done_ = false;
  bool installing_ = false;
  bool online_dispatch_ = false;
  int64_t current_scenario_ = -1;
  size_t released_ = 0;
  size_t open_count_ = 0;
  int served_ = 0;
  int cancelled_ = 0;
  int expired_ = 0;
  int rejected_ = 0;
  int late_dropoffs_ = 0;
  int num_shards_ = 1;
  int cross_shard_trips_ = 0;
  double dispatch_seconds_ = 0;
  uint64_t queries_before_ = 0;
  uint64_t lookups_before_ = 0;
};

RunMetrics SimulationEngine::EventRun::Execute() {
  const size_t n = requests_.size();
  fleet_ = owner_->BuildFleet();
  cancel_offset_ = owner_->DrawCancelOffsets();
  id2idx_.reserve(n);
  for (size_t i = 0; i < n; ++i) id2idx_[requests_[i].id] = i;
  state_.assign(n, ReqState::kUnreleased);
  dispatched_.assign(n, 0);
  served_mask_.assign(n, 0);
  pickup_time_.assign(n, 0);
  dropoff_time_.assign(n, 0);
  scheduled_epoch_.assign(fleet_.size(), kNoEpoch);

  // One worker pool per run, shared by every shard's rounds — thread
  // startup never recurs per batch. Built when some dispatcher stage
  // consumes it (SARD's parallel acceptance) or the multi-shard round can
  // run its batch phase concurrently. The pool's presence never changes
  // outcomes (disjoint index-addressed writes + serial merges), so serial
  // and concurrent shard modes see identical inputs either way.
  num_shards_ = std::max(1, config_.num_shards);
  if (config_.num_threads > 1 &&
      (config_.sard_parallel_acceptance || num_shards_ > 1)) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  // The zone partition and one runtime per zone. Each shard gets its own
  // dispatcher instance, its own travel-cost cache partition (so concurrent
  // shards never contend on a cache lock), and its own share graph: free
  // (empty containers) for dispatchers that never sync into it, incremental
  // for those that do, outliving every batch.
  partition_.Build(engine_->network(), num_shards_, config_.shard_grid_cols);
  if (num_shards_ > 1) {
    owner_->EnsureCachePartitions(num_shards_, config_);
  }
  shards_.clear();
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    auto sh = std::make_unique<ShardRuntime>();
    sh->id = s;
    if (num_shards_ > 1) {
      sh->cache = owner_->cache_partitions_[static_cast<size_t>(s)].get();
      sh->queries_at_run_start = sh->cache->num_queries();
      sh->lookups_at_run_start = sh->cache->num_lookups();
    }
    sh->dispatcher = MakeDispatcher(algorithm_, config_);
    sh->sharegraph = std::make_unique<ShareGraphBuilder>(ShardEngine(*sh),
                                                         config_.sharegraph);
    shards_.push_back(std::move(sh));
  }
  shard_task_ = [this](size_t s) { RunShardBatch(*shards_[s], round_online_); };
  // Vehicles home to the zone of their spawn node; filling in fleet order
  // keeps every member list ascending (the FleetView contract).
  vehicle_shard_.resize(fleet_.size());
  for (size_t vi = 0; vi < fleet_.size(); ++vi) {
    vehicle_shard_[vi] = partition_.ShardOfNode(fleet_[vi].node());
    shards_[static_cast<size_t>(vehicle_shard_[vi])]->members.push_back(vi);
  }
  request_shard_.assign(n, 0);
  // After EnsureCachePartitions: the root's counters aggregate over its
  // partitions (live or retired), so these baselines make the run's deltas
  // partition-lifetime-proof.
  queries_before_ = engine_->num_queries();
  lookups_before_ = engine_->num_lookups();

  // Install phase: scenarios reshape the per-run stream and schedule their
  // events before anything fires.
  installing_ = true;
  for (size_t si = 0; si < owner_->scenarios_.size(); ++si) {
    current_scenario_ = static_cast<int64_t>(si);
    owner_->scenarios_[si]->OnInstall(this);
  }
  current_scenario_ = -1;
  installing_ = false;

  // Schedule every release. Stable sort on (possibly retimed) release times
  // keeps equal-time requests in stored order, and the queue's FIFO tie
  // break preserves it, so pending pools list requests in release order.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return requests_[a].release_time < requests_[b].release_time;
  });
  service_ = options_.service_mode;
  if (service_) {
    // Service mode: releases arrive through the ingestion ring instead of
    // the pre-scheduled queue — the stream leaves the EventQueue entirely.
    SetupServiceMode(order);
  } else {
    for (size_t idx : order) {
      queue_.Push({requests_[idx].release_time, EventType::kRequestRelease,
                   static_cast<int64_t>(idx), 0});
    }
  }

  // Batch ticks accumulate as `tick += period`, so tick timestamps are the
  // same doubles in every run.
  const double period = options_.batch_period > 0 ? options_.batch_period : 1;
  tick_time_ = period;
  queue_.Push({tick_time_, EventType::kBatchTick, 0, 0});

  while (!done_ && !queue_.empty()) {
    Event e = queue_.Pop();
    if (service_ && !free_running_) {
      // The virtual-time pacer: no event fires before its wall deadline
      // while arrivals are still live. Once the producer is done, the ring
      // drained and nothing is open, the tail (in-flight trips completing)
      // free-runs — there is no arrival left for it to race.
      if (producer_done_.load(std::memory_order_acquire) &&
          ring_->SizeApprox() == 0 && open_count_ == 0) {
        free_running_ = true;
      } else {
        SleepUntilWall(e.time / time_scale_);
      }
    }
    now_ = e.time;
    switch (e.type) {
      case EventType::kRequestRelease:
        HandleRelease(static_cast<size_t>(e.a));
        break;
      case EventType::kStopCompletion:
        HandleStopEvent(static_cast<size_t>(e.a), e.b);
        break;
      case EventType::kVehicleMigration:
        MigrateVehicle(static_cast<size_t>(e.a));
        break;
      case EventType::kScenario:
        current_scenario_ = e.a;
        owner_->scenarios_[static_cast<size_t>(e.a)]->OnEvent(this, e.b);
        current_scenario_ = -1;
        break;
      case EventType::kBatchTick:
        // Service mode drains the ring right at the batch boundary: every
        // arrival admitted by now joins this round's pending pool.
        if (service_) DrainIngest();
        DispatchRound(/*online=*/false);
        // The termination condition, evaluated after the round:
        // stream exhausted, nothing open, fleet idle. In service mode the
        // stream is exhausted when the producer finished and the ring is
        // empty — shed arrivals never release, so released_ can't reach n.
        if ((service_ ? (producer_done_.load(std::memory_order_acquire) &&
                         ring_->SizeApprox() == 0)
                      : released_ >= n) &&
            open_count_ == 0 && AllVehiclesIdle()) {
          done_ = true;
        } else {
          tick_time_ += period;
          queue_.Push({tick_time_, EventType::kBatchTick, 0, 0});
        }
        break;
      case EventType::kRiderCancellation:
        if (state_[static_cast<size_t>(e.a)] == ReqState::kOpen) {
          CloseRequest(static_cast<size_t>(e.a), ReqState::kCancelled);
          ++cancelled_;
        }
        break;
      case EventType::kRiderExpiry:
        if (state_[static_cast<size_t>(e.a)] == ReqState::kOpen) {
          CloseRequest(static_cast<size_t>(e.a), ReqState::kExpired);
          ++expired_;
        }
        break;
    }
  }
  if (producer_.joinable()) producer_.join();
  // Finish any in-flight reposition legs: the policy committed to the move,
  // so its deadhead cost is charged even though the run is over. Committed
  // stops cannot remain here (termination requires an idle fleet).
  for (Vehicle& v : fleet_) {
    v.AdvanceTo(kInf, [this](const Stop& stop, double when) {
      RecordStop(stop, when);
    });
  }
  return Finalize();
}

void SimulationEngine::EventRun::SetupServiceMode(
    const std::vector<size_t>& order) {
  SR_CHECK(options_.service_qps > 0);
  const size_t n = order.size();
  ring_ = std::make_unique<SpscRing<IngestRecord>>(
      std::max<size_t>(1, options_.service_queue_capacity));
  ingest_wall_.assign(requests_.size(), 0);

  // The virtual-time scale. By default it maps the stream's virtual span
  // onto the wall time the target rate needs for n arrivals, so the demand
  // density per batch is qps-invariant and only the wall budget per round
  // shrinks as qps grows — which is what makes "sustainable" monotone in
  // qps and the bench's binary search valid.
  double span_v = options_.batch_period > 0 ? options_.batch_period : 1;
  if (n > 1) {
    span_v = std::max(span_v, requests_[order.back()].release_time -
                                  requests_[order.front()].release_time);
  }
  time_scale_ = options_.service_time_scale > 0
                    ? options_.service_time_scale
                    : options_.service_qps * span_v / std::max<size_t>(1, n);
  SR_CHECK(time_scale_ > 0);

  // Freeze the producer's open-loop schedule before the thread exists:
  // generator-driven is uniform 1/qps spacing; trace-driven rescales the
  // stream's own inter-arrival gaps through the virtual clock. Either way
  // the arrival *order* is the stream order, so drained releases reproduce
  // the replay engine's pending order round by round.
  arrival_wall_.resize(n);
  arrival_idx_.resize(n);
  const double first_v = n > 0 ? requests_[order.front()].release_time : 0;
  for (size_t k = 0; k < n; ++k) {
    arrival_idx_[k] = static_cast<uint32_t>(order[k]);
    arrival_wall_[k] =
        options_.service_trace_arrivals
            ? (requests_[order[k]].release_time - first_v) / time_scale_
            : static_cast<double>(k) / options_.service_qps;
  }
  shed_.clear();
  latency_hist_.Reset();
  wall_epoch_ = std::chrono::steady_clock::now();
  producer_ = std::thread([this] { ProducerLoop(); });
}

void SimulationEngine::EventRun::ProducerLoop() {
  // Open loop: each arrival fires at its precomputed wall time no matter
  // what the dispatcher is doing; a full ring rejects it (shed), it never
  // waits. The thread reads only its frozen schedule, the ring, and the
  // wall clock — nothing the consumer mutates.
  uint64_t depth_max = 0;
  for (size_t k = 0; k < arrival_wall_.size(); ++k) {
    SleepUntilWall(arrival_wall_[k]);
    if (ring_->TryPush({arrival_idx_[k], WallNow()})) {
      depth_max = std::max<uint64_t>(depth_max, ring_->SizeApprox());
    } else {
      shed_.push_back(arrival_idx_[k]);
    }
  }
  producer_depth_max_.store(depth_max, std::memory_order_relaxed);
  producer_done_.store(true, std::memory_order_release);
}

void SimulationEngine::EventRun::DrainIngest() {
  consumer_depth_max_ =
      std::max<uint64_t>(consumer_depth_max_, ring_->SizeApprox());
  IngestRecord rec;
  while (ring_->TryPop(&rec)) {
    const size_t idx = rec.idx;
    // The arrival lands *now* in virtual time: shift the request's window
    // slack-preservingly onto its actual release, exactly like scenario
    // retiming, so deadlines mean the same thing at any qps.
    Request& r = requests_[idx];
    const double delta = now_ - r.release_time;
    r.release_time = now_;
    r.deadline += delta;
    r.latest_pickup += delta;
    ingest_wall_[idx] = rec.wall;
    OpenRequest(idx);
  }
}

void SimulationEngine::EventRun::SleepUntilWall(double target) const {
  for (;;) {
    const double remain = target - WallNow();
    if (remain <= 0) return;
    if (remain > 2e-4) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remain - 1e-4));
    } else {
      std::this_thread::yield();
    }
  }
}

void SimulationEngine::EventRun::OpenRequest(size_t idx) {
  SR_CHECK(state_[idx] == ReqState::kUnreleased);
  state_[idx] = ReqState::kOpen;
  ++open_count_;
  ++released_;
  pending_.push_back(idx);
  request_shard_[idx] = partition_.ShardOfNode(requests_[idx].source);
  const Request& r = requests_[idx];
  // Lifecycle events are scheduled lazily at release so retimed requests
  // carry their shifted deadlines and cancellation countdowns naturally.
  queue_.Push({r.latest_pickup, EventType::kRiderExpiry,
               static_cast<int64_t>(idx), 0});
  if (cancel_offset_[idx] < kInf) {
    queue_.Push({r.release_time + cancel_offset_[idx],
                 EventType::kRiderCancellation, static_cast<int64_t>(idx), 0});
  }
}

void SimulationEngine::EventRun::HandleRelease(size_t idx) {
  OpenRequest(idx);
  if (!online_dispatch_) return;
  // Per-request online mode: dispatch right at release, coalescing
  // same-timestamp releases into one round.
  while (!queue_.empty() && queue_.Top().type == EventType::kRequestRelease &&
         queue_.Top().time == now_) {
    OpenRequest(static_cast<size_t>(queue_.Pop().a));
  }
  DispatchRound(/*online=*/true);
}

void SimulationEngine::EventRun::HandleStopEvent(size_t vi, int64_t epoch) {
  Vehicle& v = fleet_[vi];
  if (static_cast<uint64_t>(epoch) != v.epoch()) return;  // stale: the
  // committed timeline changed after this event was queued.
  v.AdvanceTo(now_, [this](const Stop& stop, double when) {
    RecordStop(stop, when);
  });
  SyncVehicle(vi);
  // Vehicle migration is a first-class event: crossing a zone edge at a
  // stop queues a re-home at the same timestamp. The event slot orders
  // after every same-time stop completion and before the same-time batch
  // tick (sim/event_queue.h), so a round always sees settled residency.
  if (num_shards_ > 1 &&
      partition_.ShardOfNode(v.node()) != vehicle_shard_[vi]) {
    queue_.Push({now_, EventType::kVehicleMigration,
                 static_cast<int64_t>(vi), 0});
  }
}

void SimulationEngine::EventRun::MigrateVehicle(size_t vi) {
  if (num_shards_ <= 1) return;
  // Re-check against fresh state: a vehicle can cross several edges (or
  // bounce back) between the queued event and now; the handler is
  // idempotent and later duplicates self-drop here.
  const int zone = partition_.ShardOfNode(fleet_[vi].node());
  const int cur = vehicle_shard_[vi];
  if (zone == cur) return;
  std::vector<size_t>& from = shards_[static_cast<size_t>(cur)]->members;
  auto it = std::lower_bound(from.begin(), from.end(), vi);
  SR_CHECK(it != from.end() && *it == vi);
  from.erase(it);
  std::vector<size_t>& to = shards_[static_cast<size_t>(zone)]->members;
  to.insert(std::lower_bound(to.begin(), to.end(), vi), vi);
  vehicle_shard_[vi] = zone;
}

void SimulationEngine::EventRun::DispatchRound(bool online) {
  // Boundary escrow drains first: a request whose best candidate sat
  // across a zone edge at the end of the previous round re-homes to that
  // shard before anyone dispatches this round.
  if (num_shards_ > 1) DrainEscrow();

  // The one mark-and-sweep over request state: lifecycle events and the
  // previous round's assignments only *marked* states; this compaction
  // drops every closed request from the pending pool.
  SweepPending();

  // Steady-state classification (RunMetrics doc): the round counts when
  // every pending request has already been through a dispatch round — the
  // pools-are-warm regime the zero-allocation guarantee covers. The
  // classification stays global: the guarantee covers the whole round
  // across every shard, so the sample below sums the per-shard deltas.
  bool steady = !pending_.empty();
  round_new_.clear();
  for (size_t idx : pending_) {
    if (!dispatched_[idx]) {
      steady = false;
      if (service_) round_new_.push_back(idx);
    }
    dispatched_[idx] = 1;
  }

  round_moves_.clear();

  // Phase A — batch. Every shard builds its context and runs OnBatch,
  // touching only shard-local state (its dispatcher, share graph, arena,
  // SoA planes, cache partition, output buffers) plus read-only global
  // planes (requests_, pending_, state_, request_shard_, member vehicles).
  // That isolation is what makes the concurrent path legal; the member-
  // plane fingerprints assert a slice of it every round. Either way the
  // per-shard work is identical, so the commit phase below observes the
  // same buffers and the two modes are bitwise interchangeable.
  if (num_shards_ > 1) {
    member_fingerprints_.clear();
    for (const std::unique_ptr<ShardRuntime>& sh : shards_) {
      member_fingerprints_.push_back(MemberPlaneFingerprint(sh->members));
    }
  }
  const bool concurrent = num_shards_ > 1 && config_.concurrent_shards &&
                          pool_ != nullptr && pool_->size() > 1;
  uint64_t round_allocs = 0;
  if (concurrent) {
    // Section-level sampling: once shards share the wall clock and the
    // process-wide heap counter, per-shard deltas cross-pollute, so the
    // concurrent mode times the whole parallel section and samples
    // allocations around it. Both are excluded from the bitwise parity
    // contract (like running_time); steady-round allocations stay 0 either
    // way once the pools are warm.
    const uint64_t allocs_before = CurrentHeapAllocCount();
    round_online_ = online;
    const auto t0 = std::chrono::steady_clock::now();
    pool_->ParallelFor(shards_.size(), shard_task_);
    dispatch_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    round_allocs = CurrentHeapAllocCount() - allocs_before;
  } else {
    for (std::unique_ptr<ShardRuntime>& shp : shards_) {
      RunShardBatch(*shp, online);
      dispatch_seconds_ += shp->last_batch_seconds;
      round_allocs += shp->last_batch_allocs;
    }
  }
  if (num_shards_ > 1) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      // No shard may have touched any member plane (its own included)
      // during the batch phase; residency only moves via migration events
      // and the escrow drain, never mid-round.
      SR_CHECK(MemberPlaneFingerprint(shards_[s]->members) ==
               member_fingerprints_[s]);
    }
  }

  // Phase B — commit: merge the output buffers serially in shard-id order,
  // so request closures, cross-shard accounting and share-graph retirement
  // observe exactly the serial shard loop's sequence.
  for (std::unique_ptr<ShardRuntime>& shp : shards_) CommitShardOutputs(*shp);
  if (steady) steady_alloc_samples_.push_back(round_allocs);

  // Ingest→decision latency: from the producer's push stamp to the end of
  // the first dispatch round that presented the request — the rider-visible
  // "how long until the platform decided about me" figure, recorded once
  // per request at its first round regardless of the decision.
  if (service_ && !round_new_.empty()) {
    const double wall = WallNow();
    for (size_t idx : round_new_) {
      latency_hist_.Record((wall - ingest_wall_[idx]) * 1e3);
    }
  }

  if (!round_moves_.empty()) ApplyRepositions(round_moves_);
  if (owner_->repositioning_ != nullptr) {
    std::vector<const Request*> open;
    open.reserve(pending_.size());
    for (size_t idx : pending_) {
      if (state_[idx] == ReqState::kOpen) open.push_back(&requests_[idx]);
    }
    RepositioningContext rc;
    rc.now = now_;
    rc.net = &engine_->network();
    rc.fleet = &fleet_;
    rc.open = &open;
    std::vector<RepositionMove> moves;
    owner_->repositioning_->Propose(rc, &moves);
    ApplyRepositions(moves);
  }

  if (num_shards_ > 1) {
    ScheduleEscrow();
    CheckConservation();
  }

  // Commits and repositions changed committed timelines; (re)queue one stop
  // event per vehicle with work in flight.
  for (size_t vi = 0; vi < fleet_.size(); ++vi) SyncVehicle(vi);
}

void SimulationEngine::EventRun::RunShardBatch(ShardRuntime& sh, bool online) {
  // Each shard's context persists across rounds: outputs keep their
  // capacity, the pending view is rebuilt in place, the arena rewinds
  // over warm chunks. A single shard sees the unrestricted fleet and the
  // root travel-cost engine — the pre-sharding context, bitwise.
  DispatchContext& ctx = sh.ctx;
  ctx.now = now_;
  ctx.engine = ShardEngine(sh);
  ctx.fleet = num_shards_ == 1 ? FleetView(&fleet_)
                               : FleetView(&fleet_, &sh.members);
  ctx.pool = pool_.get();
  ctx.online_event = online;
  ctx.sharegraph = sh.sharegraph.get();
  ctx.assigned.clear();
  ctx.rejected.clear();
  ctx.repositions.clear();
  ctx.pending.clear();
  ctx.pending.reserve(pending_.size());
  ctx.pending_ingest_wall.clear();
  for (size_t idx : pending_) {
    if (num_shards_ > 1 && request_shard_[idx] != sh.id) continue;
    ctx.pending.push_back(&requests_[idx]);
    if (service_) ctx.pending_ingest_wall.push_back(ingest_wall_[idx]);
  }
  sh.arena.Reset();
  sh.fleet_soa.Refresh(ctx.fleet);
  sh.pending_soa.Refresh(
      Span<const Request* const>(ctx.pending.data(), ctx.pending.size()));
  ctx.arena = &sh.arena;
  ctx.fleet_soa = &sh.fleet_soa;
  ctx.pending_soa = &sh.pending_soa;

  const uint64_t allocs_before = CurrentHeapAllocCount();
  auto t0 = std::chrono::steady_clock::now();
  sh.dispatcher->OnBatch(&ctx);
  sh.last_batch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  sh.batch_seconds_total += sh.last_batch_seconds;
  sh.last_batch_allocs = CurrentHeapAllocCount() - allocs_before;
}

void SimulationEngine::EventRun::CommitShardOutputs(ShardRuntime& sh) {
  DispatchContext& ctx = sh.ctx;
  for (RequestId id : ctx.assigned) {
    auto it = id2idx_.find(id);
    SR_CHECK(it != id2idx_.end());
    const size_t idx = it->second;
    // Conservation gates: no other shard (or earlier output) may have
    // closed it this round, and a shard may only ever assign requests homed
    // to it (its pending view was filtered on exactly that).
    SR_CHECK(state_[idx] == ReqState::kOpen);
    SR_CHECK(request_shard_[idx] == sh.id);
    if (partition_.ShardOfNode(requests_[idx].source) != sh.id) {
      ++cross_shard_trips_;  // the trip went through the escrow handoff
    }
    CloseRequest(idx, ReqState::kAssigned);
    ++sh.assigned_total;
  }
  for (RequestId id : ctx.rejected) {
    auto it = id2idx_.find(id);
    SR_CHECK(it != id2idx_.end());
    SR_CHECK(state_[it->second] == ReqState::kOpen);
    SR_CHECK(request_shard_[it->second] == sh.id);
    CloseRequest(it->second, ReqState::kRejected);
    ++rejected_;
  }
  // Dispatcher-proposed relocations arrive view-local; translate to
  // fleet-storage indices, applied once after every shard committed.
  for (const RepositionMove& mv : ctx.repositions) {
    if (mv.vehicle >= ctx.fleet.size()) continue;
    round_moves_.push_back({ctx.fleet.global_index(mv.vehicle), mv.target});
  }
}

void SimulationEngine::EventRun::DrainEscrow() {
  for (const EscrowEntry& e : escrow_) {
    // Re-check against fresh state: the request may have been assigned,
    // cancelled or expired since the entry was queued, or already re-homed
    // by an earlier entry.
    if (state_[e.request] != ReqState::kOpen) continue;
    if (request_shard_[e.request] == e.to_shard) continue;
    request_shard_[e.request] = e.to_shard;
  }
  escrow_.clear();
}

void SimulationEngine::EventRun::ScheduleEscrow() {
  // End of round: every still-open request looks across the whole metro for
  // its nearest in-service vehicle (straight-line lower bound — a routing
  // probe here would distort sp_queries). If that candidate resides in a
  // foreign shard, the request enters escrow toward it; the handoff lands
  // at the start of the next round.
  for (size_t idx : pending_) {
    if (state_[idx] != ReqState::kOpen) continue;
    const size_t vi = NearestInServiceVehicle(fleet_, engine_->network(),
                                              requests_[idx].source);
    if (vi == SIZE_MAX) continue;
    const int target = vehicle_shard_[vi];
    if (target != request_shard_[idx]) escrow_.push_back({idx, target});
  }
}

void SimulationEngine::EventRun::CheckConservation() const {
  // Vehicle conservation: the member lists are ascending, disjoint, and
  // partition [0, fleet) exactly — no vehicle lost or duplicated by
  // migration.
  std::vector<char> seen(fleet_.size(), 0);
  size_t total = 0;
  for (const std::unique_ptr<ShardRuntime>& sh : shards_) {
    for (size_t k = 0; k < sh->members.size(); ++k) {
      const size_t vi = sh->members[k];
      SR_CHECK(vi < fleet_.size());
      SR_CHECK(!seen[vi]);
      seen[vi] = 1;
      SR_CHECK(vehicle_shard_[vi] == sh->id);
      if (k > 0) SR_CHECK(sh->members[k - 1] < vi);
      ++total;
    }
  }
  SR_CHECK(total == fleet_.size());
  // Request conservation: the per-outcome counters (incremented exactly
  // once at each closure site) agree with the state array, so no request
  // was double-closed or dropped.
  size_t open = 0, cancelled = 0, expired = 0, rejected = 0, unreleased = 0;
  for (ReqState s : state_) {
    switch (s) {
      case ReqState::kUnreleased: ++unreleased; break;
      case ReqState::kOpen: ++open; break;
      case ReqState::kCancelled: ++cancelled; break;
      case ReqState::kExpired: ++expired; break;
      case ReqState::kRejected: ++rejected; break;
      case ReqState::kAssigned:
      case ReqState::kServed: break;
    }
  }
  SR_CHECK(open == open_count_);
  SR_CHECK(unreleased == state_.size() - released_);
  SR_CHECK(cancelled == static_cast<size_t>(cancelled_));
  SR_CHECK(expired == static_cast<size_t>(expired_));
  SR_CHECK(rejected == static_cast<size_t>(rejected_));
}

void SimulationEngine::EventRun::SweepPending() {
  size_t out = 0;
  for (size_t k = 0; k < pending_.size(); ++k) {
    if (state_[pending_[k]] == ReqState::kOpen) pending_[out++] = pending_[k];
  }
  pending_.resize(out);
}

void SimulationEngine::EventRun::CloseRequest(size_t idx, ReqState to) {
  if (state_[idx] == ReqState::kOpen) --open_count_;
  state_[idx] = to;
  // End of lifetime for the maintained share graphs: assignment, rejection,
  // cancellation and expiry retire the request from *every* shard's builder
  // in O(degree) — a request escrowed between rounds can transiently live
  // in two builders until the old shard's next sync, so no single owner can
  // be assumed. A no-op for requests that never reached a dispatch round
  // (or on the second close of an assigned rider when the dropoff
  // completes).
  for (const std::unique_ptr<ShardRuntime>& sh : shards_) {
    sh->sharegraph->RemoveRequest(requests_[idx].id);
  }
}

void SimulationEngine::EventRun::RetimeZoneWindow(int zone, double begin,
                                                  double end, double factor) {
  SR_CHECK(installing_);  // the stream is scheduled right after install
  SR_CHECK(end > begin);
  SR_CHECK(factor > 0);
  for (Request& r : requests_) {
    if (r.release_time < begin || r.release_time >= end) continue;
    if (zone >= 0 && partition_.ShardOfNode(r.source) != zone) continue;
    double retimed = begin + (r.release_time - begin) / factor;
    double delta = retimed - r.release_time;
    r.release_time = retimed;
    r.deadline += delta;        // slack-preserving shift
    r.latest_pickup += delta;
  }
}

int SimulationEngine::EventRun::PullVehiclesInZone(int zone, int count) {
  SR_CHECK(current_scenario_ >= 0);  // only from OnInstall / OnEvent
  int pulled = 0;
  // Idle vehicles first, then busy ones, ascending index: deterministic
  // and least disruptive to committed riders.
  for (int want_idle = 1; want_idle >= 0; --want_idle) {
    for (size_t vi = 0; vi < fleet_.size() && pulled < count; ++vi) {
      Vehicle& v = fleet_[vi];
      if (!v.in_service() || static_cast<int>(v.idle()) != want_idle) {
        continue;
      }
      if (zone >= 0 && partition_.ShardOfNode(v.node()) != zone) continue;
      v.CancelReposition();  // off-duty vehicles stop chasing demand
      v.set_in_service(false);
      pulled_stack_.push_back({vi, current_scenario_});
      ++pulled;
    }
  }
  return pulled;
}

void SimulationEngine::EventRun::ApplyRepositions(
    const std::vector<RepositionMove>& moves) {
  for (const RepositionMove& mv : moves) {
    if (mv.vehicle >= fleet_.size()) continue;
    if (mv.target < 0 ||
        static_cast<size_t>(mv.target) >= engine_->network().num_nodes()) {
      continue;
    }
    Vehicle& v = fleet_[mv.vehicle];
    if (!v.in_service() || !v.idle() || v.repositioning()) continue;
    v.BeginReposition(mv.target, now_, engine_);
  }
}

void SimulationEngine::EventRun::SyncVehicle(size_t vi) {
  Vehicle& v = fleet_[vi];
  if (scheduled_epoch_[vi] == v.epoch()) return;  // live event queued
  double when = v.next_completion_time();
  if (!(when < kInf)) return;  // nothing in flight; stale events self-drop
  queue_.Push({when, EventType::kStopCompletion, static_cast<int64_t>(vi),
               static_cast<int64_t>(v.epoch())});
  scheduled_epoch_[vi] = v.epoch();
}

void SimulationEngine::EventRun::RecordStop(const Stop& stop, double when) {
  auto it = id2idx_.find(stop.request);
  SR_CHECK(it != id2idx_.end());
  size_t idx = it->second;
  if (stop.kind == StopKind::kPickup) {
    pickup_time_[idx] = when;
    return;
  }
  dropoff_time_[idx] = when;
  if (when <= stop.deadline + 1e-6) {
    ++served_;
    served_mask_[idx] = 1;
    CloseRequest(idx, ReqState::kServed);
  } else {
    ++late_dropoffs_;  // impossible by construction; pinned by tests
  }
}

bool SimulationEngine::EventRun::AllVehiclesIdle() const {
  for (const Vehicle& v : fleet_) {
    if (!v.idle()) return false;
  }
  return true;
}

RunMetrics SimulationEngine::EventRun::Finalize() {
  const size_t n = requests_.size();
  RunMetrics metrics;
  metrics.dataset = options_.dataset;
  metrics.algorithm = algorithm_;
  metrics.total_requests = static_cast<int>(n);
  metrics.served = served_;
  metrics.cancelled = cancelled_;
  metrics.expired = expired_;
  metrics.rejected = rejected_;
  metrics.service_rate =
      n == 0 ? 0 : static_cast<double>(served_) / static_cast<double>(n);
  for (const Vehicle& v : fleet_) {
    metrics.travel_cost += v.total_travel_cost();
    metrics.repositions += v.repositions_completed();
    metrics.reposition_cost += v.reposition_cost();
  }
  // Unified cost (Sec. II): total travel plus p_r for every request not
  // served, with p_r = coefficient * direct cost. Cancelled riders count as
  // unserved — the platform lost them. Summed in stored request order, so
  // the double is deterministic.
  double penalty = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!served_mask_[i]) {
      penalty += config_.penalty_coefficient * requests_[i].direct_cost;
    }
  }
  metrics.penalty_cost = penalty;
  metrics.unified_cost = metrics.travel_cost + penalty;
  metrics.running_time = dispatch_seconds_;
  metrics.sp_queries = engine_->num_queries() - queries_before_;
  // Pair checks and instrumented memory sum over the shards (one term with
  // a single shard — the pre-sharding numbers, bitwise). A shard's checks
  // are its run builder's plus any its dispatcher's per-batch rebuilds
  // spent.
  uint64_t pair_checks = 0;
  size_t memory_bytes = 0;
  std::vector<uint64_t> loads;
  std::vector<double> batch_times;
  loads.reserve(shards_.size());
  batch_times.reserve(shards_.size());
  for (const std::unique_ptr<ShardRuntime>& sh : shards_) {
    pair_checks +=
        sh->sharegraph->pair_checks() + sh->dispatcher->SharePairChecks();
    memory_bytes += sh->dispatcher->MemoryBytes();
    loads.push_back(sh->assigned_total);
    batch_times.push_back(sh->batch_seconds_total);
    // Per-shard cache accounting: the shard's partition under geo-sharding,
    // the root engine's run delta at 1 shard (where the single shard *is*
    // the whole run).
    uint64_t q, l;
    if (sh->cache != nullptr) {
      q = sh->cache->num_queries() - sh->queries_at_run_start;
      l = sh->cache->num_lookups() - sh->lookups_at_run_start;
    } else {
      q = engine_->num_queries() - queries_before_;
      l = engine_->num_lookups() - lookups_before_;
    }
    metrics.shard_sp_queries.push_back(q);
    metrics.shard_cache_hit_rate.push_back(
        l == 0 ? 0 : 1.0 - static_cast<double>(q) / static_cast<double>(l));
  }
  metrics.sharegraph_pair_checks = pair_checks;
  metrics.memory_bytes = memory_bytes;
  metrics.num_shards = num_shards_;
  metrics.cross_shard_trips = cross_shard_trips_;
  metrics.shard_load_max_over_mean = ShardLoadMaxOverMean(loads);
  metrics.shard_round_time_max_over_mean = MaxOverMean(batch_times);
  metrics.late_dropoffs = late_dropoffs_;
  // Final census: every request reached exactly one terminal outcome.
  // Committed riders all completed (termination drains the fleet), so
  // served + late covers the assigned. Shed arrivals never released — they
  // are the only way a request stays kUnreleased to the end.
  SR_CHECK(static_cast<size_t>(served_) + static_cast<size_t>(cancelled_) +
               static_cast<size_t>(expired_) + static_cast<size_t>(rejected_) +
               static_cast<size_t>(late_dropoffs_) + shed_.size() ==
           n);
  if (service_) {
    metrics.shed_requests = shed_.size();
    metrics.ingest_queue_depth_max =
        std::max(consumer_depth_max_,
                 producer_depth_max_.load(std::memory_order_relaxed));
    if (latency_hist_.count() > 0) {
      metrics.dispatch_latency_p50_ms = latency_hist_.Quantile(0.50);
      metrics.dispatch_latency_p99_ms = latency_hist_.Quantile(0.99);
      metrics.dispatch_latency_p999_ms = latency_hist_.Quantile(0.999);
    }
  }
  if (!steady_alloc_samples_.empty()) {
    std::vector<uint64_t> sorted = steady_alloc_samples_;
    std::sort(sorted.begin(), sorted.end());
    metrics.allocs_per_batch_p50 = sorted[(sorted.size() - 1) / 2];
    metrics.allocs_per_batch_max = sorted.back();
  }
  metrics.arena_peak_bytes = EpochArena::ProcessPeakRetainedBytes();
  FinalizeServiceQuality(requests_, served_mask_, pickup_time_, dropoff_time_,
                         &metrics);
  return metrics;
}

RunMetrics SimulationEngine::Run(const std::string& algorithm,
                                 const DispatchConfig& config) {
  SR_CHECK(!spawn_nodes_.empty());  // SpawnFleet first
  EventRun run(this, algorithm, config);
  return run.Execute();
}

void SimulationEngine::EnsureCachePartitions(int num_shards,
                                             const DispatchConfig& config) {
  size_t capacity = config.shard_cache_capacity;
  if (capacity == 0) {
    capacity = std::max<size_t>(
        1024, engine_->options().cache_capacity /
                  static_cast<size_t>(std::max(1, num_shards)));
  }
  if (cache_partitions_.size() == static_cast<size_t>(num_shards) &&
      partition_capacity_ == capacity) {
    return;  // shape unchanged — keep the warm partitions
  }
  cache_partitions_.clear();
  cache_partitions_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    cache_partitions_.push_back(
        engine_->MakeCachePartition(capacity, kPartitionStripes));
  }
  partition_capacity_ = capacity;
}

}  // namespace structride
