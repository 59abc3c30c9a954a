// The repository's end-to-end benchmark program. It generates one NYC
// workload from a seed, replays it under SARD for a fixed wall budget —
// closed loop (the event core as fast as it goes) or open loop (the
// streaming service mode at a fixed offered rate) — checks every run's
// outputs, and prints one JSON result line. perfbench/run.py builds it and
// is the command to use; perfbench/NOTES.md explains the workloads and the
// metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--trace-file <path>]
//
// Only public library APIs are driven. The engine never sees the seed: it
// receives the generated requests and a derived spawn seed. Per-round wall
// times come from a repositioning hook that proposes no moves, which leaves
// every outcome bitwise unchanged.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "roadnet/hub_labeling.h"
#include "roadnet/travel_cost.h"
#include "sim/datasets.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/random.h"

namespace {

using structride::DatasetSpec;
using structride::DispatchConfig;
using structride::GraphBundle;
using structride::HubLabeling;
using structride::NodeId;
using structride::Request;
using structride::RunMetrics;
using structride::SimulationEngine;
using structride::SimulationOptions;
using structride::TravelCostEngine;
using structride::TravelCostOptions;
using Clock = std::chrono::steady_clock;

constexpr int kCapacity = 4;
constexpr double kBatchPeriod = 5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// An open-loop run may take this factor times its arrival span (plus a
/// constant slack for the drain tail) before it counts as collapsed.
constexpr double kCollapseFactor = 1.5;
constexpr double kCollapseSlackS = 2;
constexpr int kCollapseExitCode = 3;

struct Workload {
  const char* name;
  int num_requests;
  double duration;  ///< arrival window, simulated seconds
  int num_vehicles;
  int num_shards;
  int num_threads;
  double stream_qps;    ///< > 0: open loop through the service mode
  uint64_t input_salt;  ///< workloads with one salt share their inputs
};

// Why these three (NOTES.md has the numbers behind each choice):
//  - nyc-dense: ~28 arrivals per 5 s round against 1000 vehicles for ~1940
//    rounds. The share graph, grouping, insertion and travel-cost misses
//    dominate; fleet-wide per-round work stays small.
//  - nyc-fleet-4shard: a 4000-vehicle fleet over 4 shards with ~14 arrivals
//    per round. Per-round O(fleet) simulator work, escrow and migration
//    dominate; the share graph is light. One thread: rounds this light ran
//    slower and far less steadily on four threads of a shared 4-vCPU host.
//  - nyc-stream: nyc-dense's city and arrival density over half its window,
//    offered open loop at a fixed rate, so every arrival crosses the
//    ingestion ring and the wall-clock pacer. 600 vehicles leave a backlog
//    that gives each round enough work for decision latency to reflect it.
//    The rate sits well below the collapse point (NOTES.md).
constexpr Workload kWorkloads[] = {
    {"nyc-dense", 52000, 9300, 1000, 1, 1, 0, 1},
    {"nyc-fleet-4shard", 60000, 21600, 4000, 4, 1, 0, 2},
    {"nyc-stream", 26000, 4650, 600, 1, 1, 1500, 1},
};

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Median; the mean of the middle two for an even count, 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t half = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + half, v.end());
  if (v.size() % 2 == 1) return v[half];
  return (*std::max_element(v.begin(), v.begin() + half) + v[half]) / 2;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Chrome trace-event spans, recorded from this file around each call into a
// library layer, kept in memory and written once at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Records the complete span [begin, end) under \p parent (0 = none) and
  /// returns its id; a no-op returning 0 when tracing is off.
  int Span(const char* name, Clock::time_point begin, Clock::time_point end,
           int parent, std::string args = {}) {
    if (!on_) return 0;
    events_.push_back({name, Us(begin), Us(end) - Us(begin), ++last_id_,
                       parent, std::move(args)});
    return last_id_;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %d, \"parent\": %d%s%s}}",
                   i == 0 ? "" : ",\n", e.name, e.ts_us, e.dur_us, e.id,
                   e.parent, e.args.empty() ? "" : ", ", e.args.c_str());
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    double ts_us;
    double dur_us;
    int id;
    int parent;
    std::string args;
  };
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool on_;
  Clock::time_point epoch_ = Clock::now();
  int last_id_ = 0;
  std::vector<Event> events_;
};

/// Stamps the wall-clock end of every dispatch round. The engine calls the
/// repositioning hook once after each round; proposing nothing leaves
/// served, costs, SP queries and pair checks bitwise unchanged.
class RoundClock final : public structride::RepositioningPolicy {
 public:
  RoundClock() {
    ends.reserve(1u << 14);
    ticks.reserve(1u << 14);
  }
  const char* name() const override { return "round-clock"; }
  void Propose(const structride::RepositioningContext& ctx,
               std::vector<structride::RepositionMove>*) override {
    ends.push_back(Clock::now());
    ticks.push_back(ctx.now);
  }

  std::vector<Clock::time_point> ends;  ///< wall end of round r
  std::vector<double> ticks;            ///< simulated time of round r
};

/// Ends the process when an open-loop run overruns its limit: past that
/// point the backlog only grows and a collapsed run takes minutes. It first
/// prints a failed result line, so the run is counted, not lost.
class CollapseGuard {
 public:
  CollapseGuard(double limit_s, std::string failure_line)
      : line_(std::move(failure_line)),
        thread_([this, limit_s] { Watch(limit_s); }) {}
  ~CollapseGuard() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CollapseGuard(const CollapseGuard&) = delete;
  CollapseGuard& operator=(const CollapseGuard&) = delete;

 private:
  void Watch(double limit_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                     [this] { return done_; })) {
      return;
    }
    std::fprintf(stderr,
                 "[perfbench] open-loop run passed its %.1f s limit: "
                 "collapsed\n",
                 limit_s);
    std::fputs(line_.c_str(), stdout);
    std::fflush(stdout);
    std::_Exit(kCollapseExitCode);
  }

  const std::string line_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after everything it reads exists
};

struct Inputs {
  GraphBundle graph;
  std::unique_ptr<HubLabeling> labels;
  /// The request stream, sorted by release time, and the fleet spawn seed
  /// that goes with it.
  std::vector<Request> requests;
  uint64_t spawn_seed = 0;
};

struct SetupTimes {
  double graph_s = 0;
  double labels_s = 0;
  double workload_s = 0;
};

/// One set-up: the city graph, its hub labels, one trip pool and the
/// request stream drawn from it. \p in must not move afterwards (the labels
/// and engines refer to its network).
///
/// The generator runs with the fixed seed in \p spec over twice the trips
/// the stream needs; the stream then takes a sample of those trips, seeded
/// from \p run_seed, and draws their release times. The demand geometry
/// (the hotspots) is thereby the same for every seed. Seeding the generator
/// directly moved the hotspots, and with them service rate and unified cost
/// by tens of percent between seeds.
SetupTimes BuildInputs(const DatasetSpec& spec, uint64_t run_seed,
                       Tracer* tracer, Inputs* in) {
  const auto t0 = Clock::now();
  in->graph = structride::BuildGraph(&spec);
  const auto t1 = Clock::now();
  in->labels = std::make_unique<HubLabeling>(in->graph.network);
  const auto t2 = Clock::now();
  TravelCostOptions topts;
  topts.prebuilt_hub_labels = in->labels.get();
  TravelCostEngine engine(in->graph.network, topts);
  structride::WorkloadOptions pool_options = spec.workload;
  pool_options.num_requests = 2 * spec.workload.num_requests;
  std::vector<Request> stream = structride::GenerateWorkload(
      in->graph.network, &engine, spec.policy, pool_options);
  const size_t n = static_cast<size_t>(spec.workload.num_requests);
  const uint64_t stream_seed = SplitMix64(run_seed);
  structride::Rng rng(stream_seed);
  for (size_t i = 0; i < n; ++i) {  // partial Fisher-Yates: n distinct trips
    std::swap(stream[i], stream[static_cast<size_t>(rng.UniformInt(
                             static_cast<int64_t>(i),
                             static_cast<int64_t>(stream.size()) - 1))]);
    Request& r = stream[i];
    r.release_time = rng.Uniform(0, spec.workload.duration);
    r.deadline = r.release_time + spec.policy.gamma * r.direct_cost;
    r.latest_pickup = r.deadline - r.direct_cost;
  }
  stream.resize(n);
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Request& a, const Request& b) {
                     return a.release_time < b.release_time;
                   });
  for (size_t i = 0; i < n; ++i) stream[i].id = static_cast<int64_t>(i);
  in->requests = std::move(stream);
  in->spawn_seed = SplitMix64(stream_seed);
  const auto t3 = Clock::now();
  const int setup = tracer->Span("setup", t0, t3, 0);
  tracer->Span("setup.graph", t0, t1, setup);
  tracer->Span("setup.hub_labels", t1, t2, setup);
  tracer->Span("setup.workload", t2, t3, setup);
  return {Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3)};
}

struct Rep {
  bool traced = false;
  RunMetrics m;
  double wall_s = 0;
  uint64_t lookups = 0;
  double overrun_s = 0;
  std::vector<double> gaps_ms;  ///< wall time of each round
  std::vector<double> ticks;    ///< simulated time of each round
  double tail_s = 0;            ///< wall time after the last round
};

/// Closed loop: a request arrives with the round that first presents it, so
/// its arrival-to-decision wall latency is that round's wall time. \p gaps_ms
/// holds each round's wall time.
std::vector<double> ClosedLoopDecisionMs(const std::vector<Request>& requests,
                                         const std::vector<double>& ticks,
                                         const std::vector<double>& gaps_ms) {
  std::vector<double> out;
  if (gaps_ms.empty()) return out;
  out.reserve(requests.size());
  size_t r = 0;
  for (const Request& req : requests) {
    while (r + 1 < gaps_ms.size() && ticks[r] < req.release_time) ++r;
    out.push_back(gaps_ms[r]);
  }
  return out;
}

/// The run's timing figures over its repetitions of one kind.
struct Timing {
  double rps = 0;
  double round_p50_ms = 0;
  double round_p99_ms = 0;
  double decision_p50_ms = 0;
  double decision_p99_ms = 0;
};

/// On a replay, the repetitions make the same decisions round for round
/// (checked bitwise), so each round does the same work in every repetition
/// and its fastest time is the one least disturbed by other tenants of the
/// machine. The figures come from those per-round minima and the fastest
/// tail. Open loop, rounds follow the wall clock and differ between
/// repetitions, so round times are pooled over them, and the decision
/// latencies are the engine's own push-to-decision quantiles (from its
/// log-bucketed histogram, RunMetrics::dispatch_latency_*), averaged.
Timing RunTiming(const std::vector<const Rep*>& reps,
                 const std::vector<Request>& requests, bool replay) {
  Timing t;
  std::vector<double> gaps_ms;
  double requests_run = 0, wall_s = 0;
  if (replay) {
    // Repetitions with another round count failed the replay check already;
    // they are left out here.
    gaps_ms = reps.front()->gaps_ms;
    double tail_s = reps.front()->tail_s;
    for (const Rep* r : reps) {
      if (r->gaps_ms.size() != gaps_ms.size()) continue;
      for (size_t i = 0; i < gaps_ms.size(); ++i) {
        gaps_ms[i] = std::min(gaps_ms[i], r->gaps_ms[i]);
      }
      tail_s = std::min(tail_s, r->tail_s);
    }
    for (double g : gaps_ms) wall_s += g / 1e3;
    wall_s += tail_s;
    requests_run = static_cast<double>(requests.size());
    const std::vector<double> decision_ms =
        ClosedLoopDecisionMs(requests, reps.front()->ticks, gaps_ms);
    t.decision_p50_ms = Quantile(decision_ms, 0.50);
    t.decision_p99_ms = Quantile(decision_ms, 0.99);
  } else {
    const double n = static_cast<double>(reps.size());
    for (const Rep* r : reps) {
      gaps_ms.insert(gaps_ms.end(), r->gaps_ms.begin(), r->gaps_ms.end());
      wall_s += r->wall_s;
      requests_run += static_cast<double>(requests.size());
      t.decision_p50_ms += r->m.dispatch_latency_p50_ms / n;
      t.decision_p99_ms += r->m.dispatch_latency_p99_ms / n;
    }
  }
  t.rps = requests_run / wall_s;
  t.round_p50_ms = Quantile(gaps_ms, 0.50);
  t.round_p99_ms = Quantile(gaps_ms, 0.99);
  return t;
}

Rep RunRep(const Workload& w, const Inputs& in, int vehicles, Tracer* tracer,
           bool traced, const std::string& collapse_line) {
  TravelCostOptions topts;
  topts.prebuilt_hub_labels = in.labels.get();
  TravelCostEngine engine(in.graph.network, topts);

  const std::vector<Request>& requests = in.requests;
  SimulationOptions sopts;
  sopts.batch_period = kBatchPeriod;
  sopts.seed = in.spawn_seed;
  sopts.dataset = w.name;
  sopts.capacity_mean = kCapacity;
  if (w.stream_qps > 0) {
    sopts.service_mode = true;
    sopts.service_qps = w.stream_qps;
  }
  SimulationEngine sim(&engine, requests, sopts);
  sim.SpawnFleet(vehicles, kCapacity);
  auto clock = std::make_unique<RoundClock>();
  const RoundClock& rc = *clock;
  sim.SetRepositioningPolicy(std::move(clock));

  DispatchConfig config;
  config.vehicle_capacity = kCapacity;
  config.grouping.max_group_size = kCapacity;
  config.sharegraph.vehicle_capacity = kCapacity;
  config.num_threads = w.num_threads;
  config.num_shards = w.num_shards;

  const double span_s =
      w.stream_qps > 0
          ? static_cast<double>(requests.size()) / w.stream_qps
          : 0;
  Rep rep;
  rep.traced = traced;
  const auto t0 = Clock::now();
  if (w.stream_qps > 0) {
    CollapseGuard guard(kCollapseFactor * span_s + kCollapseSlackS,
                        collapse_line);
    rep.m = sim.Run("SARD", config);
  } else {
    rep.m = sim.Run("SARD", config);
  }
  const auto t1 = Clock::now();

  rep.wall_s = Seconds(t0, t1);
  rep.lookups = engine.num_lookups();
  rep.overrun_s = rep.wall_s - span_s;
  rep.gaps_ms.reserve(rc.ends.size());
  for (size_t r = 0; r < rc.ends.size(); ++r) {
    rep.gaps_ms.push_back(Seconds(r == 0 ? t0 : rc.ends[r - 1], rc.ends[r]) *
                          1e3);
  }
  rep.ticks = rc.ticks;
  rep.tail_s = Seconds(rc.ends.empty() ? t0 : rc.ends.back(), t1);

  if (traced) {
    char args[160];
    std::snprintf(args, sizeof args,
                  "\"rounds\": %zu, \"served\": %d, \"sp_queries\": %llu",
                  rc.ends.size(), rep.m.served,
                  static_cast<unsigned long long>(rep.m.sp_queries));
    const int run = tracer->Span("run", t0, t1, 0, args);
    for (size_t r = 0; r < rc.ends.size(); ++r) {
      tracer->Span("round", r == 0 ? t0 : rc.ends[r - 1], rc.ends[r], run);
    }
  }
  return rep;
}

/// Times the travel-cost layer on the workload's own endpoint pairs: every
/// distinct pair once on a cold engine (all misses), then again on the warm
/// engine (all hits). Medians over a few fresh engines.
struct RoadnetProbe {
  double miss_us = 0;
  double hit_ns = 0;
  bool ok = true;
};

RoadnetProbe ProbeRoadnet(const Inputs& in, Tracer* tracer) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::unordered_set<uint64_t> seen;
  for (const Request& r : in.requests) {
    const NodeId a = std::min(r.source, r.destination);
    const NodeId b = std::max(r.source, r.destination);
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
        static_cast<uint32_t>(b);
    if (a != b && seen.insert(key).second) pairs.emplace_back(a, b);
  }
  RoadnetProbe probe;
  if (pairs.empty()) return probe;
  const double n = static_cast<double>(pairs.size());
  constexpr int kEngines = 3;
  constexpr int kWarmPasses = 5;
  std::vector<double> miss_us, hit_ns;
  TravelCostOptions topts;
  topts.prebuilt_hub_labels = in.labels.get();
  for (int e = 0; e < kEngines; ++e) {
    TravelCostEngine engine(in.graph.network, topts);
    double cold_sum = 0;
    const auto t0 = Clock::now();
    for (const auto& p : pairs) cold_sum += engine.Cost(p.first, p.second);
    const auto t1 = Clock::now();
    miss_us.push_back(Seconds(t0, t1) * 1e6 / n);
    tracer->Span("probe.roadnet_miss", t0, t1, 0);
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      double warm_sum = 0;
      const auto w0 = Clock::now();
      for (const auto& p : pairs) warm_sum += engine.Cost(p.first, p.second);
      const auto w1 = Clock::now();
      hit_ns.push_back(Seconds(w0, w1) * 1e9 / n);
      tracer->Span("probe.roadnet_hit", w0, w1, 0);
      if (warm_sum != cold_sum) probe.ok = false;
    }
    if (engine.num_queries() != pairs.size() ||
        engine.num_lookups() != pairs.size() * (1 + kWarmPasses)) {
      probe.ok = false;
    }
  }
  probe.miss_us = Median(miss_us);
  probe.hit_ns = Median(hit_ns);
  return probe;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %llu, \"failed\": %llu, ",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  out += "\"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}\n";
  return out;
}

/// Census and invariants every run must satisfy; returns a reason or null.
const char* CheckRun(const RunMetrics& m) {
  const uint64_t accounted =
      static_cast<uint64_t>(m.served) + static_cast<uint64_t>(m.cancelled) +
      static_cast<uint64_t>(m.expired) + static_cast<uint64_t>(m.rejected) +
      m.shed_requests;
  if (accounted != static_cast<uint64_t>(m.total_requests)) {
    return "census: served+cancelled+expired+rejected+shed != total";
  }
  if (m.late_dropoffs != 0) return "late dropoffs";
  if (!(m.unified_cost > 0) || !std::isfinite(m.unified_cost)) {
    return "unified cost not positive and finite";
  }
  return nullptr;
}

/// Replays of one input are deterministic: every repetition must agree
/// bitwise with the first on what it decided and what it computed.
bool SameReplay(const Rep& a, const Rep& b) {
  uint64_t ca, cb;
  std::memcpy(&ca, &a.m.unified_cost, sizeof ca);
  std::memcpy(&cb, &b.m.unified_cost, sizeof cb);
  return a.m.served == b.m.served && ca == cb &&
         a.m.sp_queries == b.m.sp_queries &&
         a.m.sharegraph_pair_checks == b.m.sharegraph_pair_checks &&
         a.lookups == b.lookups && a.gaps_ms.size() == b.gaps_ms.size() &&
         a.m.cross_shard_trips == b.m.cross_shard_trips;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double scale = 1;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      if (val[0] < '0' || val[0] > '9') return false;
      a->seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      a->trace = val[0] - '0';
    } else if (key == "--scale") {
      a->scale = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (key == "--trace-file") {
      a->trace_file = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a->trace >= 0 && !a->workload.empty() &&
         std::isfinite(a->seconds) && a->seconds > 0 && a->seconds <= 3600 &&
         std::isfinite(a->scale) && a->scale > 0 && a->scale <= 1;
}

int Scaled(int value, double scale) {
  return std::max(1, static_cast<int>(std::lround(value * scale)));
}

using RepField = double (*)(const Rep&);

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <(0,1]>] [--trace-file <path>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  Tracer tracer(trace);

  // Inputs from the seed: the city is the fixed NYC grid and the trip pool
  // is fixed per salt (nyc-stream shares nyc-dense's salt). --seed draws
  // the request stream from the pool and the fleet spawn seed. A run times
  // one stream only, so that every repetition can serve as a sample of
  // every round: the host's speed swings by tens of percent for seconds at
  // a time, and a round's fastest time over many repetitions is what stays
  // put between runs (NOTES.md).
  DatasetSpec spec = structride::DatasetByName("NYC", 1.0);
  spec.capacity = kCapacity;
  spec.workload.num_requests = Scaled(w->num_requests, args.scale);
  spec.workload.duration = w->duration * args.scale;
  spec.workload.seed = SplitMix64(w->input_salt);
  const uint64_t run_seed = SplitMix64(args.seed ^ spec.workload.seed);

  // The set-up runs kSetups times on the same inputs, and setup_s is the
  // median; only the last set-up is kept, so one graph and one labeling are
  // alive at a time.
  std::vector<double> setup_s, labels_s, workload_s;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();
    inputs = std::make_unique<Inputs>();
    const SetupTimes t = BuildInputs(spec, run_seed, &tracer, inputs.get());
    setup_s.push_back(t.graph_s + t.labels_s + t.workload_s);
    labels_s.push_back(t.labels_s);
    workload_s.push_back(t.workload_s);
  }

  const int vehicles = Scaled(w->num_vehicles, args.scale);
  const bool replay = w->stream_qps <= 0;
  const uint64_t per_rep = inputs->requests.size();
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<Rep> reps;
  // A replay runs at least twice, so bitwise agreement is checked; a traced
  // run has at least one untraced and one traced repetition.
  const size_t min_reps = replay || trace ? 2 : 1;
  // No repetition starts that would, at the previous one's pace, end past
  // the budget, so a run ends within --seconds instead of a repetition
  // after it.
  double last_wall_s = 0;
  const auto m0 = Clock::now();
  while (reps.size() < min_reps ||
         Seconds(m0, Clock::now()) + last_wall_s <= args.seconds) {
    // Traced runs alternate untraced and traced repetitions, so the traced
    // requests-per-second can be set against the untraced one.
    const bool traced = trace && reps.size() % 2 == 1;
    const std::string collapse_line =
        ResultLine(false, attempted + per_rep, failed + per_rep, {});
    Rep rep = RunRep(*w, *inputs, vehicles, &tracer, traced, collapse_line);
    attempted += per_rep;
    const char* bad = CheckRun(rep.m);
    if (bad == nullptr && replay && !reps.empty() &&
        !SameReplay(reps.front(), rep)) {
      bad = "replay repetitions disagree on an outcome or a count";
    }
    if (bad != nullptr) {
      std::fprintf(stderr, "[perfbench] rep %zu failed: %s\n", reps.size(),
                   bad);
      correct = false;
      failed += per_rep;
    } else {
      failed += rep.m.shed_requests;  // refused at the door
    }
    char decision[64] = "";
    if (!replay) {
      std::snprintf(decision, sizeof decision,
                    ", decision p50/p99 %.3f/%.3f ms",
                    rep.m.dispatch_latency_p50_ms,
                    rep.m.dispatch_latency_p99_ms);
    }
    std::fprintf(stderr,
                 "[perfbench] %s rep %zu%s: %.3f s, %.0f req/s, rounds %zu, "
                 "round p50/p99 %.3f/%.3f ms%s, busy %.3f s, served %d, "
                 "sp %llu, pairs %llu, shed %llu, arena %zu, mem %zu\n",
                 w->name, reps.size(), traced ? " (traced)" : "", rep.wall_s,
                 double(per_rep) / rep.wall_s, rep.gaps_ms.size(),
                 Quantile(rep.gaps_ms, 0.50), Quantile(rep.gaps_ms, 0.99),
                 decision, rep.m.running_time, rep.m.served,
                 static_cast<unsigned long long>(rep.m.sp_queries),
                 static_cast<unsigned long long>(rep.m.sharegraph_pair_checks),
                 static_cast<unsigned long long>(rep.m.shed_requests),
                 rep.m.arena_peak_bytes, rep.m.memory_bytes);
    last_wall_s = rep.wall_s;
    reps.push_back(std::move(rep));
  }

  auto of_kind = [&](bool traced) {
    std::vector<const Rep*> mine;
    for (const Rep& r : reps) {
      if (r.traced == traced) mine.push_back(&r);
    }
    return mine;
  };
  // Timing metrics of the end-to-end kind (RunTiming).
  auto timing = [&](bool traced, double Timing::*field) {
    return RunTiming(of_kind(traced), inputs->requests, replay).*field;
  };
  // Per-layer timing metrics: the fastest repetition's.
  auto fastest = [&](bool traced, RepField f) {
    const Rep* best = nullptr;
    for (const Rep* r : of_kind(traced)) {
      if (best == nullptr || r->wall_s < best->wall_s) best = r;
    }
    return f(*best);
  };
  // Outcome and count metrics: the mean over the repetitions. On a replay
  // they agree bitwise, so the figure does not depend on how many
  // repetitions the wall budget allowed; open loop, outcomes follow the
  // wall clock and are averaged.
  auto mean = [&](bool traced, RepField f) {
    const std::vector<const Rep*> mine = of_kind(traced);
    double sum = 0;
    for (const Rep* r : mine) sum += f(*r);
    return sum / static_cast<double>(mine.size());
  };
  std::vector<Metric> metrics;
  if (!trace) {
    auto timed = [&](double Timing::*field) { return timing(false, field); };
    auto outcome = [&](RepField f) { return mean(false, f); };
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"replay_rps", timed(&Timing::rps), "1/s"},
        {"round_p50_ms", timed(&Timing::round_p50_ms), "ms"},
        {"round_p99_ms", timed(&Timing::round_p99_ms), "ms"},
        {"decision_p50_ms", timed(&Timing::decision_p50_ms), "ms"},
        {"decision_p99_ms", timed(&Timing::decision_p99_ms), "ms"},
        {"admitted_ratio", outcome([](const Rep& r) {
           return 1.0 - double(r.m.shed_requests) / double(r.m.total_requests);
         }),
         "ratio"},
        {"service_rate", outcome([](const Rep& r) { return r.m.service_rate; }),
         "ratio"},
        {"unified_cost", outcome([](const Rep& r) { return r.m.unified_cost; }),
         "cost"},
    };
  } else {
    const RoadnetProbe probe = ProbeRoadnet(*inputs, &tracer);
    if (!probe.ok) {
      std::fprintf(stderr, "[perfbench] roadnet probe: counts or costs off\n");
      correct = false;
      ++failed;
    }
    auto count = [&](RepField f) { return mean(true, f); };
    auto timed = [&](RepField f) { return fastest(true, f); };
    size_t arena_peak = 0;  // a process-wide peak: the largest is the run's
    for (const Rep& r : reps) {
      arena_peak = std::max(arena_peak, r.m.arena_peak_bytes);
    }
    metrics = {
        {"roadnet.sp_queries",
         count([](const Rep& r) { return double(r.m.sp_queries); }), "count"},
        {"roadnet.lookups",
         count([](const Rep& r) { return double(r.lookups); }), "count"},
        {"roadnet.hit_rate",
         count([](const Rep& r) {
           return r.lookups == 0
                      ? 0.0
                      : 1.0 - double(r.m.sp_queries) / double(r.lookups);
         }),
         "ratio"},
        {"roadnet.miss_us", probe.miss_us, "us"},
        {"roadnet.hit_ns", probe.hit_ns, "ns"},
        {"roadnet.hl_build_s", Median(labels_s), "s"},
        {"sharegraph.pair_checks",
         count([](const Rep& r) { return double(r.m.sharegraph_pair_checks); }),
         "count"},
        {"dispatch.busy_s",
         timed([](const Rep& r) { return r.m.running_time; }), "s"},
        {"dispatch.memory_bytes",
         count([](const Rep& r) { return double(r.m.memory_bytes); }),
         "bytes"},
        {"util.arena_peak_bytes", double(arena_peak), "bytes"},
        {"sim.self_s",
         timed([](const Rep& r) { return r.wall_s - r.m.running_time; }), "s"},
        {"sim.rounds",
         count([](const Rep& r) { return double(r.gaps_ms.size()); }),
         "count"},
        {"sim.workload_gen_s", Median(workload_s), "s"},
        {"shard.load_max_over_mean",
         count([](const Rep& r) { return r.m.shard_load_max_over_mean; }),
         "ratio"},
        {"shard.round_time_max_over_mean",
         timed([](const Rep& r) { return r.m.shard_round_time_max_over_mean; }),
         "ratio"},
        {"shard.cross_shard_trips",
         count([](const Rep& r) { return double(r.m.cross_shard_trips); }),
         "count"},
        {"ingest.queue_depth_max",
         count([](const Rep& r) { return double(r.m.ingest_queue_depth_max); }),
         "count"},
        {"ingest.shed",
         count([](const Rep& r) { return double(r.m.shed_requests); }),
         "count"},
        {"ingest.overrun_s", timed([](const Rep& r) { return r.overrun_s; }),
         "s"},
        {"trace.rps_ratio",
         timing(true, &Timing::rps) / timing(false, &Timing::rps), "ratio"},
    };
    if (!args.trace_file.empty() && !tracer.Write(args.trace_file)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n",
                   args.trace_file.c_str());
      correct = false;
      ++failed;
    }
  }
  const std::string line = ResultLine(correct, attempted, failed, metrics);
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
