#include "bench/harness.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "roadnet/contraction_hierarchies.h"
#include "roadnet/hub_labeling.h"
#include "sim/workload.h"
#include "util/logging.h"

namespace structride {
namespace bench {

namespace {

// ---------------------------------------------------------------- JSON ----

struct JsonRow {
  std::string series;
  std::string point;
  RunMetrics metrics;
};

struct JsonValue {
  std::string series;
  std::string point;
  std::string metric;
  double value;
};

// Captured at static init, before main, so wall_time_s covers setup and the
// first run — not just the span between the first and last recorded row.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

struct JsonState {
  std::vector<JsonRow> rows;
  std::vector<JsonValue> values;
  bool at_exit_registered = false;
};

JsonState& GlobalJsonState() {
  static JsonState state;
  return state;
}

std::string BinaryName() {
#ifdef __GLIBC__
  return program_invocation_short_name;
#else
  // No portable program name: disambiguate by pid so concurrent or
  // sequential benches never overwrite each other's results.
  return "bench_pid" + std::to_string(static_cast<long>(::getpid()));
#endif
}

void WriteJsonAtExit() {
  const char* dir = std::getenv("STRUCTRIDE_JSON_DIR");
  if (dir == nullptr) return;
  JsonState& state = GlobalJsonState();
  const std::string name = BinaryName();
  std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return;
  }
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_process_start)
          .count();
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"wall_time_s\": %.3f,\n",
               JsonEscape(name).c_str(), wall);
  std::fprintf(f, "  \"scale\": %g,\n  \"rows\": [\n", BenchScale());
  for (size_t i = 0; i < state.rows.size(); ++i) {
    const JsonRow& r = state.rows[i];
    const RunMetrics& m = r.metrics;
    // Per-shard observability arrays (one entry per shard, shard-id order).
    std::string shard_queries, shard_hit_rates;
    for (size_t s = 0; s < m.shard_sp_queries.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%llu", s > 0 ? ", " : "",
                    static_cast<unsigned long long>(m.shard_sp_queries[s]));
      shard_queries += buf;
    }
    for (size_t s = 0; s < m.shard_cache_hit_rate.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6f", s > 0 ? ", " : "",
                    m.shard_cache_hit_rate[s]);
      shard_hit_rates += buf;
    }
    std::fprintf(
        f,
        "    {\"series\": \"%s\", \"point\": \"%s\", \"dataset\": \"%s\", "
        "\"algorithm\": \"%s\", \"unified_cost\": %.6f, \"travel_cost\": "
        "%.6f, \"penalty_cost\": %.6f, \"service_rate\": %.6f, "
        "\"running_time_s\": %.6f, \"sp_queries\": %llu, "
        "\"sharegraph_pair_checks\": %llu, \"memory_bytes\": "
        "%zu, \"served\": %d, \"cancelled\": %d, \"total_requests\": %d, "
        "\"expired\": %d, \"rejected\": %d, "
        "\"pickup_wait_p50\": %.6f, \"pickup_wait_p99\": %.6f, "
        "\"mean_detour_ratio\": %.6f, \"late_dropoffs\": %d, "
        "\"repositions\": %d, \"reposition_cost\": %.6f, "
        "\"num_shards\": %d, \"cross_shard_trips\": %d, "
        "\"shard_load_max_over_mean\": %.6f, "
        "\"shard_sp_queries\": [%s], \"shard_cache_hit_rate\": [%s], "
        "\"shard_round_time_max_over_mean\": %.6f, "
        "\"allocs_per_batch_p50\": %llu, \"allocs_per_batch_max\": %llu, "
        "\"arena_peak_bytes\": %zu, "
        "\"dispatch_latency_p50_ms\": %.6f, "
        "\"dispatch_latency_p99_ms\": %.6f, "
        "\"dispatch_latency_p999_ms\": %.6f, "
        "\"max_sustained_qps\": %.3f, \"shed_requests\": %llu, "
        "\"ingest_queue_depth_max\": %llu}%s\n",
        JsonEscape(r.series).c_str(), JsonEscape(r.point).c_str(),
        JsonEscape(m.dataset).c_str(), JsonEscape(m.algorithm).c_str(),
        m.unified_cost, m.travel_cost, m.penalty_cost, m.service_rate,
        m.running_time, static_cast<unsigned long long>(m.sp_queries),
        static_cast<unsigned long long>(m.sharegraph_pair_checks),
        m.memory_bytes, m.served, m.cancelled, m.total_requests,
        m.expired, m.rejected,
        m.pickup_wait_p50, m.pickup_wait_p99, m.mean_detour_ratio,
        m.late_dropoffs, m.repositions, m.reposition_cost,
        m.num_shards, m.cross_shard_trips, m.shard_load_max_over_mean,
        shard_queries.c_str(), shard_hit_rates.c_str(),
        m.shard_round_time_max_over_mean,
        static_cast<unsigned long long>(m.allocs_per_batch_p50),
        static_cast<unsigned long long>(m.allocs_per_batch_max),
        m.arena_peak_bytes, m.dispatch_latency_p50_ms,
        m.dispatch_latency_p99_ms, m.dispatch_latency_p999_ms,
        m.max_sustained_qps, static_cast<unsigned long long>(m.shed_requests),
        static_cast<unsigned long long>(m.ingest_queue_depth_max),
        i + 1 < state.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"values\": [\n");
  for (size_t i = 0; i < state.values.size(); ++i) {
    const JsonValue& v = state.values[i];
    std::fprintf(f,
                 "    {\"series\": \"%s\", \"point\": \"%s\", \"metric\": "
                 "\"%s\", \"value\": %.9g}%s\n",
                 JsonEscape(v.series).c_str(), JsonEscape(v.point).c_str(),
                 JsonEscape(v.metric).c_str(), v.value,
                 i + 1 < state.values.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s (%zu rows, %zu values)\n",
               path.c_str(), state.rows.size(), state.values.size());
}

void RegisterJsonAtExit(JsonState* state) {
  if (!state->at_exit_registered) {
    state->at_exit_registered = true;
    std::atexit(WriteJsonAtExit);
  }
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void RecordJsonRow(const std::string& series, const std::string& point,
                   const RunMetrics& metrics) {
  JsonState& state = GlobalJsonState();
  RegisterJsonAtExit(&state);
  state.rows.push_back({series, point, metrics});
}

void RecordJsonValue(const std::string& series, const std::string& point,
                     const std::string& metric, double value) {
  JsonState& state = GlobalJsonState();
  RegisterJsonAtExit(&state);
  state.values.push_back({series, point, metric, value});
}

double BenchScale() {
  const char* env = std::getenv("STRUCTRIDE_SCALE");
  if (env == nullptr) return 0.25;
  char* end = nullptr;
  double s = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(s > 0)) {
    std::fprintf(stderr,
                 "[bench] ignoring STRUCTRIDE_SCALE=\"%s\" (want a positive "
                 "number); using the default 0.25\n",
                 env);
    return 0.25;
  }
  return s;
}

int BenchShards() {
  const char* env = std::getenv("STRUCTRIDE_SHARDS");
  if (env == nullptr) return 1;
  char* end = nullptr;
  long z = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || z < 1) {
    std::fprintf(stderr,
                 "[bench] ignoring STRUCTRIDE_SHARDS=\"%s\" (want a positive "
                 "integer); using the default 1\n",
                 env);
    return 1;
  }
  return static_cast<int>(z);
}

bool BenchConcurrentShards() {
  const char* env = std::getenv("STRUCTRIDE_CONC_SHARDS");
  if (env == nullptr) return true;
  if (std::strcmp(env, "0") == 0) return false;
  if (std::strcmp(env, "1") == 0) return true;
  std::fprintf(stderr,
               "[bench] ignoring STRUCTRIDE_CONC_SHARDS=\"%s\" (want 0 or "
               "1); using the default 1\n",
               env);
  return true;
}

int BenchThreads() {
  const char* env = std::getenv("STRUCTRIDE_THREADS");
  if (env == nullptr) return 4;
  char* end = nullptr;
  long t = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || t < 1) {
    std::fprintf(stderr,
                 "[bench] ignoring STRUCTRIDE_THREADS=\"%s\" (want a positive "
                 "integer); using the default 4\n",
                 env);
    return 4;
  }
  return static_cast<int>(t);
}

double BenchQps() {
  const char* env = std::getenv("STRUCTRIDE_QPS");
  if (env == nullptr) return 0;
  char* end = nullptr;
  double q = std::strtod(env, &end);
  if (end == env || *end != '\0' || q < 0) {
    std::fprintf(stderr,
                 "[bench] ignoring STRUCTRIDE_QPS=\"%s\" (want a "
                 "non-negative number); using the default 0 (replay)\n",
                 env);
    return 0;
  }
  return q;
}

double BenchSloP99Ms() {
  const char* env = std::getenv("STRUCTRIDE_SLO_P99_MS");
  if (env == nullptr) return 250;
  char* end = nullptr;
  double ms = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(ms > 0)) {
    std::fprintf(stderr,
                 "[bench] ignoring STRUCTRIDE_SLO_P99_MS=\"%s\" (want a "
                 "positive number); using the default 250\n",
                 env);
    return 250;
  }
  return ms;
}

TravelCostOptions::Backend BenchSpBackend() {
  const char* env = std::getenv("STRUCTRIDE_SP_BACKEND");
  if (env == nullptr) return TravelCostOptions::Backend::kHubLabeling;
  if (std::strcmp(env, "hl") == 0) {
    return TravelCostOptions::Backend::kHubLabeling;
  }
  if (std::strcmp(env, "ch") == 0) {
    return TravelCostOptions::Backend::kContractionHierarchies;
  }
  if (std::strcmp(env, "bd") == 0) {
    return TravelCostOptions::Backend::kBidirectionalDijkstra;
  }
  std::fprintf(stderr,
               "[bench] ignoring STRUCTRIDE_SP_BACKEND=\"%s\" (want hl, ch "
               "or bd); using the default hl\n",
               env);
  return TravelCostOptions::Backend::kHubLabeling;
}

std::vector<std::string> BenchAlgorithms() {
  const char* env = std::getenv("STRUCTRIDE_ALGOS");
  if (env == nullptr) return AllDispatcherNames();
  std::vector<std::string> out;
  std::stringstream ss(env);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out.empty() ? AllDispatcherNames() : out;
}

BenchContext::BenchContext(const std::string& dataset, double scale)
    : spec_(DatasetByName(dataset, scale)) {
  // DatasetByName already scaled the request count, fleet size and arrival
  // window (exactly once — see sim/datasets.h); nothing to rescale here.
  graph_ = BuildGraph(&spec_);
  // Snapshot-loaded indices ride along in the bundle; build the selected
  // backend's index only when the file did not carry it.
  using Backend = TravelCostOptions::Backend;
  const Backend backend = BenchSpBackend();
  engine_options_.backend = backend;
  if (backend == Backend::kHubLabeling && !graph_.hub_labels) {
    graph_.hub_labels = std::make_unique<HubLabeling>(graph_.network);
  }
  if (backend == Backend::kContractionHierarchies && !graph_.ch) {
    graph_.ch = std::make_unique<ContractionHierarchies>(graph_.network);
  }
  engine_options_.prebuilt_hub_labels = graph_.hub_labels.get();
  engine_options_.prebuilt_ch = graph_.ch.get();
  std::fprintf(stderr, "[bench] %s: %zu nodes, %zu edges, %d requests, %d vehicles\n",
               spec_.name.c_str(), graph_.network.num_nodes(),
               graph_.network.num_edges(), spec_.workload.num_requests,
               spec_.num_vehicles);
}

const std::vector<Request>& BenchContext::Requests(double gamma,
                                                  int num_requests) {
  if (stream_gamma_ == gamma && stream_requests_ == num_requests) {
    return requests_;
  }
  DeadlinePolicy policy = spec_.policy;
  policy.gamma = gamma;
  WorkloadOptions wopts = spec_.workload;
  wopts.num_requests = num_requests;
  requests_ = GenerateWorkload(graph_.network, MakeEngine().get(), policy,
                               wopts);
  stream_gamma_ = gamma;
  stream_requests_ = num_requests;
  return requests_;
}

std::unique_ptr<TravelCostEngine> BenchContext::MakeEngine() const {
  return std::make_unique<TravelCostEngine>(graph_.network, engine_options_);
}

RunMetrics BenchContext::Run(const std::string& algorithm,
                             const PointParams& params) {
  double gamma = params.gamma > 0 ? params.gamma : spec_.policy.gamma;
  int n = params.num_requests > 0 ? params.num_requests
                                  : spec_.workload.num_requests;
  const std::vector<Request>& requests = Requests(gamma, n);

  SimulationOptions sopts;
  sopts.batch_period = params.batch_period;
  sopts.seed = 4242;
  sopts.dataset = spec_.name;  // the engine stamps RunMetrics::dataset
  int capacity = params.capacity > 0 ? params.capacity : spec_.capacity;
  sopts.capacity_sigma = params.capacity_sigma;
  sopts.capacity_mean = params.capacity_sigma > 0 ? 4 : capacity;
  if (params.capacity_sigma > 0) capacity = 4;  // Appendix C: mean 4
  const double qps = BenchQps();
  if (qps > 0) {
    sopts.service_mode = true;
    sopts.service_qps = qps;
  }

  std::unique_ptr<TravelCostEngine> engine = MakeEngine();
  SimulationEngine sim(engine.get(), requests, sopts);
  int vehicles = params.num_vehicles > 0 ? params.num_vehicles : spec_.num_vehicles;
  sim.SpawnFleet(vehicles, capacity);

  DispatchConfig config;
  config.penalty_coefficient = params.penalty;
  config.vehicle_capacity = capacity;
  config.grouping.max_group_size = capacity;
  config.sharegraph.vehicle_capacity = capacity;
  config.ilp_node_cap = 200'000;
  config.num_threads = BenchThreads();
  config.num_shards = BenchShards();
  config.concurrent_shards = BenchConcurrentShards();

  return sim.Run(algorithm, config);
}

SweepPrinter::SweepPrinter(std::string title, std::vector<std::string> labels)
    : title_(std::move(title)), labels_(std::move(labels)) {}

void SweepPrinter::Record(const std::string& algorithm, size_t col,
                          const RunMetrics& m) {
  SR_CHECK(col < labels_.size());
  size_t row = algorithms_.size();
  for (size_t i = 0; i < algorithms_.size(); ++i) {
    if (algorithms_[i] == algorithm) {
      row = i;
      break;
    }
  }
  if (row == algorithms_.size()) {
    algorithms_.push_back(algorithm);
    cells_.emplace_back(labels_.size());
  }
  cells_[row][col].set = true;
  cells_[row][col].metrics = m;
  RecordJsonRow(algorithm, labels_[col], m);
}

void SweepPrinter::Print() const {
  auto block = [&](const char* name, auto getter, const char* fmt) {
    std::printf("\n%s — %s\n", title_.c_str(), name);
    std::printf("%-14s", "algorithm");
    for (const std::string& l : labels_) std::printf("%12s", l.c_str());
    std::printf("\n");
    for (size_t r = 0; r < algorithms_.size(); ++r) {
      std::printf("%-14s", algorithms_[r].c_str());
      for (size_t c = 0; c < labels_.size(); ++c) {
        if (cells_[r][c].set) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), fmt, getter(cells_[r][c].metrics));
          std::printf("%12s", buf);
        } else {
          std::printf("%12s", "-");
        }
      }
      std::printf("\n");
    }
  };
  std::printf("\n================================================================\n");
  std::printf("%s\n", title_.c_str());
  std::printf("================================================================\n");
  block("Unified Cost", [](const RunMetrics& m) { return m.unified_cost; },
        "%.0f");
  block("Service Rate", [](const RunMetrics& m) { return m.service_rate; },
        "%.3f");
  block("Running Time (s)", [](const RunMetrics& m) { return m.running_time; },
        "%.2f");
  block("SP Queries (K)",
        [](const RunMetrics& m) { return static_cast<double>(m.sp_queries) / 1e3; },
        "%.0f");
  block("Memory (KB)",
        [](const RunMetrics& m) { return static_cast<double>(m.memory_bytes) / 1e3; },
        "%.0f");
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace structride
