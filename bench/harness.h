// Shared harness for the figure/table reproduction benches. Each bench
// binary sweeps one Table-III/IV parameter and prints, for every algorithm,
// the three series the paper plots (unified cost, service rate, running
// time) plus the auxiliary columns (queries, memory).
//
// Scaling: workloads default to 1/4 of the already-scaled-down dataset
// presets so that a full bench suite completes on one machine; set
// STRUCTRIDE_SCALE to change (e.g. STRUCTRIDE_SCALE=1 for the DESIGN.md
// default size; the paper's full size corresponds to ~25).
// STRUCTRIDE_ALGOS=SARD,GAS filters algorithms.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "roadnet/travel_cost.h"
#include "sim/datasets.h"
#include "sim/engine.h"

namespace structride {
namespace bench {

/// \brief One sweep point's knobs (unset fields fall back to the dataset
/// spec's Table-III defaults).
struct PointParams {
  int num_vehicles = -1;
  int num_requests = -1;
  int capacity = -1;
  double gamma = -1;
  double penalty = 10;
  double batch_period = 5;
  double capacity_sigma = 0;
};

/// \brief A dataset instantiated for benching: network + the selected
/// shortest-path index + a cached request stream (regenerated when gamma or
/// request count changes).
class BenchContext {
 public:
  /// \p scale multiplies the preset's request/fleet counts and duration.
  BenchContext(const std::string& dataset, double scale);

  /// \brief Run one (algorithm, parameters) point and return its metrics.
  /// Every call gets a fresh travel-cost engine over the context's index,
  /// so each run starts on a cold cache and its sp_queries depend neither
  /// on the runs before it nor on their order.
  RunMetrics Run(const std::string& algorithm, const PointParams& params);

  /// \brief The request stream for \p gamma and \p num_requests, generated
  /// on first use and cached until either changes.
  const std::vector<Request>& Requests(double gamma, int num_requests);

  /// \brief A fresh travel-cost engine over the context's index: a cold
  /// cache and no index rebuild. Run uses one per call; benches that drive
  /// SimulationEngine themselves take one per cell for the same isolation.
  std::unique_ptr<TravelCostEngine> MakeEngine() const;

  const DatasetSpec& spec() const { return spec_; }
  const RoadNetwork& network() const { return graph_.network; }
  const GraphBundle& graph() const { return graph_; }

 private:
  DatasetSpec spec_;
  /// Network plus the selected backend's index — loaded from a snapshot or
  /// built once here — which every engine adopts through
  /// TravelCostOptions::prebuilt_* instead of rebuilding.
  GraphBundle graph_;
  TravelCostOptions engine_options_;
  std::vector<Request> requests_;
  double stream_gamma_ = -1;
  int stream_requests_ = -1;
};

/// \brief Env-var scale (STRUCTRIDE_SCALE, default 0.25).
double BenchScale();

/// \brief Env-var shard count (STRUCTRIDE_SHARDS, default 1): every
/// BenchContext::Run dispatches with DispatchConfig::num_shards set to this,
/// so any figure/table bench replays geo-sharded without a rebuild.
int BenchShards();

/// \brief Env-var concurrent-shard switch (STRUCTRIDE_CONC_SHARDS, default
/// 1): every BenchContext::Run dispatches with
/// DispatchConfig::concurrent_shards set to this, so serial-vs-concurrent
/// shard execution can be compared across two bench invocations (the CI
/// compare_bench.py cell) without a rebuild. 0 = serial reference.
bool BenchConcurrentShards();

/// \brief Env-var worker-thread count (STRUCTRIDE_THREADS, default 4):
/// every BenchContext::Run dispatches with DispatchConfig::num_threads set
/// to this and sard_parallel_acceptance off. The engine builds a worker
/// pool only for parallel acceptance or several shards, so the knob sizes
/// the concurrent shard phase under STRUCTRIDE_SHARDS > 1 and changes
/// nothing at one shard, where running times stay single-threaded.
int BenchThreads();

/// \brief Env-var service-mode arrival rate (STRUCTRIDE_QPS, default 0):
/// when positive, every BenchContext::Run enables the streaming service
/// mode (DESIGN.md §13) at this wall-clock qps; 0 keeps the replay engine.
double BenchQps();

/// \brief Env-var dispatch-latency SLO (STRUCTRIDE_SLO_P99_MS, default
/// 250): the p99 ingest→decision bound the sustained-qps bench and the CI
/// service gate hold runs to, in milliseconds.
double BenchSloP99Ms();

/// \brief Env-var travel-cost backend (STRUCTRIDE_SP_BACKEND: "hl", "ch" or
/// "bd"; default "hl"): the shortest-path backend BenchContext builds its
/// engine with, so the sweep generator can grid over backends.
TravelCostOptions::Backend BenchSpBackend();

/// \brief Escapes \p s for embedding inside a JSON string literal: quotes,
/// backslashes, the named control escapes (\b \f \n \r \t) and \u00XX for
/// every other byte below 0x20. Dataset/bench/series names flow into
/// BENCH_*.json verbatim otherwise, and one quote would corrupt the file.
std::string JsonEscape(const std::string& s);

/// \brief Machine-readable results: rows accumulate in-process and are
/// written to $STRUCTRIDE_JSON_DIR/BENCH_<binary>.json at exit — one row per
/// (series, point) with every metrics-table field (sim/run_metrics.h), the
/// outcome-class keys under "outcome_fields", and the bench's wall time. A
/// no-op when the env var is unset. SweepPrinter::Record feeds this
/// automatically; benches with bespoke tables call it directly.
void RecordJsonRow(const std::string& series, const std::string& point,
                   const RunMetrics& metrics);

/// \brief Like RecordJsonRow for benches whose output is a scalar statistic
/// (optimality probabilities, structure metrics) rather than a RunMetrics;
/// lands in the same BENCH_<binary>.json under "values".
void RecordJsonValue(const std::string& series, const std::string& point,
                     const std::string& metric, double value);

/// \brief Algorithms to bench: STRUCTRIDE_ALGOS filter or the paper's six.
std::vector<std::string> BenchAlgorithms();

/// \brief Pretty-print one sweep: for each metric block (unified cost,
/// service rate, running time), algorithms as rows, sweep points as columns.
class SweepPrinter {
 public:
  /// \p title e.g. "Fig. 8 (CHD): varying |W|"; \p labels column labels.
  SweepPrinter(std::string title, std::vector<std::string> labels);

  /// \brief Record the metrics of \p algorithm at sweep position \p col.
  void Record(const std::string& algorithm, size_t col, const RunMetrics& m);

  /// \brief Print all metric blocks to stdout.
  void Print() const;

 private:
  struct Cell {
    bool set = false;
    RunMetrics metrics;
  };
  std::string title_;
  std::vector<std::string> labels_;
  std::vector<std::string> algorithms_;  // insertion order
  std::vector<std::vector<Cell>> cells_;  // [algorithm][col]
};

}  // namespace bench
}  // namespace structride
