// RunMetrics, what one SimulationEngine::Run reports, and the table that
// declares each of its fields once: its BENCH-row key, its parity class
// and, if it has one, its golden-digest key. The BENCH row writer, the
// golden digest, the parity check below and compare_bench.py's gated list
// are all derived from the table (DESIGN.md §11).
//
// Adding a metric: declare the field, give it one table entry and compute
// it in SimulationEngine's Finalize. A field without an entry fails the
// build (the static_assert in run_metrics.cc).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace structride {

struct RunMetrics {
  std::string dataset;
  std::string algorithm;
  double unified_cost = 0;  ///< travel + penalty over unserved requests
  double travel_cost = 0;
  double penalty_cost = 0;
  double service_rate = 0;
  double running_time = 0;  ///< dispatcher compute seconds (wall clock)
  uint64_t sp_queries = 0;  ///< travel-cost backend computations
  /// Exact share-graph pair feasibility evaluations (0 for methods that
  /// build no share graph). The incremental maintenance of DESIGN.md §7
  /// must cut this ≥2x for GAS/RTV versus the rebuild-per-batch reference.
  uint64_t sharegraph_pair_checks = 0;
  size_t memory_bytes = 0;  ///< dispatcher peak instrumented bytes
  int served = 0;
  int cancelled = 0;
  int expired = 0;   ///< riders whose pickup deadline passed unassigned
  int rejected = 0;  ///< riders an online dispatcher gave up on permanently
  int total_requests = 0;
  // Geo-sharding (DESIGN.md §12). Single-region runs report num_shards=1,
  // zero cross-shard trips, and a load ratio of 1 (0 when nothing was
  // assigned at all).
  int num_shards = 1;
  /// Assignments where the request's home zone (pickup) differs from the
  /// shard that committed the vehicle — trips that went through the
  /// boundary-escrow handoff.
  int cross_shard_trips = 0;
  /// max/mean of per-shard assignment counts over the run; 1 is perfectly
  /// balanced, num_shards is one shard doing all the work.
  double shard_load_max_over_mean = 0;
  /// Per-shard observability (one entry per shard, shard-id order; a single
  /// entry mirroring the global counters at num_shards == 1). Backend
  /// computations charged to each shard's cache
  /// partition this run, and the partition's hit rate over the run — exact
  /// and thread-count-invariant per shard, since a shard only ever queries
  /// its own partition.
  std::vector<uint64_t> shard_sp_queries;
  std::vector<double> shard_cache_hit_rate;
  /// max/mean of per-shard OnBatch wall seconds over the run — the
  /// time-domain imbalance (the quantity that bounds the concurrent round's
  /// speedup), as shard_load_max_over_mean is the assignment-domain one.
  /// Wall-clock derived, so excluded from bitwise parity contracts.
  double shard_round_time_max_over_mean = 0;
  // Per-rider service quality over the served riders (0 when none served):
  double pickup_wait_p50 = 0;     ///< median pickup - release wait
  double pickup_wait_p99 = 0;     ///< nearest-rank p99 pickup wait
  double mean_detour_ratio = 0;   ///< mean (dropoff - pickup) / direct_cost
  /// Committed dropoffs that missed their deadline. CommitStops enforces
  /// deadlines at commit time and arrivals are fixed thereafter, so this is
  /// 0 by construction — tests pin it as the repositioning invariant.
  int late_dropoffs = 0;
  // Repositioning (0 unless a policy is installed):
  int repositions = 0;          ///< completed empty relocation legs
  double reposition_cost = 0;   ///< their travel cost (inside travel_cost)
  // Allocation discipline (DESIGN.md §8). A *steady-state* batch is a
  // dispatch round whose pending pool is non-empty and contains no freshly
  // released request — the warmed regime where the pooled paths promise
  // zero heap allocations. Counts are heap allocations observed strictly
  // inside Dispatcher::OnBatch under the counting allocator
  // (util/alloc_gate.h); both stay 0 in binaries that don't link
  // util/counting_new.cc.
  uint64_t allocs_per_batch_p50 = 0;  ///< nearest-rank median over steady batches
  uint64_t allocs_per_batch_max = 0;  ///< worst steady batch
  /// Peak bytes retained across every EpochArena in the process (chunks
  /// stay warm over Reset); process-wide high-water mark, not per-run.
  size_t arena_peak_bytes = 0;
  // Streaming service mode (DESIGN.md §13); all zero in replay mode so
  // existing compare_bench baselines stay parseable. Wall-clock derived, so
  // none of these participate in any bitwise parity contract.
  /// Ingest→decision latency quantiles in milliseconds: from the ingestion
  /// thread's push to the end of the first dispatch round that presented
  /// the request, over every request that reached a round.
  double dispatch_latency_p50_ms = 0;
  double dispatch_latency_p99_ms = 0;
  double dispatch_latency_p999_ms = 0;
  /// Filled by sustained-qps benches (bench/svc_sustained_qps.cc): one run
  /// probes a single rate, so the engine always reports 0 here.
  double max_sustained_qps = 0;
  /// Arrivals rejected because the ingestion ring was full — the admission-
  /// control overflow. Shed requests never release; they count as unserved
  /// (penalty applies), like riders the platform turned away at the door.
  uint64_t shed_requests = 0;
  /// Deepest the ingestion ring ever got (sampled at every push and at
  /// every batch-boundary drain).
  uint64_t ingest_queue_depth_max = 0;
};

/// How a field takes part in the parity checks, the "these two runs decided
/// the same" contracts. DESIGN.md §11 describes the classes.
enum class Parity {
  kLabel,     ///< identifies a row; never compared
  kOutcome,   ///< equal between any two runs that must decide the same
  kWork,      ///< deterministic, but the rebuild share graph differs on it
  kMeasured,  ///< wall-clock or process-wide; never compared
};

template <typename T>
struct MetricField {
  const char* name;  ///< key in a BENCH row
  Parity parity;
  T RunMetrics::*member;
  const char* golden;  ///< key in a golden digest line, or nullptr
};

// An entry whose BENCH key is the field's own name.
#define SR_METRIC(field, parity, golden)                            \
  MetricField<decltype(RunMetrics::field)>{#field, Parity::parity, \
                                           &RunMetrics::field, golden}

/// The metrics table: every RunMetrics field once. Entries with a golden key
/// are in golden-line order.
inline constexpr auto kRunMetricFields = std::make_tuple(
    SR_METRIC(dataset, kLabel, nullptr),
    SR_METRIC(algorithm, kLabel, nullptr),
    SR_METRIC(total_requests, kOutcome, "total"),
    SR_METRIC(served, kOutcome, "served"),
    SR_METRIC(cancelled, kOutcome, "cancelled"),
    SR_METRIC(expired, kOutcome, "expired"),
    SR_METRIC(rejected, kOutcome, "rejected"),
    SR_METRIC(late_dropoffs, kOutcome, "late_dropoffs"),
    SR_METRIC(unified_cost, kOutcome, "unified_cost"),
    SR_METRIC(travel_cost, kOutcome, "travel_cost"),
    SR_METRIC(penalty_cost, kOutcome, "penalty_cost"),
    SR_METRIC(service_rate, kOutcome, nullptr),
    SR_METRIC(pickup_wait_p50, kOutcome, "wait_p50"),
    SR_METRIC(pickup_wait_p99, kOutcome, "wait_p99"),
    SR_METRIC(mean_detour_ratio, kOutcome, "mean_detour"),
    SR_METRIC(repositions, kOutcome, "repositions"),
    SR_METRIC(reposition_cost, kOutcome, "reposition_cost"),
    SR_METRIC(num_shards, kOutcome, nullptr),
    SR_METRIC(cross_shard_trips, kOutcome, "cross_shard_trips"),
    SR_METRIC(shard_load_max_over_mean, kOutcome, "shard_load_ratio"),
    SR_METRIC(sp_queries, kOutcome, "sp_queries"),
    SR_METRIC(shard_sp_queries, kOutcome, "shard_sp_queries"),
    SR_METRIC(sharegraph_pair_checks, kWork, "pair_checks"),
    SR_METRIC(memory_bytes, kWork, "memory_bytes"),
    SR_METRIC(shard_cache_hit_rate, kWork, nullptr),
    MetricField<double>{"running_time_s", Parity::kMeasured,
                        &RunMetrics::running_time, nullptr},
    SR_METRIC(shard_round_time_max_over_mean, kMeasured, nullptr),
    SR_METRIC(allocs_per_batch_p50, kMeasured, nullptr),
    SR_METRIC(allocs_per_batch_max, kMeasured, nullptr),
    SR_METRIC(arena_peak_bytes, kMeasured, nullptr),
    SR_METRIC(dispatch_latency_p50_ms, kMeasured, nullptr),
    SR_METRIC(dispatch_latency_p99_ms, kMeasured, nullptr),
    SR_METRIC(dispatch_latency_p999_ms, kMeasured, nullptr),
    SR_METRIC(max_sustained_qps, kMeasured, nullptr),
    SR_METRIC(shed_requests, kMeasured, nullptr),
    SR_METRIC(ingest_queue_depth_max, kMeasured, nullptr));

#undef SR_METRIC

/// Calls \p f on every table entry, in table order.
template <typename F>
void ForEachMetric(F&& f) {
  std::apply([&f](const auto&... field) { (f(field), ...); },
             kRunMetricFields);
}

/// A table value as text: integers exact, strings as they are, doubles
/// through \p double_text, per-shard vectors joined by \p sep.
template <typename T, typename DoubleText>
std::string MetricText(const T& v, DoubleText double_text, const char* sep) {
  if constexpr (std::is_same_v<T, double>) {
    return double_text(v);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    std::string out;
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? sep : "") + MetricText(v[i], double_text, sep);
    }
    return out;
  }
}

enum class ParityScope { kOutcome, kOutcomeAndWork };

/// The shared parity check: each field in \p scope on which \p a and \p b
/// differ, as "name a vs b" joined by "; " (doubles with every digit).
/// Empty when the runs agree.
std::string ParityDiff(const RunMetrics& a, const RunMetrics& b,
                       ParityScope scope);

}  // namespace structride
