// Golden run digests. Every cell below replays one fixed (preset,
// dispatcher, config) run on a cold travel-cost engine and must reproduce
// its recorded line in tests/golden/run_digests.txt exactly. A line holds
// the metrics-table fields that have a golden key (sim/run_metrics.h):
// every outcome counter, every cost and service-quality statistic as exact
// double bits, #SP queries in total and per shard, share-graph pair checks
// and instrumented memory. A mismatch names the cell, the field and both
// values.
//
//   golden_test --update   rewrites the file from the current code and
//                          prints what moved, per changed field: the cell
//                          count, the totals and the cells per dispatcher.
//
// Regenerate only under DESIGN.md §11: an intended outcome change, a
// lossless optimisation whose summary shows only the SP-query fields and
// pair_checks falling, or a deletion of instrumented structures whose
// summary shows only memory_bytes falling. Show the summary and explain
// the golden diff in the change's notes.
//
// The cells:
//  - the roster matrix: the paper's six dispatchers x the shrunk CHD / NYC
//    / Cainiao presets x {1 thread at 1 and 4 geo-shards, 8 threads at 4}
//    (threads only run shard batches, so an 8-thread 1-shard cell would be
//    its 1-thread twin);
//  - the rebuild-per-batch share-graph path (incremental_sharegraph off)
//    for the graph consumers GAS, RTV and SARD over the same grid (SARD
//    reads the run builder either way, so its lines equal its incremental
//    ones);
//  - SARD under a second seed, and under the cancellation + capacity-
//    variance fault models;
//  - SARD under the full scenario stack (surge, downtime, online switch,
//    greedy repositioning) on each preset;
//  - the roster on the unshrunk presets at scale 0.05, one thread and one
//    shard: bench-sized batches on a bench-sized city.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/run_metrics.h"
#include "sim/scenario.h"
#include "tests/test_fixtures.h"

namespace structride {
namespace {

bool g_update = false;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Presets are built once (network, hub labels, request stream); every
// cell runs on its own cold engine over them.
const TinyPreset& Preset(const std::string& name, bool bench_scale) {
  static std::map<std::pair<std::string, bool>, std::unique_ptr<TinyPreset>>
      cache;
  std::unique_ptr<TinyPreset>& slot = cache[{name, bench_scale}];
  if (!slot) slot = std::make_unique<TinyPreset>(name, bench_scale);
  return *slot;
}

struct Cell {
  std::string name;
  std::string dataset;
  bool bench_scale = false;
  std::string algo;
  int threads = 1;
  int shards = 1;
  bool incremental = true;
  uint64_t seed = 4242;
  bool faults = false;
  bool scenarios = false;
};

std::vector<Cell> AllCells() {
  const std::vector<std::string> datasets = {"CHD", "NYC", "Cainiao"};
  std::vector<Cell> cells;
  auto grid_name = [](const Cell& c) {
    return "tiny/" + c.dataset + "/" + c.algo + "/t" +
           std::to_string(c.threads) + "/z" + std::to_string(c.shards);
  };
  // (threads, shards) per grid point.
  const std::pair<int, int> grid[] = {{1, 1}, {1, 4}, {8, 4}};
  for (const std::string& ds : datasets) {
    for (const std::string& algo : AllDispatcherNames()) {
      for (const auto& [threads, shards] : grid) {
        Cell c;
        c.dataset = ds;
        c.algo = algo;
        c.threads = threads;
        c.shards = shards;
        c.name = grid_name(c);
        cells.push_back(c);
      }
    }
  }
  for (const std::string& ds : datasets) {
    for (const char* algo : {"GAS", "RTV", "SARD"}) {
      for (const auto& [threads, shards] : grid) {
        Cell c;
        c.dataset = ds;
        c.algo = algo;
        c.threads = threads;
        c.shards = shards;
        c.incremental = false;
        c.name = grid_name(c) + "/rebuild";
        cells.push_back(c);
      }
    }
  }
  for (const std::string& ds : datasets) {
    Cell c;
    c.dataset = ds;
    c.algo = "SARD";
    c.seed = 777;
    c.name = grid_name(c) + "/seed777";
    cells.push_back(c);
  }
  {
    Cell c;
    c.dataset = "CHD";
    c.algo = "SARD";
    c.faults = true;
    c.name = grid_name(c) + "/faults";
    cells.push_back(c);
  }
  for (const std::string& ds : datasets) {
    Cell c;
    c.dataset = ds;
    c.algo = "SARD";
    c.scenarios = true;
    c.name = grid_name(c) + "/scenarios";
    cells.push_back(c);
  }
  for (const std::string& ds : datasets) {
    for (const std::string& algo : AllDispatcherNames()) {
      Cell c;
      c.dataset = ds;
      c.bench_scale = true;
      c.algo = algo;
      c.name = "scale0.05/" + ds + "/" + algo + "/t1/z1";
      cells.push_back(c);
    }
  }
  return cells;
}

RunMetrics RunCell(const Cell& cell) {
  const TinyPreset& preset = Preset(cell.dataset, cell.bench_scale);
  // Declared before the simulation engine, which keeps cache partitions
  // parented to it.
  std::unique_ptr<TravelCostEngine> engine = preset.ColdEngine();

  SimulationOptions sopts = preset.Options(cell.seed);
  if (cell.faults) {
    sopts.cancellation_rate = 0.4;
    sopts.cancellation_patience = 15;
    sopts.capacity_sigma = 1.0;
    sopts.capacity_mean = preset.spec.capacity;
  }
  SimulationEngine sim(engine.get(), preset.requests, sopts);
  sim.SpawnFleet(preset.fleet_size, preset.spec.capacity);
  if (cell.scenarios) {
    const double d = preset.spec.workload.duration;
    sim.AddScenario(MakeDemandSurge(0.25 * d, 0.5 * d, 3.0));
    sim.AddScenario(MakeVehicleDowntime(0.3 * d, 0.3 * d, 0.5));
    sim.AddScenario(MakeDispatchModeSwitch(0.5 * d, kInf));
    sim.SetRepositioningPolicy(MakeGreedyCentroidRepositioning());
  }

  DispatchConfig config = preset.Config(cell.threads);
  config.num_shards = cell.shards;
  config.incremental_sharegraph = cell.incremental;
  return sim.Run(cell.algo, config);
}

std::string HexBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, bits);
  return buf;
}

using Fields = std::vector<std::pair<std::string, std::string>>;

// The metrics-table entries that have a golden key, in table order:
// doubles as exact bits, per-shard vectors comma-joined.
Fields Digest(const RunMetrics& m) {
  Fields fields;
  ForEachMetric([&](const auto& field) {
    if (field.golden != nullptr) {
      fields.emplace_back(field.golden,
                          MetricText(m.*field.member, HexBits, ","));
    }
  });
  return fields;
}

std::string FormatLine(const std::string& cell, const Fields& fields) {
  std::string line = cell;
  for (const auto& [key, value] : fields) line += " " + key + "=" + value;
  return line;
}

// Recorded digests by cell name; '#' lines are comments.
std::map<std::string, Fields> ReadGoldenFile(const std::string& path) {
  std::map<std::string, Fields> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream tokens(line);
    std::string cell, token;
    tokens >> cell;
    Fields fields;
    while (tokens >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        fields.emplace_back(token, "");
      } else {
        fields.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
    }
    out[cell] = std::move(fields);
  }
  return out;
}

void ExpectMatchesRecord(const std::string& cell, const Fields& recorded,
                         const Fields& actual) {
  std::map<std::string, std::string> want(recorded.begin(), recorded.end());
  for (const auto& [key, value] : actual) {
    auto it = want.find(key);
    if (it == want.end()) {
      ADD_FAILURE() << "cell " << cell << " field " << key
                    << ": expected <not recorded>, actual " << value;
      continue;
    }
    if (it->second != value) {
      ADD_FAILURE() << "cell " << cell << " field " << key
                    << ": expected " << it->second << ", actual " << value;
    }
    want.erase(it);
  }
  for (const auto& [key, value] : want) {
    ADD_FAILURE() << "cell " << cell << " field " << key
                  << ": expected " << value << ", actual <not produced>";
  }
}

// A digest value as integers: one for a counter, one per shard for a
// per-shard list. False for anything else (the double bit patterns).
bool ParseIntegers(const std::string& value, std::vector<long long>* out) {
  out->clear();
  std::istringstream parts(value);
  std::string part;
  while (std::getline(parts, part, ',')) {
    if (part.empty() || part.find_first_not_of("0123456789") !=
                            std::string::npos) {
      return false;
    }
    out->push_back(std::stoll(part));
  }
  return !out->empty();
}

// What `--update` prints: per field, how many cells changed and, for
// integer fields, how many rose and fell and the total over all cells
// before -> after, then the changed cells per dispatcher. A per-shard list
// counts as risen (fallen) when any of its entries rose (fell).
void PrintUpdateSummary(const std::map<std::string, Fields>& before,
                        const std::map<std::string, Fields>& after,
                        const std::map<std::string, std::string>& algo_of) {
  struct Moves {
    int changed = 0, up = 0, down = 0;
    bool integer = true;
    long long total_before = 0, total_after = 0;
    std::map<std::string, int> changed_by_algo;
  };
  std::vector<std::string> order;
  std::map<std::string, Moves> moves;
  int added = 0, removed = 0;
  for (const auto& [cell, fields] : after) {
    auto old_it = before.find(cell);
    if (old_it == before.end()) {
      ++added;
      continue;
    }
    std::map<std::string, std::string> old_fields(old_it->second.begin(),
                                                  old_it->second.end());
    for (const auto& [key, value] : fields) {
      if (moves.count(key) == 0) order.push_back(key);
      Moves& m = moves[key];
      const std::string& old_value = old_fields[key];
      if (old_value != value) {
        ++m.changed;
        ++m.changed_by_algo[algo_of.at(cell)];
      }
      std::vector<long long> was, now;
      if (!ParseIntegers(old_value, &was) || !ParseIntegers(value, &now)) {
        m.integer = false;
        continue;
      }
      bool rose = false, fell = false;
      for (size_t k = 0; k < was.size() || k < now.size(); ++k) {
        const long long a = k < was.size() ? was[k] : 0;
        const long long b = k < now.size() ? now[k] : 0;
        rose |= b > a;
        fell |= b < a;
        m.total_before += a;
        m.total_after += b;
      }
      m.up += rose;
      m.down += fell;
    }
  }
  for (const auto& [cell, fields] : before) removed += after.count(cell) == 0;
  if (added > 0 || removed > 0) {
    std::printf("cells: %d added, %d removed\n", added, removed);
  }
  bool any = false;
  for (const std::string& key : order) {
    const Moves& m = moves[key];
    if (m.changed == 0) continue;
    any = true;
    if (m.integer) {
      std::printf("%s: %d changed, %d up, %d down, %lld -> %lld\n",
                  key.c_str(), m.changed, m.up, m.down, m.total_before,
                  m.total_after);
    } else {
      std::printf("%s: %d changed\n", key.c_str(), m.changed);
    }
    std::string by_algo;
    for (const auto& [algo, n] : m.changed_by_algo) {
      by_algo += (by_algo.empty() ? " " : ", ") + algo + " " +
                 std::to_string(n);
    }
    std::printf("  changed cells by dispatcher:%s\n", by_algo.c_str());
  }
  if (!any) std::printf("no field changed in any cell\n");
}

const char kHeader[] =
    "# Golden run digests: one line per cell, written by `golden_test "
    "--update`.\n"
    "# Doubles are IEEE-754 bit patterns; see tests/golden_test.cc for the "
    "cells.\n";

TEST(GoldenTest, EveryCellMatchesItsRecordedDigest) {
  const std::vector<Cell> cells = AllCells();
  if (g_update) {
    std::string text = kHeader;
    std::map<std::string, Fields> digests;
    std::map<std::string, std::string> algo_of;
    for (const Cell& cell : cells) {
      Fields fields = Digest(RunCell(cell));
      text += FormatLine(cell.name, fields) + "\n";
      digests[cell.name] = std::move(fields);
      algo_of[cell.name] = cell.algo;
    }
    PrintUpdateSummary(ReadGoldenFile(STRUCTRIDE_GOLDEN_FILE), digests,
                       algo_of);
    std::ofstream out(STRUCTRIDE_GOLDEN_FILE, std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write " << STRUCTRIDE_GOLDEN_FILE;
    return;
  }
  std::map<std::string, Fields> recorded =
      ReadGoldenFile(STRUCTRIDE_GOLDEN_FILE);
  ASSERT_FALSE(recorded.empty())
      << "no digests in " << STRUCTRIDE_GOLDEN_FILE
      << " (run golden_test --update)";
  for (const Cell& cell : cells) {
    auto it = recorded.find(cell.name);
    if (it == recorded.end()) {
      ADD_FAILURE() << "cell " << cell.name << " has no recorded digest";
      continue;
    }
    ExpectMatchesRecord(cell.name, it->second, Digest(RunCell(cell)));
    recorded.erase(it);
  }
  for (const auto& [name, fields] : recorded) {
    ADD_FAILURE() << "recorded cell " << name << " is not produced any more";
  }
}

}  // namespace
}  // namespace structride

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) {
      structride::g_update = true;
    } else {
      std::fprintf(stderr, "usage: %s [--update] [gtest flags]\n", argv[0]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
