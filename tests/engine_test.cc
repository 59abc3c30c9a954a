// The event-core contract (DESIGN.md §6); absolute outcomes are pinned by
// the golden digests (golden_test.cc):
//  1. The incremental share graph reproduces the rebuild-per-batch path.
//  2. Scenario runs are deterministic under a fixed seed.
//  3. The repositioning hook never violates capacity or deadlines (late
//     dropoffs stay impossible) and its legs are charged to travel cost.
//  4. The EventQueue pops (time, type, FIFO) — the tie discipline that
//     fixes what each batch tick sees of same-time events.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/scenario.h"
#include "tests/test_fixtures.h"

namespace structride {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The incremental share graph's parity guarantee (DESIGN.md §7): one
// maintained graph per run — requests retired at assignment / cancellation
// / expiry events, fresh slices folded in per round — must reproduce the
// rebuild-per-batch reference on served / costs / sp_queries / service
// quality bitwise, for every graph-consuming dispatcher and preset, while
// never spending more exact pair checks than the rebuild path re-spends.
// SARD reads the run builder either way, so its cases pin that the flag
// leaves it untouched.
TEST(EngineTest, IncrementalShareGraphMatchesRebuildReference) {
  for (const std::string& ds :
       {std::string("CHD"), std::string("NYC"), std::string("Cainiao")}) {
    for (const char* algo : {"GAS", "RTV", "SARD"}) {
      SCOPED_TRACE(ds + " " + algo);
      TinyPreset inc(ds), ref(ds);
      DispatchConfig inc_config = inc.Config();
      inc_config.incremental_sharegraph = true;
      DispatchConfig ref_config = ref.Config();
      ref_config.incremental_sharegraph = false;
      RunMetrics on = inc.MakeEngine(inc.Options())->Run(algo, inc_config);
      RunMetrics off = ref.MakeEngine(ref.Options())->Run(algo, ref_config);
      ExpectOutcomeEqual(on, off);
      // The whole point: maintenance never re-checks a pair the reference
      // path re-checks every batch. (The ≥2x reduction is gated at bench
      // scale by abl_incremental_sharegraph; tiny pools here may retire
      // too fast for a fixed ratio.)
      EXPECT_LE(on.sharegraph_pair_checks, off.sharegraph_pair_checks);
      EXPECT_GT(off.sharegraph_pair_checks, 0u);
    }
  }
}

// Online dispatch mode on the incremental graph: per-request insert at
// release events, removal at assignment — same outcome as the
// rebuild-per-round reference under the mode switch. GAS and RTV are the
// dispatchers the flag switches (SARD always reads the run builder); the
// rebuild reference re-checks every surviving pair each round, so it must
// spend strictly more exact checks.
TEST(EngineTest, IncrementalShareGraphMatchesRebuildInOnlineMode) {
  for (const char* algo : {"GAS", "RTV"}) {
    SCOPED_TRACE(algo);
    auto run_mode = [&](bool incremental) {
      TinyPreset preset("CHD");
      const double d = preset.spec.workload.duration;
      SimulationOptions sopts = preset.Options();
      auto sim = preset.MakeEngine(sopts);
      sim->AddScenario(MakeDispatchModeSwitch(0.25 * d, kInf));
      DispatchConfig config = preset.Config();
      config.incremental_sharegraph = incremental;
      return sim->Run(algo, config);
    };
    RunMetrics on = run_mode(true);
    RunMetrics off = run_mode(false);
    ExpectOutcomeEqual(on, off);
    EXPECT_LT(on.sharegraph_pair_checks, off.sharegraph_pair_checks);
  }
}

// Contract 2: a fixed scenario stack under a fixed seed reproduces exactly
// (fresh fixture per run: cold caches make sp_queries comparable).
TEST(EngineTest, ScenarioRunsAreDeterministic) {
  auto run_once = [&]() {
    TinyPreset preset("NYC");
    const double d = preset.spec.workload.duration;
    SimulationOptions sopts = preset.Options();
    auto sim = preset.MakeEngine(sopts);
    sim->AddScenario(MakeDemandSurge(0.25 * d, 0.5 * d, 3.0));
    sim->AddScenario(MakeVehicleDowntime(0.3 * d, 0.3 * d, 0.5));
    sim->AddScenario(MakeDispatchModeSwitch(0.5 * d, kInf));
    sim->SetRepositioningPolicy(MakeGreedyCentroidRepositioning());
    return sim->Run("SARD", preset.Config());
  };
  RunMetrics a = run_once();
  RunMetrics b = run_once();
  ExpectBitwiseEqual(a, b);
  EXPECT_GE(a.served, 0);
  EXPECT_LE(a.served, a.total_requests);
  EXPECT_EQ(a.late_dropoffs, 0);
}

// Downtime semantics: pulling the whole fleet before anything is released
// and never restoring it means nobody is ever served — and the unified
// cost degenerates to the full penalty sum.
TEST(EngineTest, FullDowntimeServesNothing) {
  TinyPreset preset("CHD");
  SimulationOptions sopts = preset.Options();
  auto sim = preset.MakeEngine(sopts);
  sim->AddScenario(MakeVehicleDowntime(0, kInf, 1.0));
  DispatchConfig config = preset.Config();
  RunMetrics m = sim->Run("SARD", config);
  EXPECT_EQ(m.served, 0);
  EXPECT_EQ(m.travel_cost, 0);
  double full_penalty = 0;
  for (const Request& r : preset.requests) {
    full_penalty += config.penalty_coefficient * r.direct_cost;
  }
  EXPECT_DOUBLE_EQ(m.unified_cost, full_penalty);
}

// Dispatch-mode switch: with a batch period longer than every deadline, the
// pure batch engine can't serve anyone (requests expire before the first
// tick), while per-request online dispatch still can.
TEST(EngineTest, OnlineDispatchServesWhatBatchTicksMiss) {
  TinyPreset preset("CHD");
  SimulationOptions sopts = preset.Options();
  sopts.batch_period = 10 * preset.spec.workload.duration;
  RunMetrics batch =
      preset.MakeEngine(sopts)->Run("pruneGDP", preset.Config());
  EXPECT_EQ(batch.served, 0);

  auto online_sim = preset.MakeEngine(sopts);
  online_sim->AddScenario(MakeDispatchModeSwitch(0, kInf));
  RunMetrics online = online_sim->Run("pruneGDP", preset.Config());
  EXPECT_GT(online.served, 0);
}

// Contract 3: repositioning must never break promises. Late dropoffs stay
// impossible (CommitStops still gates every commit), completed legs are
// counted and charged into travel cost, and the run stays deterministic.
TEST(EngineTest, RepositioningKeepsInvariants) {
  auto run_with_policy = [&](bool enabled) {
    TinyPreset preset("Cainiao");
    SimulationOptions sopts = preset.Options();
    auto sim = preset.MakeEngine(sopts);
    if (enabled) {
      sim->SetRepositioningPolicy(MakeGreedyCentroidRepositioning());
    }
    return sim->Run("SARD", preset.Config());
  };
  RunMetrics off = run_with_policy(false);
  RunMetrics on = run_with_policy(true);
  EXPECT_EQ(off.repositions, 0);
  EXPECT_EQ(off.reposition_cost, 0);
  EXPECT_EQ(on.late_dropoffs, 0);
  EXPECT_GE(on.reposition_cost, 0);
  if (on.repositions > 0) {
    EXPECT_GT(on.reposition_cost, 0);
  }
  // Relocation miles are inside travel_cost, so unified cost accounts them.
  EXPECT_GE(on.travel_cost, on.reposition_cost);
  RunMetrics again = run_with_policy(true);
  ExpectBitwiseEqual(on, again);
}

// Out-of-service vehicles leave the candidate market; a downtime run must
// stay bitwise identical across worker-thread counts. Threads run only
// shard batches, so the run is sharded.
TEST(EngineTest, DowntimeIsThreadCountInvariant) {
  auto run_threads = [&](int threads) {
    TinyPreset preset("CHD");
    const double d = preset.spec.workload.duration;
    SimulationOptions sopts = preset.Options();
    auto sim = preset.MakeEngine(sopts);
    sim->AddScenario(MakeVehicleDowntime(0.2 * d, 0.4 * d, 0.5));
    DispatchConfig config = preset.Config(threads);
    config.num_shards = 4;
    return sim->Run("SARD", config);
  };
  RunMetrics one = run_threads(1);
  RunMetrics eight = run_threads(8);
  ExpectBitwiseEqual(one, eight);
}

// An unreachable reposition target (disconnected component, Cost = +inf)
// must be refused outright — an infinite leg would never complete mid-run
// and would charge +inf into travel_cost at the end-of-run drain.
TEST(EngineTest, RepositionToUnreachableTargetIsRefused) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1, 0});
  net.AddNode({5, 0});  // own component: no edges to it
  net.AddEdge(0, 1, 1.0);
  TravelCostEngine engine(net);
  Vehicle v(0, 0, 4);
  EXPECT_FALSE(v.BeginReposition(2, 0, &engine));
  EXPECT_FALSE(v.repositioning());
  EXPECT_TRUE(v.BeginReposition(1, 0, &engine));
  EXPECT_TRUE(v.repositioning());
}

namespace {

// Records which vehicles are in service at a chosen time.
class FleetProbeScenario : public Scenario {
 public:
  FleetProbeScenario(double when, std::vector<bool>* out)
      : when_(when), out_(out) {}
  const char* name() const override { return "fleet_probe"; }
  void OnInstall(ScenarioHost* host) override { host->ScheduleAt(when_, 0); }
  void OnEvent(ScenarioHost* host, int64_t) override {
    out_->clear();
    for (const Vehicle& v : host->fleet()) out_->push_back(v.in_service());
  }

 private:
  double when_;
  std::vector<bool>* out_;
};

}  // namespace

// Overlapping downtime windows: each scenario must restore the vehicles it
// pulled, never another scenario's. A pulls vehicle 0 at t=10 and restores
// at t=40; B pulls vehicle 1 at t=20 permanently. At t=100 vehicle 0 must
// be back and vehicle 1 still out (a shared LIFO would swap them).
TEST(EngineTest, OverlappingDowntimesRestoreTheirOwnVehicles) {
  TinyPreset preset("CHD");
  SimulationOptions sopts;
  sopts.batch_period = 200;  // first tick after every scenario event
  sopts.seed = 4242;
  SimulationEngine sim(preset.engine.get(), {}, sopts);  // empty stream
  sim.SpawnFleet(4, 2);
  sim.AddScenario(MakeVehicleDowntime(10, 30, 0.01));   // pulls 1, restores
  sim.AddScenario(MakeVehicleDowntime(20, kInf, 0.01));  // pulls 1, keeps it
  std::vector<bool> in_service;
  sim.AddScenario(std::make_unique<FleetProbeScenario>(100, &in_service));
  DispatchConfig config;
  sim.Run("SARD", config);
  ASSERT_EQ(in_service.size(), 4u);
  EXPECT_TRUE(in_service[0]);   // pulled by A, restored by A
  EXPECT_FALSE(in_service[1]);  // pulled by B, still off duty
  EXPECT_TRUE(in_service[2]);
  EXPECT_TRUE(in_service[3]);
}

// Contract 4: the queue's tie discipline. Same time: scenario < release <
// stop completion < vehicle migration < tick < cancellation < expiry;
// within one bucket, FIFO. (Migration after the stops that moved the
// vehicle, before the tick that dispatches over settled residency.)
TEST(EventQueueTest, PopsTimeThenTypeThenFifo) {
  EventQueue q;
  q.Push({5, EventType::kRiderExpiry, 0, 0});
  q.Push({5, EventType::kBatchTick, 1, 0});
  q.Push({5, EventType::kRequestRelease, 2, 0});
  q.Push({5, EventType::kRequestRelease, 3, 0});
  q.Push({5, EventType::kRiderCancellation, 4, 0});
  q.Push({5, EventType::kStopCompletion, 5, 0});
  q.Push({5, EventType::kScenario, 6, 0});
  q.Push({5, EventType::kVehicleMigration, 8, 0});
  q.Push({1, EventType::kRiderExpiry, 7, 0});

  std::vector<int64_t> got;
  while (!q.empty()) got.push_back(q.Pop().a);
  EXPECT_EQ(got, (std::vector<int64_t>{7, 6, 2, 3, 5, 8, 1, 4, 0}));
}

// A state change scheduled at exactly a release's timestamp covers that
// release: the mode switch at T fires before the release at T, so the
// rider gets an online round even when batch ticks alone would be too late.
TEST(EngineTest2, ModeSwitchCoversSameTimeRelease) {
  TinyPreset preset("CHD");
  Request r;
  r.id = 0;
  r.source = 0;
  r.destination = static_cast<NodeId>(preset.net.num_nodes() - 1);
  r.release_time = 3;
  r.direct_cost = preset.engine->Cost(r.source, r.destination);
  r.deadline = r.release_time + 2 * r.direct_cost;
  r.latest_pickup = r.deadline - r.direct_cost;

  SimulationOptions sopts;
  sopts.batch_period = 1e6;  // ticks alone would let the request expire
  sopts.seed = 4242;
  SimulationEngine sim(preset.engine.get(), {r}, sopts);
  sim.SpawnFleet(3, 2);
  sim.AddScenario(MakeDispatchModeSwitch(r.release_time, kInf));
  DispatchConfig config;
  RunMetrics m = sim.Run("pruneGDP", config);
  EXPECT_EQ(m.served, 1);
}

// Property test: any event stream pops in exactly the order a stable sort
// on (time, type) produces — FIFO inside every (time, type) bucket. Times
// are drawn from a handful of discrete values so equal-timestamp ties are
// dense (the regime the batch-tick equivalence depends on), and each
// event's payload is its push index so FIFO violations are visible.
TEST(EventQueueTest, RandomStreamsMatchStableSortReference) {
  Rng rng(20260728);
  constexpr EventType kTypes[] = {
      EventType::kScenario,         EventType::kRequestRelease,
      EventType::kStopCompletion,   EventType::kVehicleMigration,
      EventType::kBatchTick,        EventType::kRiderCancellation,
      EventType::kRiderExpiry,
  };
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 199));
    // Few distinct times (sometimes just one): maximal tie pressure.
    const int distinct_times = 1 + static_cast<int>(rng.UniformInt(0, 7));
    std::vector<Event> pushed;
    EventQueue q;
    for (int i = 0; i < n; ++i) {
      Event e;
      e.time = static_cast<double>(rng.UniformInt(0, distinct_times - 1));
      e.type = kTypes[rng.UniformInt(0, 6)];
      e.a = i;  // push index: the FIFO witness
      q.Push(e);
      pushed.push_back(e);
    }
    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const Event& x, const Event& y) {
                       if (x.time != y.time) return x.time < y.time;
                       return static_cast<int>(x.type) <
                              static_cast<int>(y.type);
                     });
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(q.empty());
      Event got = q.Pop();
      EXPECT_EQ(got.time, pushed[static_cast<size_t>(i)].time)
          << "trial " << trial << " pop " << i;
      EXPECT_EQ(static_cast<int>(got.type),
                static_cast<int>(pushed[static_cast<size_t>(i)].type))
          << "trial " << trial << " pop " << i;
      ASSERT_EQ(got.a, pushed[static_cast<size_t>(i)].a)
          << "trial " << trial << " pop " << i;
    }
    EXPECT_TRUE(q.empty());
  }
}

// Same property under interleaved push/pop: popping a prefix mid-stream
// never reorders what remains relative to the stable-sort reference of the
// whole stream (the popped prefix is always a prefix of that reference).
TEST(EventQueueTest, InterleavedRandomStreamsStayStable) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    std::vector<Event> alive;  // events currently in the queue
    for (int step = 0; step < 300; ++step) {
      if (q.empty() || rng.Uniform(0, 1) < 0.6) {
        Event e;
        e.time = static_cast<double>(rng.UniformInt(0, 3));
        e.type = static_cast<EventType>(rng.UniformInt(0, 6));
        e.a = step;
        q.Push(e);
        alive.push_back(e);
      } else {
        // The popped event must be the stable-sort minimum of the alive
        // set; remove the first matching element (FIFO) from the model.
        Event got = q.Pop();
        auto best = alive.begin();
        for (auto it = alive.begin(); it != alive.end(); ++it) {
          if (it->time < best->time ||
              (it->time == best->time &&
               static_cast<int>(it->type) < static_cast<int>(best->type))) {
            best = it;
          }
        }
        ASSERT_EQ(got.a, best->a) << "trial " << trial << " step " << step;
        alive.erase(best);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario edge cases: extreme but legal configurations must terminate
// cleanly with internally consistent RunMetrics.
// ---------------------------------------------------------------------------

void ExpectConsistentMetrics(const RunMetrics& m) {
  EXPECT_GE(m.served, 0);
  EXPECT_GE(m.cancelled, 0);
  EXPECT_LE(m.served + m.cancelled, m.total_requests);
  EXPECT_EQ(m.late_dropoffs, 0);
  EXPECT_GE(m.travel_cost, 0);
  EXPECT_GE(m.penalty_cost, 0);
  EXPECT_DOUBLE_EQ(m.unified_cost, m.travel_cost + m.penalty_cost);
  const double expect_rate =
      m.total_requests == 0
          ? 0
          : static_cast<double>(m.served) / m.total_requests;
  EXPECT_DOUBLE_EQ(m.service_rate, expect_rate);
}

// 100% of the fleet pulled mid-run and never restored: vehicles finish
// committed stops, every still-open rider expires, and the engine must
// still terminate with the books balanced (served riders keep their travel
// cost, everyone else is penalized).
TEST(ScenarioEdgeTest, FullFleetPullMidRunTerminates) {
  TinyPreset preset("CHD");
  const double d = preset.spec.workload.duration;
  auto sim = preset.MakeEngine(preset.Options());
  sim->AddScenario(MakeVehicleDowntime(0.3 * d, kInf, 1.0));
  RunMetrics m = sim->Run("SARD", preset.Config());
  ExpectConsistentMetrics(m);
  EXPECT_LT(m.served, m.total_requests);  // the pull really cut service
}

// A surge window compressed to a single instant (factor = +inf): every
// release in the window lands on exactly the window start. The release
// burst shares one timestamp — the queue's FIFO tie discipline keeps the
// stored order — and the run must complete with consistent metrics.
TEST(ScenarioEdgeTest, SurgeCompressedToSingleInstant) {
  // Fresh preset per run: a shared travel-cost cache would warm up and
  // make the second run's sp_queries incomparable.
  auto run_once = [&]() {
    TinyPreset preset("NYC");
    const double d = preset.spec.workload.duration;
    auto sim = preset.MakeEngine(preset.Options());
    sim->AddScenario(MakeDemandSurge(0.25 * d, 0.75 * d, kInf));
    RunMetrics m = sim->Run("SARD", preset.Config());
    EXPECT_EQ(m.total_requests, static_cast<int>(preset.requests.size()));
    return m;
  };
  RunMetrics m = run_once();
  ExpectConsistentMetrics(m);
  // Determinism under the degenerate retiming.
  ExpectBitwiseEqual(m, run_once());
}

// Online mode over an empty workload: no releases ever fire, so the run
// must end at the first batch tick with all-zero books instead of idling
// forever waiting for a request.
TEST(ScenarioEdgeTest, OnlineModeWithEmptyWorkloadTerminates) {
  TinyPreset preset("CHD");
  SimulationOptions sopts = preset.Options();
  SimulationEngine sim(preset.engine.get(), {}, sopts);
  sim.SpawnFleet(3, preset.spec.capacity);
  sim.AddScenario(MakeDispatchModeSwitch(0, kInf));
  RunMetrics m = sim.Run("SARD", preset.Config());
  ExpectConsistentMetrics(m);
  EXPECT_EQ(m.total_requests, 0);
  EXPECT_EQ(m.served, 0);
  EXPECT_EQ(m.unified_cost, 0);
  EXPECT_EQ(m.sharegraph_pair_checks, 0u);
}

// A sorted run served beside the heap pops exactly like the all-heap queue
// that Pushed the same events at the same point, with pushes before the
// run, and pushes and pops after it, tying in time across every type.
TEST(EventQueueTest, SortedRunPopsLikeTheAllHeapQueue) {
  Rng rng(4711);
  for (int trial = 0; trial < 100; ++trial) {
    EventQueue merged, heaped;
    int64_t next = 0;
    auto random_event = [&] {
      Event e;
      e.time = static_cast<double>(rng.UniformInt(0, 4));
      e.type = static_cast<EventType>(rng.UniformInt(0, 6));
      e.a = next++;
      return e;
    };
    auto push_both = [&](const Event& e) {
      merged.Push(e);
      heaped.Push(e);
    };
    for (int64_t i = rng.UniformInt(0, 8); i > 0; --i) {
      push_both(random_event());
    }
    std::vector<Event> run(static_cast<size_t>(rng.UniformInt(0, 120)));
    for (Event& e : run) e = random_event();
    std::stable_sort(run.begin(), run.end(),
                     [](const Event& x, const Event& y) {
                       if (x.time != y.time) return x.time < y.time;
                       return x.type < y.type;
                     });
    for (const Event& e : run) heaped.Push(e);
    merged.PushSorted(run);
    while (!heaped.empty()) {
      ASSERT_EQ(merged.size(), heaped.size());
      if (next < 300 && rng.Uniform(0, 1) < 0.3) {
        push_both(random_event());
        continue;
      }
      ASSERT_EQ(merged.Top().a, heaped.Top().a);
      const Event x = merged.Pop();
      const Event y = heaped.Pop();
      ASSERT_EQ(x.a, y.a) << "trial " << trial;
      ASSERT_EQ(x.time, y.time);
      ASSERT_EQ(x.type, y.type);
    }
    EXPECT_TRUE(merged.empty());
  }
}

TEST(EventQueueTest, InterleavedPushPopKeepsHeapOrder) {
  EventQueue q;
  for (int i = 0; i < 50; ++i) {
    q.Push({static_cast<double>((i * 37) % 13), EventType::kBatchTick, i, 0});
    if (i % 3 == 2) q.Pop();
  }
  double last = -1;
  while (!q.empty()) {
    double t = q.Top().time;
    EXPECT_GE(t, last);
    last = t;
    q.Pop();
  }
}

}  // namespace
}  // namespace structride
