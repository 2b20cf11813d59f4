// Update differential suite: any interleaving of inserts, removes,
// k-NN, and radius queries through the broker must be indistinguishable
// from brute force over the as-of-submission live set — same ids, same
// distances, same (dist2, id) tie order — across every deadline /
// compaction configuration, including a zero-worker pool
// (compactions defer until drain) and a threshold low enough that
// background compactions churn mid-schedule. The delta tier, the
// tombstone over-fetch, the sorted merge, and the external-id
// translation may only change latency, never answers.
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using KnnRow = std::vector<knn::TopK::Entry>;
using RadiusRow = std::vector<std::pair<std::uint32_t, double>>;
using std::chrono::microseconds;

// Brute force over the current live set — the oracle every broker
// answer is checked against, including tie order.
struct LiveOracle {
  std::map<std::uint32_t, Pt> live;

  KnnRow knn(const Pt& q, std::size_t k,
             std::uint32_t exclude = 0xffffffffu) const {
    KnnRow all;
    all.reserve(live.size());
    for (const auto& [id, p] : live) {
      if (id == exclude) continue;
      all.push_back({geo::distance2(p, q), id});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  }

  RadiusRow radius(const Pt& q, double r) const {
    RadiusRow out;
    const double r2 = r * r;
    for (const auto& [id, p] : live) {
      const double d2 = geo::distance2(p, q);
      if (d2 <= r2) out.emplace_back(id, d2);  // closed ball
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    return out;
  }

  // A uniformly random live id (the container is small; the walk is
  // fine for a test oracle).
  std::uint32_t any_id(Rng& rng) const {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.below(live.size())));
    return it->first;
  }
};

void expect_knn_equal(const KnnRow& got, const KnnRow& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].index, want[s].index) << what << " slot " << s;
    EXPECT_DOUBLE_EQ(got[s].dist2, want[s].dist2) << what << " slot " << s;
  }
}

void expect_radius_equal(const RadiusRow& got, const RadiusRow& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].first, want[s].first) << what << " slot " << s;
    EXPECT_DOUBLE_EQ(got[s].second, want[s].second)
        << what << " slot " << s;
  }
}

struct UpdateVariant {
  const char* name;
  microseconds budget;               // 0 = no deadline
  std::size_t compaction_threshold;  // 0 = manual compact() only
  // ThreadPool constructor arg: 0 = a dedicated default-sized pool,
  // 1 = a zero-worker pool (ThreadPool(1) keeps no workers — the
  // calling thread runs everything via helping waits), -1 = the shared
  // global pool.
  int pool_threads;
};

// Manual compaction only, no deadline under compaction churn, a
// deadline already past under churn, a zero-worker pool (compactions
// run by helping-wait at drain), and a generous deadline.
constexpr UpdateVariant kVariants[] = {
    {"no_deadline_manual", microseconds(0), 0, -1},
    {"no_deadline_churn", microseconds(0), 24, -1},
    {"past_deadline_churn", microseconds(1), 24, -1},
    {"zero_worker_pool", microseconds(0), 16, 1},
    {"generous_deadline", microseconds(1'000'000), 48, -1},
};

// Runs one seeded schedule of interleaved updates and queries against
// one broker configuration, checking every answer against the oracle
// and the per-op stats reconciliation at quiescence.
void run_schedule(const UpdateVariant& v, workload::Kind kind,
                  std::size_t base_n, std::size_t ops,
                  std::uint64_t seed) {
  SCOPED_TRACE(std::string(v.name) + " " + workload::kind_name(kind) +
               " seed " + std::to_string(seed));
  Rng rng(seed);
  auto points = workload::generate<2>(kind, base_n, rng);

  BrokerConfig cfg;
  cfg.delta_compaction_threshold = v.compaction_threshold;
  cfg.index.seed = rng.next();
  par::ThreadPool local_pool(
      v.pool_threads < 0 ? 1u : static_cast<unsigned>(v.pool_threads));
  par::ThreadPool& pool =
      v.pool_threads < 0 ? par::ThreadPool::global() : local_pool;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  LiveOracle oracle;
  for (std::size_t i = 0; i < points.size(); ++i)
    oracle.live.emplace(static_cast<std::uint32_t>(i), points[i]);

  std::uint32_t next_id = static_cast<std::uint32_t>(base_n) + 1000;
  std::size_t n_knn = 0, n_radius = 0, n_inserts = 0, n_removes = 0;

  for (std::size_t op = 0; op < ops; ++op) {
    const std::size_t dice = rng.below(100);
    if (dice < 16) {
      // Insert — every fourth one duplicates the coordinates of a live
      // point, so zero-distance ties span base and delta.
      Pt p;
      if (!oracle.live.empty() && op % 4 == 0) {
        p = oracle.live.find(oracle.any_id(rng))->second;
      } else {
        p = Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
      }
      const std::uint32_t id = next_id++;
      broker.insert(id, p);
      oracle.live.emplace(id, p);
      ++n_inserts;
    } else if (dice < 22) {
      // Bulk insert: one view publication for the whole batch, with a
      // coordinate duplicated from the live set when possible so ties
      // span base, delta, and within-batch.
      const std::size_t batch = 2 + rng.below(7);
      std::vector<std::uint32_t> ids;
      std::vector<Pt> pts;
      for (std::size_t b = 0; b < batch; ++b) {
        ids.push_back(next_id++);
        if (!oracle.live.empty() && b == 0) {
          pts.push_back(oracle.live.find(oracle.any_id(rng))->second);
        } else {
          pts.push_back(Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
        }
      }
      broker.insert_bulk(ids, pts);
      for (std::size_t b = 0; b < batch; ++b)
        oracle.live.emplace(ids[b], pts[b]);
      n_inserts += batch;
    } else if (dice < 32) {
      if (oracle.live.empty()) continue;
      const std::uint32_t id = oracle.any_id(rng);
      broker.remove(id);
      oracle.live.erase(id);
      ++n_removes;
    } else if (dice < 38) {
      // Bulk remove of distinct live ids, one view publication.
      if (oracle.live.size() < 4) continue;
      std::vector<std::uint32_t> ids;
      while (ids.size() < 3) {
        const std::uint32_t id = oracle.any_id(rng);
        if (std::find(ids.begin(), ids.end(), id) == ids.end())
          ids.push_back(id);
      }
      broker.remove_bulk(ids);
      for (std::uint32_t id : ids) oracle.live.erase(id);
      n_removes += ids.size();
    } else if (dice < 65) {
      const Pt q{{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)}};
      const std::size_t k = 1 + rng.below(6);
      std::uint32_t exclude = QueryBroker<2>::kNoExclude;
      if (!oracle.live.empty() && dice % 3 == 0)
        exclude = oracle.any_id(rng);
      auto row = broker.knn(q, k, v.budget, exclude);
      ++n_knn;
      expect_knn_equal(row, oracle.knn(q, k, exclude),
                       "knn op " + std::to_string(op));
    } else {
      const Pt q{{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)}};
      const double r = rng.below(8) == 0 ? 0.0 : rng.uniform(0.02, 0.25);
      auto row = broker.radius(q, r, v.budget);
      ++n_radius;
      expect_radius_equal(row, oracle.radius(q, r),
                          "radius op " + std::to_string(op));
    }
    // Manual-compaction config: compact mid-schedule so both the
    // freshly-compacted and long-pending delta shapes are exercised.
    if (v.compaction_threshold == 0 && op % 64 == 63) broker.compact();
  }

  // Quiescence: join background compactions, then a final bulk sweep
  // over the settled live set.
  broker.drain_rebuilds();
  EXPECT_EQ(broker.live_count(), oracle.live.size());
  std::vector<Pt> sweep;
  for (int i = 0; i < 32; ++i)
    sweep.push_back({{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  auto rows = broker.bulk_knn(std::span<const Pt>(sweep), 4);
  for (std::size_t i = 0; i < sweep.size(); ++i)
    expect_knn_equal(rows[i], oracle.knn(sweep[i], 4),
                     "sweep row " + std::to_string(i));
  n_knn += sweep.size();

  // Per-op reconciliation (service_stats.hpp invariants) at quiescence.
  auto s = broker.stats();
  EXPECT_EQ(s.submitted, n_knn + n_radius);
  EXPECT_EQ(s.knn_submitted, n_knn);
  EXPECT_EQ(s.radius_submitted, n_radius);
  EXPECT_EQ(s.knn_submitted + s.radius_submitted, s.submitted);
  EXPECT_EQ(s.knn_answered, s.knn_submitted);
  EXPECT_EQ(s.radius_answered, s.radius_submitted);
  EXPECT_EQ(s.batched + s.punted, s.submitted);
  EXPECT_EQ(s.punted, s.submitted);
  EXPECT_EQ(s.updates_submitted, n_inserts + n_removes);
  EXPECT_EQ(s.inserts, n_inserts);
  EXPECT_EQ(s.removes, n_removes);
  EXPECT_EQ(s.update_apply.count(), s.updates_submitted);
  EXPECT_EQ(s.compaction_build.count(), s.compactions);
  EXPECT_EQ(s.punt_latency.count(), s.punted);
  if (v.compaction_threshold > 0 &&
      n_inserts + n_removes >= v.compaction_threshold) {
    // Every sealed job resolves as installed or abandoned by drain time.
    EXPECT_GE(s.compactions + s.compactions_abandoned, 1u);
  }
}

class ServiceUpdateDifferential
    : public ::testing::TestWithParam<workload::Kind> {};

TEST_P(ServiceUpdateDifferential, InterleavedSchedulesMatchBruteForce) {
  const workload::Kind kind = GetParam();
  std::uint64_t seed = 4100 + static_cast<std::uint64_t>(kind);
  for (const UpdateVariant& v : kVariants)
    run_schedule(v, kind, 220, 260, seed++);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ServiceUpdateDifferential,
    ::testing::Values(workload::Kind::UniformCube,
                      workload::Kind::GaussianClusters,
                      workload::Kind::Duplicates),
    [](const auto& pinfo) { return workload::kind_name(pinfo.param); });

// Large instance: more points, longer schedules, every variant — the
// stress-labeled half of the suite (tests/CMakeLists.txt registers this
// binary twice with a --gtest_filter split).
TEST(ServiceUpdateDifferentialStress, LargeInterleavedSchedules) {
  std::uint64_t seed = 5200;
  for (const UpdateVariant& v : kVariants) {
    run_schedule(v, workload::Kind::UniformCube, 1200, 1200, seed++);
    run_schedule(v, workload::Kind::Duplicates, 900, 900, seed++);
  }
}

// Invalid updates are rejected at the door: typed QueryError naming the
// offending field, thrown before any counter moves or any view
// publishes.
TEST(ServiceUpdateValidation, InvalidUpdatesThrowBeforeAccounting) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4300);
  auto points = workload::uniform_cube<2>(64, rng);
  BrokerConfig cfg;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);
  const std::uint64_t seq_before = broker.live_seq();

  try {
    broker.remove(9999);  // never existed
    FAIL() << "remove of a dead id did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "id");
  }
  try {
    broker.insert(5, Pt{{0.5, 0.5}});  // id 5 is live in the base
    FAIL() << "insert of a live id did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "id");
  }
  try {
    broker.insert(0xffffffffu, Pt{{0.5, 0.5}});  // reserved sentinel
    FAIL() << "insert of the reserved id did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "id");
  }
  try {
    broker.insert(100,
                  Pt{{std::numeric_limits<double>::quiet_NaN(), 0.0}});
    FAIL() << "insert of a NaN point did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "point");
  }

  auto s = broker.stats();
  EXPECT_EQ(s.updates_submitted, 0u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.removes, 0u);
  EXPECT_EQ(s.update_apply.count(), 0u);
  EXPECT_EQ(broker.live_seq(), seq_before) << "rejected update published";
  EXPECT_EQ(broker.live_count(), points.size());

  // One valid update of each kind moves exactly the matching counters.
  broker.insert(100, Pt{{0.5, 0.5}});
  broker.remove(100);
  s = broker.stats();
  EXPECT_EQ(s.updates_submitted, 2u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.removes, 1u);
  EXPECT_EQ(s.update_apply.count(), 2u);
  // And the id is dead again: a second remove is invalid.
  EXPECT_THROW(broker.remove(100), QueryError);
}

// Regression (per-op view publication): a bulk mutation batch must
// publish exactly one LiveView — before insert_bulk/remove_bulk, each
// element published its own view, so a 64-point ingest cost 64 shared-
// pointer swaps and readers could observe every partial prefix of the
// batch.
TEST(ServiceUpdateBulk, BulkBatchPublishesOneView) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4800);
  auto points = workload::uniform_cube<2>(80, rng);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;  // no background publications
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  std::vector<std::uint32_t> ids;
  std::vector<Pt> pts;
  for (std::uint32_t i = 0; i < 64; ++i) {
    ids.push_back(1000 + i);
    pts.push_back(Pt{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}});
  }
  std::uint64_t seq = broker.live_seq();
  broker.insert_bulk(ids, pts);
  EXPECT_EQ(broker.live_seq(), seq + 1)
      << "bulk insert published more than one view";
  EXPECT_EQ(broker.live_count(), points.size() + ids.size());

  seq = broker.live_seq();
  broker.remove_bulk(std::span<const std::uint32_t>(ids).subspan(0, 32));
  EXPECT_EQ(broker.live_seq(), seq + 1)
      << "bulk remove published more than one view";
  EXPECT_EQ(broker.live_count(), points.size() + 32);

  auto s = broker.stats();
  EXPECT_EQ(s.updates_submitted, 96u);
  EXPECT_EQ(s.inserts, 64u);
  EXPECT_EQ(s.removes, 32u);
  // The apply histogram counts per element (weighted record), so the
  // histogram/counter reconciliation invariant survives bulk batches.
  EXPECT_EQ(s.update_apply.count(), s.updates_submitted);
}

// A bulk batch is validated before any element mutates: one bad entry
// anywhere rejects the whole batch with nothing applied, nothing
// published, and no counter moved.
TEST(ServiceUpdateBulk, BulkBatchValidatesBeforeAnyMutation) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4900);
  auto points = workload::uniform_cube<2>(48, rng);
  BrokerConfig cfg;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);
  const std::uint64_t seq = broker.live_seq();

  const Pt good{{0.5, 0.5}};
  const Pt bad{{std::numeric_limits<double>::quiet_NaN(), 0.0}};
  struct Case {
    const char* what;
    std::vector<std::uint32_t> ids;
    std::vector<Pt> pts;
    const char* field;
  };
  const Case cases[] = {
      {"NaN mid-batch", {500, 501, 502}, {good, bad, good}, "point"},
      {"live id mid-batch", {500, 5, 502}, {good, good, good}, "id"},
      {"repeated id in batch", {500, 501, 500}, {good, good, good}, "id"},
      {"reserved id mid-batch",
       {500, 0xffffffffu, 502},
       {good, good, good},
       "id"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    try {
      broker.insert_bulk(c.ids, c.pts);
      FAIL() << "bad bulk insert did not throw";
    } catch (const QueryError& e) {
      EXPECT_EQ(e.field(), c.field);
    }
    EXPECT_EQ(broker.live_seq(), seq) << "rejected bulk batch published";
    EXPECT_EQ(broker.live_count(), points.size());
    EXPECT_FALSE(broker.contains(500)) << "partial bulk insert applied";
  }

  // Bulk remove: a dead id or an in-batch repeat rejects the batch.
  try {
    broker.remove_bulk(std::vector<std::uint32_t>{3, 9999});
    FAIL() << "bulk remove of a dead id did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "id");
  }
  try {
    broker.remove_bulk(std::vector<std::uint32_t>{3, 4, 3});
    FAIL() << "bulk remove with a repeat did not throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "id");
  }
  EXPECT_TRUE(broker.contains(3)) << "partial bulk remove applied";
  EXPECT_EQ(broker.live_seq(), seq);

  auto s = broker.stats();
  EXPECT_EQ(s.updates_submitted, 0u);
  EXPECT_EQ(s.update_apply.count(), 0u);
}

// remove + reinsert of the same external id — within one delta segment,
// across a compaction, and re-using a base id at new coordinates.
TEST(ServiceUpdateEdges, RemoveThenReinsertSameId) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4400);
  auto points = workload::uniform_cube<2>(120, rng);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  const Pt moved{{2.0, 2.0}};  // far outside the cube: unambiguous hits
  broker.remove(7);
  broker.insert(7, moved);  // tombstone + add side by side in one segment
  EXPECT_TRUE(broker.contains(7));

  auto hits = broker.radius(moved, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 7u);
  EXPECT_EQ(hits[0].second, 0.0);
  // The old incarnation is dead: nothing lives at the base coordinates.
  for (const auto& [id, d2] : broker.radius(points[7], 1e-12))
    EXPECT_NE(id, 7u);

  // Compaction folds the reinserted point into the base; answers hold.
  ASSERT_TRUE(broker.compact());
  hits = broker.radius(moved, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 7u);

  // And the cycle works again on the compacted (non-identity) base.
  broker.remove(7);
  EXPECT_FALSE(broker.contains(7));
  broker.insert(7, Pt{{3.0, 3.0}});
  hits = broker.radius(Pt{{3.0, 3.0}}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, 7u);
  EXPECT_EQ(broker.live_count(), points.size());
}

// A broker can start with no points at all: every answer comes from the
// delta tier until the first compaction builds a real base.
TEST(ServiceUpdateEdges, DeltaOnlyServiceServesAndCompacts) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4500);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;
  QueryBroker<2> broker(std::span<const Pt>{}, cfg, pool);
  EXPECT_EQ(broker.live_count(), 0u);

  // Empty service: well-formed empty answers, not errors.
  EXPECT_TRUE(broker.knn(Pt{{0.5, 0.5}}, 3).empty());
  EXPECT_TRUE(broker.radius(Pt{{0.5, 0.5}}, 0.2).empty());

  LiveOracle oracle;
  for (std::uint32_t i = 0; i < 24; ++i) {
    Pt p{{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)}};
    broker.insert(i, p);
    oracle.live.emplace(i, p);
  }
  const Pt q{{0.4, 0.6}};
  expect_knn_equal(broker.knn(q, 5), oracle.knn(q, 5), "delta-only knn");
  expect_radius_equal(broker.radius(q, 0.3), oracle.radius(q, 0.3),
                      "delta-only radius");

  // First compaction turns the delta into the first real base.
  ASSERT_TRUE(broker.compact());
  ASSERT_NE(broker.current_snapshot(), nullptr);
  EXPECT_NE(broker.current_snapshot()->index, nullptr);
  EXPECT_EQ(broker.stats().compactions, 1u);
  expect_knn_equal(broker.knn(q, 5), oracle.knn(q, 5), "compacted knn");

  // Updates keep working on top of the compacted base.
  broker.remove(3);
  oracle.live.erase(3);
  broker.insert(100, Pt{{0.41, 0.61}});
  oracle.live.emplace(100, Pt{{0.41, 0.61}});
  expect_knn_equal(broker.knn(q, 5), oracle.knn(q, 5), "post-compact knn");
  expect_radius_equal(broker.radius(q, 0.3), oracle.radius(q, 0.3),
                      "post-compact radius");
  EXPECT_EQ(broker.live_count(), oracle.live.size());
}

// Removing every point drives the service back to the empty state —
// and compacting an all-tombstone delta installs the empty generation.
TEST(ServiceUpdateEdges, RemoveEverythingThenCompact) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4600);
  auto points = workload::uniform_cube<2>(40, rng);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  for (std::uint32_t i = 0; i < points.size(); ++i) broker.remove(i);
  EXPECT_EQ(broker.live_count(), 0u);
  EXPECT_TRUE(broker.knn(points[0], 3).empty());
  EXPECT_TRUE(broker.radius(points[0], 10.0).empty());

  ASSERT_TRUE(broker.compact());
  EXPECT_EQ(broker.live_count(), 0u);
  EXPECT_TRUE(broker.knn(points[0], 3).empty());

  // The empty service accepts inserts again.
  broker.insert(0, points[0]);
  auto row = broker.knn(points[0], 1);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].index, 0u);
}

// rebuild() resets the live set to exactly the given points: pending
// updates are dropped, ids return to 0..n-1 identity.
TEST(ServiceUpdateEdges, RebuildResetsLiveSet) {
  auto& pool = par::ThreadPool::global();
  Rng rng(4700);
  auto points = workload::uniform_cube<2>(150, rng);
  auto points2 = workload::uniform_cube<2>(90, rng);
  BrokerConfig cfg;
  cfg.delta_compaction_threshold = 0;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg, pool);

  broker.insert(5000, Pt{{0.2, 0.8}});
  broker.remove(3);
  EXPECT_TRUE(broker.contains(5000));
  EXPECT_FALSE(broker.contains(3));

  broker.rebuild(std::span<const Pt>(points2));
  EXPECT_EQ(broker.live_count(), points2.size());
  EXPECT_FALSE(broker.contains(5000)) << "rebuild kept a pending insert";
  EXPECT_TRUE(broker.contains(3));  // identity id 3 of the new set

  LiveOracle oracle;
  for (std::size_t i = 0; i < points2.size(); ++i)
    oracle.live.emplace(static_cast<std::uint32_t>(i), points2[i]);
  const Pt q{{0.5, 0.5}};
  expect_knn_equal(broker.knn(q, 4), oracle.knn(q, 4), "post-rebuild knn");
}

}  // namespace
}  // namespace sepdc::service
