// Concurrency stress: N writer threads continuously rebuilding snapshots
// while M reader threads query through the broker. Because every
// generation is built over the SAME point set (different separator
// seeds), every exact answer is invariant across generations — so any
// torn read, use-after-free, or half-published snapshot shows up as a
// wrong answer against the fixed oracle (and as a race under TSan).
// Readers also assert that the snapshot version they observe never goes
// backwards.
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "knn/kdtree.hpp"
#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using std::chrono::microseconds;

struct Oracle {
  std::vector<Pt> points;
  std::vector<Pt> queries;
  std::size_t k;
  double radius;
  std::vector<std::vector<knn::TopK::Entry>> knn_rows;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> radius_rows;

  Oracle(std::size_t n, std::size_t nq, std::size_t k_in, double r,
         Rng& rng)
      : k(k_in), radius(r) {
    points = workload::uniform_cube<2>(n, rng);
    for (std::size_t q = 0; q < nq; ++q)
      queries.push_back({{rng.uniform(), rng.uniform()}});
    knn::KdTree<2> tree{std::span<const Pt>(points)};
    knn_rows.resize(nq);
    radius_rows.resize(nq);
    for (std::size_t q = 0; q < nq; ++q) {
      knn_rows[q] = tree.query(queries[q], k).take_sorted();
      for (std::size_t j = 0; j < points.size(); ++j) {
        double d2 = geo::distance2(points[j], queries[q]);
        if (d2 <= r * r)
          radius_rows[q].emplace_back(static_cast<std::uint32_t>(j), d2);
      }
      std::sort(radius_rows[q].begin(), radius_rows[q].end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return a.first < b.first;
                });
    }
  }
};

TEST(ServiceConcurrency, ReadersSeeExactAnswersUnderContinuousRebuild) {
  Rng rng(2100);
  Oracle oracle(1200, 160, 3, 0.12, rng);
  std::span<const Pt> span(oracle.points);

  BrokerConfig cfg;
  cfg.max_batch = 8;
  cfg.flush_interval = microseconds(50);
  cfg.index.seed = rng.next();
  auto& pool = par::ThreadPool::global();
  QueryBroker<2> broker(span, cfg, pool);

  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kRebuildsPerWriter = 5;
  constexpr int kItersPerReader = 120;

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> max_seen_version{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRebuildsPerWriter; ++r) {
        // Alternate blocking rebuilds with pool-submitted async ones so
        // both publication paths race against readers.
        if ((w + r) % 2 == 0) {
          broker.rebuild(span);
        } else {
          broker.rebuild_async(oracle.points);  // copies the point set
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int m = 0; m < kReaders; ++m) {
    readers.emplace_back([&, m] {
      Rng lrng(3000 + static_cast<std::uint64_t>(m));
      std::uint64_t last_version = 0;
      for (int it = 0; it < kItersPerReader; ++it) {
        std::size_t q = lrng.below(oracle.queries.size());
        switch (it % 4) {
          case 0: {  // single k-NN through the batch path
            auto row = broker.knn(oracle.queries[q], oracle.k);
            if (row != oracle.knn_rows[q]) failures.fetch_add(1);
            break;
          }
          case 1: {  // tight deadline: exercises the punt path
            auto row = broker.knn(oracle.queries[q], oracle.k,
                                  microseconds(1));
            if (row != oracle.knn_rows[q]) failures.fetch_add(1);
            break;
          }
          case 2: {  // bulk chunk
            std::size_t lo = lrng.below(oracle.queries.size() - 8);
            auto rows = broker.bulk_knn(
                std::span<const Pt>(oracle.queries).subspan(lo, 8),
                oracle.k);
            for (std::size_t i = 0; i < rows.size(); ++i)
              if (rows[i] != oracle.knn_rows[lo + i]) failures.fetch_add(1);
            break;
          }
          case 3: {  // radius
            auto row = broker.radius(oracle.queries[q], oracle.radius);
            if (row != oracle.radius_rows[q]) failures.fetch_add(1);
            break;
          }
        }
        // Snapshot versions must be monotone from any one reader's view.
        std::uint64_t v = broker.version();
        if (v < last_version) failures.fetch_add(1000);
        last_version = v;
        std::uint64_t seen = max_seen_version.load();
        while (seen < v &&
               !max_seen_version.compare_exchange_weak(seen, v)) {
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  broker.drain_rebuilds();

  EXPECT_EQ(failures.load(), 0);

  // Every rebuild claimed a distinct version; the final published version
  // is the largest claimed one (10 rebuilds + the constructor's build).
  const std::uint64_t total_builds = 1 + kWriters * kRebuildsPerWriter;
  EXPECT_EQ(broker.version(), total_builds);
  EXPECT_GE(max_seen_version.load(), 1u);

  auto s = broker.stats();
  EXPECT_EQ(s.rebuilds, total_builds);
  EXPECT_EQ(s.snapshots_published + s.snapshots_discarded, total_builds);
  EXPECT_EQ(s.batched + s.punted, s.submitted);
  EXPECT_GT(s.punted, 0u);  // the 1us-deadline readers punted
  // Histogram reconciliation at quiescence: after every reader and
  // writer has joined, the histograms recorded under full contention
  // must agree exactly with the outcome counters (relaxed atomics drop
  // nothing).
  EXPECT_EQ(s.queue_wait.count(), s.batched);
  EXPECT_EQ(s.punt_latency.count(), s.punted);
  EXPECT_EQ(s.batch_execute.count(), s.flushes);
  EXPECT_EQ(s.flush_size.count(), s.flushes);
  EXPECT_EQ(s.flush_size.sum(), s.batched);
}

// Torn-read hunt on the snapshot store itself: hammer publish/current
// from many threads; every snapshot a reader obtains must be internally
// consistent (version matches the generation's recorded point count).
TEST(ServiceConcurrency, SnapshotStorePublishIsAtomicAndMonotone) {
  Rng rng(2200);
  auto& pool = par::ThreadPool::global();
  core::SeparatorIndexConfig icfg;
  icfg.seed = rng.next();

  // Generations of distinct sizes: size identifies the generation, so a
  // mixed-up snapshot is detectable.
  std::vector<std::vector<Pt>> generations;
  for (std::size_t g = 0; g < 6; ++g)
    generations.push_back(workload::uniform_cube<2>(200 + 50 * g, rng));

  SnapshotStore<2> store;
  store.rebuild(std::span<const Pt>(generations[0]), icfg, pool);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int m = 0; m < 3; ++m) {
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = store.current();
        if (!snap || !snap->index ||
            snap->index->size() != snap->point_count) {
          failures.fetch_add(1);
        }
        if (snap->version < last) failures.fetch_add(1000);
        last = snap->version;
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Rng wrng(40 + static_cast<std::uint64_t>(w));
      for (int r = 0; r < 8; ++r) {
        const auto& pts = generations[wrng.below(generations.size())];
        core::SeparatorIndexConfig c = icfg;
        c.seed = wrng.next();
        store.rebuild(std::span<const Pt>(pts), c, pool);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.version(), 1u + 2u * 8u);
}

}  // namespace
}  // namespace sepdc::service
