// Broker budget and path suite: negative budgets are rejected before
// any accounting, and a default broker answers every query — single,
// bulk, and bulks large enough to spread over the pool — by a direct
// index call on the caller's thread, exact against brute force
// (tie order included) under concurrent clients, with the stats
// reconciliation invariants documented in service_stats.hpp.
#include "service/query_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "knn/brute_force.hpp"
#include "workload/generators.hpp"

namespace sepdc::service {
namespace {

using Pt = geo::Point<2>;
using std::chrono::microseconds;

std::vector<Pt> make_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return workload::generate<2>(workload::Kind::UniformCube, n, rng);
}

// ------------------------------------------------- budget validation

TEST(ServiceSlo, NegativeBudgetRejectedBeforeAccounting) {
  auto points = make_points(64, 43);
  BrokerConfig cfg;
  cfg.index.seed = 3;
  QueryBroker<2> broker(std::span<const Pt>(points), cfg,
                        par::ThreadPool::global());

  auto expect_budget_error = [](auto&& call) {
    try {
      call();
      FAIL() << "negative budget must throw QueryError";
    } catch (const QueryError& e) {
      EXPECT_EQ(e.field(), "budget");
    }
  };
  expect_budget_error(
      [&] { broker.knn(points[0], 3, microseconds(-5)); });
  expect_budget_error(
      [&] { broker.radius(points[0], 0.1, microseconds(-1)); });
  expect_budget_error([&] {
    broker.bulk_knn(std::span<const Pt>(points).subspan(0, 4), 3,
                    microseconds(-100));
  });
  expect_budget_error([&] {
    broker.bulk_radius(std::span<const Pt>(points).subspan(0, 4), 0.1,
                       microseconds(-7));
  });

  // Rejected at the door: no counter moved.
  auto s = broker.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.knn_submitted, 0u);
  EXPECT_EQ(s.radius_submitted, 0u);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.punted, 0u);
  EXPECT_EQ(s.fast_lane, 0u);
  EXPECT_EQ(s.shed, 0u);

  // Only kNoDeadline exactly means "no deadline": a zero budget is
  // accepted, answered, and never expires.
  auto row = broker.knn(points[0], 3, QueryBroker<2>::kNoDeadline);
  EXPECT_EQ(row.size(), 3u);
  s = broker.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.punted, 1u);
  EXPECT_EQ(s.expired, 0u);
}

// ------------------------------------------------- the one query path

using KnnRow = QueryBroker<2>::KnnRow;
using RadiusRow = QueryBroker<2>::RadiusRow;

// Every point sorted by (dist2, id): the k-NN oracle is a prefix, the
// closed-ball oracle the prefix with dist2 <= r^2.
RadiusRow all_by_distance(std::span<const Pt> points, const Pt& q) {
  RadiusRow all;
  all.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j)
    all.emplace_back(static_cast<std::uint32_t>(j),
                     geo::distance2(points[j], q));
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  return all;
}

bool knn_matches(const KnnRow& got, const RadiusRow& sorted,
                 std::size_t k) {
  if (got.size() != std::min(k, sorted.size())) return false;
  for (std::size_t s = 0; s < got.size(); ++s)
    if (got[s].index != sorted[s].first || got[s].dist2 != sorted[s].second)
      return false;
  return true;
}

bool radius_matches(const RadiusRow& got, const RadiusRow& sorted,
                    double r) {
  RadiusRow expect;
  for (const auto& hit : sorted) {
    if (hit.second > r * r) break;
    expect.push_back(hit);
  }
  return got == expect;
}

// A default broker has one path: each knn/radius/bulk call is answered
// by a direct index query on the calling thread (bulks of more than 8
// queries spread over the pool), so every answered query counts
// as punted and nothing is batched or fast-laned. The lattice input
// puts whole rings of points at equal distance from lattice and
// half-lattice queries, so the (dist2, id) tie order is exercised.
TEST(ServiceSlo, DefaultBrokerAnswersEveryQueryDirectly) {
  constexpr std::size_t kSide = 71;
  constexpr std::size_t kN = 5000;
  constexpr std::size_t kK = 6;
  constexpr double kRadius = 2.0 / 64.0;
  std::vector<Pt> points;
  points.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i)
    points.push_back({{static_cast<double>(i % kSide) / 64.0,
                       static_cast<double>(i / kSide) / 64.0}});
  std::span<const Pt> span(points);

  std::vector<Pt> queries;
  for (std::size_t i = 0; i < 240; ++i) {
    const Pt& p = points[(i * 97) % kN];
    queries.push_back(i % 2 == 0 ? p
                                 : Pt{{p[0] + 0.5 / 64.0, p[1] + 0.5 / 64.0}});
  }
  std::vector<RadiusRow> sorted(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    sorted[i] = all_by_distance(span, queries[i]);

  BrokerConfig cfg;
  cfg.index.seed = 41;
  QueryBroker<2> broker(span, cfg, par::ThreadPool::global());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSmall = 8;   // one block: the caller's thread
  constexpr std::size_t kChunk = 24;  // three blocks over the pool
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> asked{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += kThreads) {
        if (!knn_matches(broker.knn(queries[i], kK), sorted[i], kK))
          wrong.fetch_add(1);
        if (!radius_matches(broker.radius(queries[i], kRadius), sorted[i],
                            kRadius))
          wrong.fetch_add(1);
        asked.fetch_add(2);
      }
      // Two bulks per thread, one on each side of the smallest block:
      // kSmall is answered inline, kChunk spreads over the pool while
      // the other clients' bulks do the same.
      std::size_t lo = t * (kSmall + kChunk);
      for (std::size_t len : {kSmall, kChunk}) {
        auto rows = broker.bulk_knn(
            std::span<const Pt>(queries).subspan(lo, len), kK);
        for (std::size_t j = 0; j < len; ++j)
          if (!knn_matches(rows[j], sorted[lo + j], kK)) wrong.fetch_add(1);
        asked.fetch_add(len);
        lo += len;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(wrong.load(), 0u);

  // A 5000-query all-k-NN with identity excludes, spread over the pool
  // in one block per pool thread.
  std::vector<std::uint32_t> identity(kN);
  std::iota(identity.begin(), identity.end(), 0u);
  auto rows = broker.bulk_knn(span, kK, QueryBroker<2>::kNoDeadline,
                              identity);
  auto oracle = knn::brute_force<2>(span, kK);
  ASSERT_EQ(rows.size(), kN);
  std::size_t all_knn_wrong = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    auto nbr = oracle.row_neighbors(i);
    auto d2 = oracle.row_dist2(i);
    bool same = rows[i].size() == oracle.count(i);
    for (std::size_t s = 0; same && s < rows[i].size(); ++s)
      same = rows[i][s].index == nbr[s] && rows[i][s].dist2 == d2[s];
    if (!same) ++all_knn_wrong;
  }
  EXPECT_EQ(all_knn_wrong, 0u);

  auto s = broker.stats();
  EXPECT_EQ(s.submitted, asked.load() + kN);
  EXPECT_EQ(s.punted, s.submitted);
  EXPECT_EQ(s.batched, 0u);
  EXPECT_EQ(s.fast_lane, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.punt_latency.count(), s.punted);
  EXPECT_EQ(s.knn_submitted + s.radius_submitted, s.submitted);
  EXPECT_EQ(s.knn_answered, s.knn_submitted);
  EXPECT_EQ(s.radius_answered, s.radius_submitted);
  EXPECT_EQ(s.bulk_requests, 2 * kThreads + 1);
}

}  // namespace
}  // namespace sepdc::service
