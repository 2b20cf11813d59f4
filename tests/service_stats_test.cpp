// Tests for service/service_stats.hpp, pinning the relaxed snapshot
// path of the sharding counters and the histogram snapshot plumbing.
#include "service/service_stats.hpp"

#include <gtest/gtest.h>

namespace {

using sepdc::service::ServiceStats;

// The sharding counters ride the same relaxed snapshot path as
// everything else: boundary_fanout is derived at snapshot time as
// fanout_queries / submitted — 0 when nothing was submitted, never NaN.
TEST(ServiceStats, FanoutSnapshot) {
  ServiceStats stats;
  EXPECT_DOUBLE_EQ(stats.snapshot().boundary_fanout, 0.0);

  ServiceStats::add(stats.submitted, 80);
  ServiceStats::add(stats.fanout_queries, 20);
  ServiceStats::add(stats.shard_visits, 130);

  auto s = stats.snapshot();
  EXPECT_EQ(s.submitted, 80u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.fanout_queries, 20u);
  EXPECT_EQ(s.shard_visits, 130u);
  EXPECT_DOUBLE_EQ(s.boundary_fanout, 20.0 / 80.0);
}

TEST(ServiceStats, SnapshotCarriesHistograms) {
  ServiceStats stats;
  stats.punt_latency.record(200, 2);
  stats.update_apply.record(1000, 4);
  stats.compaction_build.record(5000);
  stats.index_load.record(7000);
  auto s = stats.snapshot();
  EXPECT_EQ(s.punt_latency.count(), 2u);
  EXPECT_EQ(s.update_apply.count(), 4u);
  EXPECT_EQ(s.compaction_build.count(), 1u);
  EXPECT_EQ(s.index_load.count(), 1u);
  EXPECT_EQ(s.update_apply.sum(), 4000u);
  // The histograms of the deleted batch path stay empty.
  EXPECT_EQ(s.queue_wait.count(), 0u);
  EXPECT_EQ(s.batch_execute.count(), 0u);
  EXPECT_EQ(s.flush_size.count(), 0u);
}

}  // namespace
