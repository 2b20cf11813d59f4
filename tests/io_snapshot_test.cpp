// Snapshot persistence suite (docs/persistence.md).
//
// Round-trip contract: an index saved to disk and mmap-loaded back must
// be *byte-identical* to the built one — same storage bytes, and the
// same answers (ids, bitwise-equal distances, and tie order) on every
// query path: index ball-march, single-pass k-NN, the batched entry
// points, and a broker cold-started from the file. The
// Duplicates workload is in the matrix deliberately: coincident points
// produce equal distances, so any tie-order drift in a loaded snapshot
// fails here.
//
// Corruption contract: a damaged file (truncation, foreign magic,
// flipped byte in a checksummed section, wrong dimension, missing file)
// throws a typed io::SnapshotIoError with the matching code, and a
// store that was asked to bootstrap from it publishes nothing.
#include "io/snapshot_file.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/query_broker.hpp"
#include "service/snapshot.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace sepdc::io {
namespace {

using Pt = geo::Point<2>;
using service::SnapshotStore;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<Pt> make_points(workload::Kind kind, std::size_t n,
                            std::uint64_t seed) {
  Rng rng(seed);
  return workload::generate<2>(kind, n, rng);
}

typename SnapshotStore<2>::Ptr build_snapshot(
    std::span<const Pt> points, par::ThreadPool& pool,
    std::uint64_t version = 1) {
  core::SeparatorIndexConfig cfg;
  cfg.leaf_size = 16;
  return SnapshotStore<2>::build(points, cfg, pool, version);
}

template <class T>
void expect_bytes_equal(std::span<const T> a, std::span<const T> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
      << what;
}

// Bitwise equality on the (id, dist2) payload fields — never memcmp on
// the row structs, whose alignment padding is uninitialized.
void expect_entries_identical(const std::vector<knn::TopK::Entry>& a,
                              const std::vector<knn::TopK::Entry>& b,
                              const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].index, b[s].index) << what << " slot " << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[s].dist2),
              std::bit_cast<std::uint64_t>(b[s].dist2))
        << what << " slot " << s;
  }
}

void expect_pairs_identical(
    const std::vector<std::pair<std::uint32_t, double>>& a,
    const std::vector<std::pair<std::uint32_t, double>>& b,
    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].first, b[s].first) << what << " slot " << s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[s].second),
              std::bit_cast<std::uint64_t>(b[s].second))
        << what << " slot " << s;
  }
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

// --------------------------------------------------------- round trip

class SnapshotRoundTrip : public ::testing::TestWithParam<workload::Kind> {
};

TEST_P(SnapshotRoundTrip, StorageBytesAreIdentical) {
  par::ThreadPool pool(4);
  auto points = make_points(GetParam(), 900, 77);
  auto built = build_snapshot(points, pool);
  const std::string path =
      temp_path(std::string("bytes_") + workload::kind_name(GetParam()) +
                ".sepdc");
  save_snapshot<2>(path, *built->index, built->version);
  auto loaded = load_snapshot<2>(path);

  const auto& bi = *built->index;
  const auto& li = *loaded.index;
  expect_bytes_equal(bi.points(), li.points(), "index points");
  expect_bytes_equal(bi.perm(), li.perm(), "perm");
  expect_bytes_equal(bi.forest().nodes(), li.forest().nodes(),
                     "forest nodes");
  expect_bytes_equal(bi.leaf_blocks(), li.leaf_blocks(), "leaf blocks");
  expect_bytes_equal(bi.blocks().coords(), li.blocks().coords(),
                     "block coords");
  expect_bytes_equal(bi.blocks().ids(), li.blocks().ids(), "block ids");
  expect_bytes_equal(bi.blocks().lanes(), li.blocks().lanes(),
                     "block lanes");
  EXPECT_EQ(bi.forest().root_id(), li.forest().root_id());
  EXPECT_EQ(bi.config().leaf_size, li.config().leaf_size);
  EXPECT_EQ(bi.config().seed, li.config().seed);
  EXPECT_EQ(loaded.saved_version, built->version);
  EXPECT_EQ(loaded.point_count, points.size());
}

TEST_P(SnapshotRoundTrip, AnswersAreByteIdenticalOnEveryPath) {
  par::ThreadPool pool(4);
  auto points = make_points(GetParam(), 900, 78);
  auto built = build_snapshot(points, pool);
  const std::string path =
      temp_path(std::string("paths_") + workload::kind_name(GetParam()) +
                ".sepdc");
  save_snapshot<2>(path, *built->index, built->version);
  auto loaded = load_snapshot<2>(path);

  auto queries = make_points(workload::Kind::UniformCube, 64, 79);
  // Indexed points as queries too: exact-hit / zero-distance ties.
  queries.insert(queries.end(), points.begin(), points.begin() + 32);
  const std::size_t k = 5;
  const double radius = 0.15;

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Pt& q = queries[qi];
    const std::string tag = "query " + std::to_string(qi);
    // Index single-pass k-NN path.
    expect_entries_identical(built->index->knn(q, k).take_sorted(),
                             loaded.index->knn(q, k).take_sorted(),
                             "index knn " + tag);
    // Index ball-march path, enumeration order included.
    std::vector<std::pair<std::uint32_t, double>> e, f;
    built->index->for_each_in_ball(q, radius, [&](std::uint32_t id,
                                                  double d2) {
      e.emplace_back(id, d2);
    });
    loaded.index->for_each_in_ball(q, radius, [&](std::uint32_t id,
                                                  double d2) {
      f.emplace_back(id, d2);
    });
    expect_pairs_identical(e, f, "ball march " + tag);
  }

  // Batched entry points.
  std::span<const Pt> qspan(queries);
  auto bk = built->index->batch_knn(pool, qspan, k);
  auto lk = loaded.index->batch_knn(pool, qspan, k);
  ASSERT_EQ(bk.size(), lk.size());
  for (std::size_t i = 0; i < bk.size(); ++i)
    expect_entries_identical(bk[i], lk[i],
                             "batch_knn row " + std::to_string(i));
  auto br = built->index->batch_radius(pool, qspan, radius);
  auto lr = loaded.index->batch_radius(pool, qspan, radius);
  ASSERT_EQ(br.size(), lr.size());
  for (std::size_t i = 0; i < br.size(); ++i)
    expect_pairs_identical(br[i], lr[i],
                           "batch_radius row " + std::to_string(i));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SnapshotRoundTrip,
    ::testing::Values(workload::Kind::UniformCube,
                      workload::Kind::GaussianClusters,
                      workload::Kind::Duplicates),
    [](const auto& pinfo) { return workload::kind_name(pinfo.param); });

// A broker cold-started from a snapshot file answers byte-identically
// to the broker that built the index, and the persistence counters move.
TEST(SnapshotBroker, ColdStartServesIdenticalAnswers) {
  par::ThreadPool pool(4);
  auto points = make_points(workload::Kind::Duplicates, 800, 91);
  service::BrokerConfig cfg;
  cfg.max_batch = 16;
  const std::string path = temp_path("broker_cold_start.sepdc");

  service::QueryBroker<2> warm(std::span<const Pt>(points), cfg, pool);
  ASSERT_TRUE(warm.save_snapshot(path));
  EXPECT_EQ(warm.stats().snapshot_saves, 1u);

  service::QueryBroker<2> cold(path, cfg, pool);
  EXPECT_EQ(cold.stats().snapshot_loads, 1u);
  EXPECT_EQ(cold.stats().index_load.count(), 1u);
  EXPECT_EQ(cold.version(), 1u);  // fresh local generation, not on-disk
  ASSERT_NE(cold.current_snapshot(), nullptr);
  EXPECT_EQ(cold.current_snapshot()->point_count, points.size());

  auto queries = make_points(workload::Kind::UniformCube, 96, 92);
  auto wk = warm.bulk_knn(std::span<const Pt>(queries), 4);
  auto ck = cold.bulk_knn(std::span<const Pt>(queries), 4);
  ASSERT_EQ(wk.size(), ck.size());
  for (std::size_t i = 0; i < wk.size(); ++i)
    expect_entries_identical(wk[i], ck[i],
                             "bulk_knn row " + std::to_string(i));
  auto wr = warm.bulk_radius(std::span<const Pt>(queries), 0.1);
  auto cr = cold.bulk_radius(std::span<const Pt>(queries), 0.1);
  ASSERT_EQ(wr.size(), cr.size());
  for (std::size_t i = 0; i < wr.size(); ++i)
    expect_pairs_identical(wr[i], cr[i],
                           "bulk_radius row " + std::to_string(i));

  // A cold-started broker is a full broker: rebuilds still work.
  auto version = cold.rebuild(std::span<const Pt>(points));
  EXPECT_EQ(version, 2u);
}

// A save taken with live updates pending serializes base + delta as one
// coherent view, and a cold start replays it to the identical live set
// (docs/updates.md): same membership, same answers, same tie order.
TEST(SnapshotBroker, PendingUpdatesSurviveColdStart) {
  par::ThreadPool pool(4);
  auto points = make_points(workload::Kind::UniformCube, 500, 93);
  service::BrokerConfig cfg;
  cfg.max_batch = 16;
  cfg.delta_compaction_threshold = 0;  // keep the delta pending
  const std::string path = temp_path("broker_pending_delta.sepdc");

  service::QueryBroker<2> warm(std::span<const Pt>(points), cfg, pool);
  warm.remove(7);
  warm.remove(123);
  warm.insert(500, Pt{{0.42, 0.13}});
  warm.insert(777, Pt{{points[7][0], points[7][1]}});  // duplicate coords
  ASSERT_TRUE(warm.save_snapshot(path));

  service::QueryBroker<2> cold(path, cfg, pool);
  EXPECT_EQ(cold.live_count(), warm.live_count());
  EXPECT_FALSE(cold.contains(7));
  EXPECT_FALSE(cold.contains(123));
  EXPECT_TRUE(cold.contains(500));
  EXPECT_TRUE(cold.contains(777));

  auto queries = make_points(workload::Kind::UniformCube, 64, 94);
  queries.push_back(points[7]);  // zero-distance tie against id 777
  auto wk = warm.bulk_knn(std::span<const Pt>(queries), 5);
  auto ck = cold.bulk_knn(std::span<const Pt>(queries), 5);
  ASSERT_EQ(wk.size(), ck.size());
  for (std::size_t i = 0; i < wk.size(); ++i)
    expect_entries_identical(wk[i], ck[i],
                             "delta bulk_knn row " + std::to_string(i));
  auto wr = warm.bulk_radius(std::span<const Pt>(queries), 0.1);
  auto cr = cold.bulk_radius(std::span<const Pt>(queries), 0.1);
  ASSERT_EQ(wr.size(), cr.size());
  for (std::size_t i = 0; i < wr.size(); ++i)
    expect_pairs_identical(wr[i], cr[i],
                           "delta bulk_radius row " + std::to_string(i));
}

// ------------------------------------------------- delta crash consistency

// Serializes a LiveView exactly the way QueryBroker::save_snapshot does.
void save_view(const service::LiveView<2>& v, const std::string& path) {
  service::FlatDelta<2> flat = service::flatten_delta(v);
  SnapshotSidecar<2> sidecar;
  if (v.base->external_ids != nullptr)
    sidecar.external_ids = *v.base->external_ids;
  sidecar.delta_ids = flat.ids;
  sidecar.delta_points = flat.points;
  sidecar.tombstones = flat.tombstones;
  save_snapshot<2>(path, *v.base->index, v.base->version, sidecar);
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f),
          std::istreambuf_iterator<char>()};
}

// A save taken mid-compaction (sealed segment in flight, more updates in
// the active segment on top) flattens to a deterministic delta: loading
// it and saving again produces a byte-identical file, so a crash between
// save and compaction install loses nothing and changes nothing.
TEST(SnapshotDelta, MidCompactionSaveRoundTripsByteIdentically) {
  par::ThreadPool pool(4);
  auto points = make_points(workload::Kind::UniformCube, 400, 301);
  auto base = build_snapshot(points, pool);

  service::LiveStore<2> live;
  live.reset(base);
  // Updates before the seal...
  live.remove(3);
  live.remove(17);
  live.insert(1000, Pt{{0.5, 0.5}});
  live.insert(401, Pt{{0.25, 0.75}});
  auto job = live.seal();
  ASSERT_TRUE(job.has_value());
  // ...and on top of the (never-finishing) compaction: a tombstone over
  // a sealed add, a fresh base mask, and a reinsert of a sealed-
  // tombstoned base id — the cases flattening has to get right.
  live.remove(401);
  live.remove(9);
  live.insert(500, Pt{{0.1, 0.9}});
  live.insert(3, Pt{{0.6, 0.6}});
  auto view = live.current();
  ASSERT_NE(view->sealed, nullptr);

  const std::string p1 = temp_path("delta_mid_compaction_1.sepdc");
  save_view(*view, p1);

  auto loaded = load_snapshot<2>(p1);
  EXPECT_EQ(loaded.delta.ids.size(), loaded.delta.points.size());
  auto snap2 = std::make_shared<service::IndexSnapshot<2>>();
  snap2->version = loaded.saved_version;
  snap2->index = loaded.index;
  snap2->point_count = loaded.point_count;
  if (!loaded.external_ids.empty())
    snap2->external_ids =
        std::make_shared<const std::vector<std::uint32_t>>(
            loaded.external_ids);
  service::LiveStore<2> live2;
  live2.reset_with_delta(snap2, loaded.delta.ids, loaded.delta.points,
                         loaded.delta.tombstones);
  EXPECT_EQ(live2.current()->live_count(), view->live_count());

  const std::string p2 = temp_path("delta_mid_compaction_2.sepdc");
  save_view(*live2.current(), p2);
  EXPECT_EQ(read_file_bytes(p1), read_file_bytes(p2))
      << "save -> load -> save must be byte-identical";
}

// Saves land via tmp-file + atomic rename, so a load racing a save (the
// shape of a bootstrap racing a concurrent compaction's save) sees the
// old file or the new file — a complete, internally consistent
// generation either way, never a torn mix.
TEST(SnapshotDelta, LoadRacingSaveSeesOldOrNewGenerationNeverTorn) {
  par::ThreadPool pool(4);
  auto pts_a = make_points(workload::Kind::UniformCube, 300, 311);
  auto pts_b = make_points(workload::Kind::UniformCube, 450, 312);
  auto snap_a = build_snapshot(pts_a, pool, 1);
  auto snap_b = build_snapshot(pts_b, pool, 2);
  const std::string path = temp_path("racing_generations.sepdc");
  save_snapshot<2>(path, *snap_a->index, 1);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 30; ++i) {
      const auto& s = (i % 2 == 0) ? snap_b : snap_a;
      save_snapshot<2>(path, *s->index, s->version);
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    std::size_t loads = 0;
    while (!stop.load(std::memory_order_acquire) || loads == 0) {
      auto loaded = load_snapshot<2>(path);
      ++loads;
      const bool gen_a =
          loaded.saved_version == 1 && loaded.point_count == 300;
      const bool gen_b =
          loaded.saved_version == 2 && loaded.point_count == 450;
      if (!(gen_a || gen_b)) failures.fetch_add(1);
      if (loaded.index->size() != loaded.point_count)
        failures.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------- corruption

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<par::ThreadPool>(4);
    points_ = make_points(workload::Kind::UniformCube, 600, 101);
    built_ = build_snapshot(points_, *pool_);
    path_ = temp_path("corruption_victim.sepdc");
    save_snapshot<2>(path_, *built_->index, built_->version);
  }

  // The load must throw the expected typed error, and a store asked to
  // bootstrap from the damaged file must keep serving what it served
  // before (here: nothing).
  void expect_load_fails(SnapshotError expected) {
    try {
      (void)load_snapshot<2>(path_);
      FAIL() << "load_snapshot did not throw";
    } catch (const SnapshotIoError& e) {
      EXPECT_EQ(e.code(), expected) << e.what();
    }
    SnapshotStore<2> store;
    service::ServiceStats stats;
    EXPECT_THROW(store.bootstrap_from(path_, &stats), SnapshotIoError);
    EXPECT_EQ(store.current(), nullptr) << "corrupt load was published";
    EXPECT_EQ(stats.snapshot_loads.load(), 0u);
  }

  std::unique_ptr<par::ThreadPool> pool_;
  std::vector<Pt> points_;
  typename SnapshotStore<2>::Ptr built_;
  std::string path_;
};

TEST_F(SnapshotCorruption, MissingFile) {
  path_ = temp_path("never_written.sepdc");
  expect_load_fails(SnapshotError::kOpenFailed);
}

TEST_F(SnapshotCorruption, TruncatedBelowHeader) {
  std::filesystem::resize_file(path_, sizeof(FileHeader) - 9);
  expect_load_fails(SnapshotError::kTooSmall);
}

TEST_F(SnapshotCorruption, TruncatedMidSection) {
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 128);
  expect_load_fails(SnapshotError::kTooSmall);
}

TEST_F(SnapshotCorruption, BadMagic) {
  flip_byte(path_, 0);
  expect_load_fails(SnapshotError::kBadMagic);
}

TEST_F(SnapshotCorruption, HeaderFieldFlipFailsHeaderChecksum) {
  // Inside point_count (offset 24..31): header checksum catches it
  // before any field is believed.
  flip_byte(path_, offsetof(FileHeader, point_count) + 2);
  expect_load_fails(SnapshotError::kBadChecksum);
}

TEST_F(SnapshotCorruption, FlippedSectionByteFailsSectionChecksum) {
  // First byte of the first section (the table starts the sections at
  // the first kSectionAlign boundary past header + table). The section
  // count comes from the file's own header so this survives format
  // growth (v2 added the external-id and delta sections).
  FileHeader hdr{};
  {
    std::ifstream f(path_, std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
    ASSERT_TRUE(f.good());
  }
  const std::size_t table_end =
      sizeof(FileHeader) + hdr.section_count * sizeof(SectionRecord);
  const std::size_t first_section =
      (table_end + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  flip_byte(path_, first_section);
  expect_load_fails(SnapshotError::kBadChecksum);
}

TEST_F(SnapshotCorruption, WrongDimension) {
  try {
    (void)load_snapshot<3>(path_);  // saved as D=2
    FAIL() << "load_snapshot did not throw";
  } catch (const SnapshotIoError& e) {
    EXPECT_EQ(e.code(), SnapshotError::kBadDims) << e.what();
  }
}

// A failed bootstrap on a store that already serves a generation keeps
// that generation — never downgrades, never nulls.
TEST_F(SnapshotCorruption, FailedBootstrapKeepsCurrentGeneration) {
  SnapshotStore<2> store;
  store.publish(built_);
  flip_byte(path_, 0);
  EXPECT_THROW(store.bootstrap_from(path_), SnapshotIoError);
  ASSERT_NE(store.current(), nullptr);
  EXPECT_EQ(store.current()->version, built_->version);
}

// Rewrites the header's format version and recomputes the header
// checksum, so the version check — not the checksum — must refuse it.
void set_format_version(const std::string& path, std::uint32_t version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  FileHeader hdr{};
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  ASSERT_TRUE(f.good());
  hdr.format_version = version;
  hdr.header_checksum =
      fnv1a64(&hdr, offsetof(FileHeader, header_checksum));
  f.seekp(0);
  f.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  ASSERT_TRUE(f.good());
}

// v2 files (with the retired kd-tree sections) are refused with the
// typed version error — no migration shim — in both the plain and the
// sharded-shard shape, and a serving store keeps its generation.
TEST_F(SnapshotCorruption, OldFormatVersionRejected) {
  SnapshotSidecar<2> shard;
  const auto cut = std::vector<core::ForestNode<2>>(1);
  shard.shard_nodes = cut;
  shard.shard_count = 1;
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded shard" : "plain");
    save_snapshot<2>(path_, *built_->index, built_->version,
                     sharded ? shard : SnapshotSidecar<2>{});
    set_format_version(path_, 2);
    expect_load_fails(SnapshotError::kBadVersion);
    if (sharded) {
      try {
        (void)read_shard_file<2>(path_);
        FAIL() << "read_shard_file did not throw";
      } catch (const SnapshotIoError& e) {
        EXPECT_EQ(e.code(), SnapshotError::kBadVersion) << e.what();
      }
    }
    SnapshotStore<2> store;
    service::ServiceStats stats;
    store.publish(built_);
    EXPECT_THROW(store.bootstrap_from(path_, &stats), SnapshotIoError);
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current(), built_);
    EXPECT_EQ(store.version(), built_->version);
    EXPECT_EQ(stats.snapshot_loads.load(), 0u);
  }
}

// ------------------------------------------------- delta-section corruption

// Byte offset of a section's payload, read from the file's own table.
std::uint64_t section_payload_offset(const std::string& path,
                                     SectionId id) {
  std::ifstream f(path, std::ios::binary);
  FileHeader hdr{};
  f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
  for (std::uint32_t i = 0; i < hdr.section_count; ++i) {
    SectionRecord rec{};
    f.read(reinterpret_cast<char*>(&rec), sizeof(rec));
    if (rec.id == static_cast<std::uint32_t>(id) && rec.byte_size > 0)
      return rec.offset;
  }
  return 0;
}

// Corruption in the delta sections: a damaged pending delta must
// surface as the matching typed SnapshotError, and a store asked to
// bootstrap from it must keep its current generation untouched.
class DeltaCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<par::ThreadPool>(4);
    points_ = make_points(workload::Kind::UniformCube, 300, 321);
    built_ = build_snapshot(points_, *pool_);
    path_ = temp_path("delta_corruption_victim.sepdc");
    delta_ids_ = {301, 555};
    delta_points_ = {Pt{{0.3, 0.3}}, Pt{{0.7, 0.2}}};
    tombstones_ = {5, 42};
  }

  void save_with_delta() {
    SnapshotSidecar<2> sidecar;
    sidecar.delta_ids = delta_ids_;
    sidecar.delta_points = delta_points_;
    sidecar.tombstones = tombstones_;
    save_snapshot<2>(path_, *built_->index, built_->version, sidecar);
  }

  // The load must throw the expected typed error; a store already
  // serving `built_` must still serve exactly `built_` afterwards, with
  // no load counted.
  void expect_load_fails(SnapshotError expected) {
    try {
      (void)load_snapshot<2>(path_);
      FAIL() << "load_snapshot did not throw";
    } catch (const SnapshotIoError& e) {
      EXPECT_EQ(e.code(), expected) << e.what();
    }
    SnapshotStore<2> store;
    store.publish(built_);
    service::ServiceStats stats;
    EXPECT_THROW(store.bootstrap_from(path_, &stats), SnapshotIoError);
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current()->version, built_->version)
        << "failed delta load disturbed the published generation";
    EXPECT_EQ(stats.snapshot_loads.load(), 0u);
    EXPECT_EQ(stats.snapshots_published.load(), 0u);  // nothing new
  }

  std::unique_ptr<par::ThreadPool> pool_;
  std::vector<Pt> points_;
  typename SnapshotStore<2>::Ptr built_;
  std::string path_;
  std::vector<std::uint32_t> delta_ids_;
  std::vector<Pt> delta_points_;
  std::vector<std::uint32_t> tombstones_;
};

TEST_F(DeltaCorruption, CleanDeltaFileLoads) {
  save_with_delta();
  auto loaded = load_snapshot<2>(path_);
  EXPECT_EQ(loaded.delta.ids, delta_ids_);
  EXPECT_EQ(loaded.delta.tombstones, tombstones_);
}

TEST_F(DeltaCorruption, FlippedDeltaPointByteFailsSectionChecksum) {
  save_with_delta();
  const std::uint64_t off =
      section_payload_offset(path_, SectionId::kDeltaPoints);
  ASSERT_GT(off, 0u);
  flip_byte(path_, off);
  expect_load_fails(SnapshotError::kBadChecksum);
}

TEST_F(DeltaCorruption, FlippedTombstoneByteFailsSectionChecksum) {
  save_with_delta();
  const std::uint64_t off =
      section_payload_offset(path_, SectionId::kTombstones);
  ASSERT_GT(off, 0u);
  flip_byte(path_, off);
  expect_load_fails(SnapshotError::kBadChecksum);
}

TEST_F(DeltaCorruption, UnsortedDeltaIdsFailStructure) {
  delta_ids_ = {555, 301};  // checksums fine, invariant broken
  save_with_delta();
  expect_load_fails(SnapshotError::kBadStructure);
}

TEST_F(DeltaCorruption, TombstoneOutsideBaseFailsStructure) {
  tombstones_ = {5, 900000};  // base holds ids 0..299
  save_with_delta();
  expect_load_fails(SnapshotError::kBadStructure);
}

TEST_F(DeltaCorruption, DeltaIdDuplicatingLiveBaseIdFailsStructure) {
  delta_ids_ = {7, 301};  // 7 is live in the base (not tombstoned)
  save_with_delta();
  expect_load_fails(SnapshotError::kBadStructure);
}

TEST_F(DeltaCorruption, NonFiniteDeltaPointFailsStructure) {
  delta_points_[1][0] = std::numeric_limits<double>::quiet_NaN();
  save_with_delta();
  expect_load_fails(SnapshotError::kBadStructure);
}

// ---------------------------------------------------- sharding sections
// Sections 18 (kShardInfo) and 19 (kShardNodes) are optional additions
// to the container: files with and without them interload — the
// plain loader ignores them, read_shard_file requires them.

// A 3-node cut: a sphere separator at the root, two leaf regions.
std::vector<core::ForestNode<2>> make_test_cut() {
  std::vector<core::ForestNode<2>> nodes(3);
  nodes[0].begin = 0;
  nodes[0].end = 100;
  nodes[0].inner = 1;
  nodes[0].outer = 2;
  nodes[0].separator = geo::SeparatorShape<2>::make_sphere(
      geo::Sphere<2>{Pt{{0.5, 0.5}}, 0.3});
  nodes[1].begin = 0;
  nodes[1].end = 60;  // leaves keep kNoChild children
  nodes[2].begin = 60;
  nodes[2].end = 100;
  return nodes;
}

class ShardSections : public ::testing::Test {
 protected:
  void SetUp() override {
    cut_ = make_test_cut();
    path_ = temp_path("shard_sections.sepdc");
  }

  void expect_read_fails(SnapshotError expected) {
    try {
      (void)read_shard_file<2>(path_);
      FAIL() << "read_shard_file did not throw";
    } catch (const SnapshotIoError& e) {
      EXPECT_EQ(e.code(), expected) << e.what();
    }
  }

  std::vector<core::ForestNode<2>> cut_;
  std::string path_;
};

TEST_F(ShardSections, StubRoundTrips) {
  const std::vector<std::uint32_t> ids = {3, 9, 41};
  const std::vector<Pt> pts = {
      Pt{{0.1, 0.2}}, Pt{{0.6, 0.6}}, Pt{{0.9, 0.1}}};
  save_shard_stub<2>(path_, cut_, 2, 1, 0, 7, ids, pts);

  auto f = read_shard_file<2>(path_);
  EXPECT_EQ(f.shard_count, 2u);
  EXPECT_EQ(f.shard_id, 1u);
  EXPECT_EQ(f.root, 0u);
  EXPECT_TRUE(f.empty_base);
  EXPECT_EQ(f.saved_version, 7u);
  ASSERT_EQ(f.nodes.size(), cut_.size());
  EXPECT_EQ(f.nodes[0].inner, 1u);
  EXPECT_EQ(f.nodes[0].outer, 2u);
  EXPECT_TRUE(f.nodes[1].is_leaf());
  ASSERT_EQ(f.delta.ids.size(), ids.size());
  EXPECT_EQ(f.delta.ids, ids);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (int d = 0; d < 2; ++d)
      EXPECT_EQ(f.delta.points[i][d], pts[i][d]);

  // A stub is not a loadable snapshot (no points, no index sections).
  EXPECT_THROW((void)load_snapshot<2>(path_), SnapshotIoError);
}

TEST_F(ShardSections, ManifestHasNoEmptyBaseFlag) {
  save_shard_stub<2>(path_, cut_, 2, kShardManifestId, 0, 3);
  auto f = read_shard_file<2>(path_);
  EXPECT_EQ(f.shard_id, kShardManifestId);
  EXPECT_FALSE(f.empty_base);
  EXPECT_TRUE(f.delta.ids.empty());
}

TEST_F(ShardSections, FullSnapshotCarriesSidecarShardingAndStillLoads) {
  par::ThreadPool pool(4);
  auto points = make_points(workload::Kind::UniformCube, 300, 113);
  auto built = build_snapshot(points, pool, 5);
  SnapshotSidecar<2> sidecar;
  sidecar.shard_nodes = cut_;
  sidecar.shard_count = 2;
  sidecar.shard_id = 0;
  sidecar.shard_root = 0;
  save_snapshot<2>(path_, *built->index, built->version,
                   sidecar);

  // The sharding head reads back...
  auto f = read_shard_file<2>(path_);
  EXPECT_EQ(f.shard_count, 2u);
  EXPECT_EQ(f.shard_id, 0u);
  EXPECT_FALSE(f.empty_base);
  // ...and the ordinary loader still loads the same file, byte-checked,
  // ignoring the extra sections (the sharding sections did not move the
  // format version).
  auto loaded = load_snapshot<2>(path_);
  EXPECT_EQ(loaded.point_count, points.size());
  EXPECT_EQ(loaded.saved_version, 5u);
}

TEST_F(ShardSections, PlainSnapshotHasNoShardingSections) {
  par::ThreadPool pool(4);
  auto points = make_points(workload::Kind::UniformCube, 200, 117);
  auto built = build_snapshot(points, pool);
  save_snapshot<2>(path_, *built->index, built->version);
  expect_read_fails(SnapshotError::kBadSectionTable);
}

TEST_F(ShardSections, FlippedCutByteFailsChecksum) {
  save_shard_stub<2>(path_, cut_, 2, 0, 0, 1);
  // Find the kShardNodes payload via the file's own section table and
  // flip one byte of a separator coordinate.
  FileHeader hdr{};
  std::vector<SectionRecord> table;
  {
    std::ifstream f(path_, std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
    table.resize(hdr.section_count);
    f.read(reinterpret_cast<char*>(table.data()),
           static_cast<std::streamsize>(table.size() *
                                        sizeof(SectionRecord)));
    ASSERT_TRUE(f.good());
  }
  std::uint64_t nodes_offset = 0;
  for (const SectionRecord& r : table)
    if (r.id == static_cast<std::uint32_t>(SectionId::kShardNodes))
      nodes_offset = r.offset;
  ASSERT_GT(nodes_offset, 0u);
  flip_byte(path_, nodes_offset + 40);
  expect_read_fails(SnapshotError::kBadChecksum);
}

TEST_F(ShardSections, BadStructureRejected) {
  // Shard id beyond shard_count.
  save_shard_stub<2>(path_, cut_, 2, 5, 0, 1);
  expect_read_fails(SnapshotError::kBadStructure);
  // Leaf count disagrees with shard_count.
  save_shard_stub<2>(path_, cut_, 3, 0, 0, 1);
  expect_read_fails(SnapshotError::kBadStructure);
  // Child pointer not strictly forward: a self-cycle at the root.
  auto bad = cut_;
  bad[0].outer = 0;
  save_shard_stub<2>(path_, bad, 2, 0, 0, 1);
  expect_read_fails(SnapshotError::kBadStructure);
  // Tombstones in an empty-base stub.
  const std::vector<std::uint32_t> ids = {3};
  const std::vector<Pt> pts = {Pt{{0.1, 0.2}}};
  const std::vector<std::uint32_t> tombs = {1};
  save_shard_stub<2>(path_, cut_, 2, 0, 0, 1, ids, pts, tombs);
  expect_read_fails(SnapshotError::kBadStructure);
  // Unsorted delta ids.
  const std::vector<std::uint32_t> bad_ids = {9, 3};
  const std::vector<Pt> two = {Pt{{0.1, 0.2}}, Pt{{0.3, 0.4}}};
  save_shard_stub<2>(path_, cut_, 2, 0, 0, 1, bad_ids, two);
  expect_read_fails(SnapshotError::kBadStructure);
}

}  // namespace
}  // namespace sepdc::io
