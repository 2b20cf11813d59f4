// Versioned on-disk snapshots of a built index, loaded by mmap with zero
// deserialization.
//
// Every structure inside an IndexSnapshot already lives in relocatable
// arenas (support/arena.hpp): contiguous trivially-copyable records
// linked by 32-bit indices. This file defines the container that puts
// those arenas on disk:
//
//   FileHeader | SectionRecord table | 64-aligned sections ...
//
// The header carries magic, format version, an endianness tag (written
// natively; load refuses a mismatch — see docs/persistence.md for the
// stance), the dimension, and its own checksum. Each SectionRecord names
// a section id, the element size (a cross-build layout check against the
// SEPDC_PIN_TRIVIAL_LAYOUT pins), the 64-aligned byte offset/size, and
// an FNV-1a checksum of the section bytes.
//
// save_snapshot() writes the arenas raw (tmp file + rename, so a crashed
// save never leaves a half-written file at the target path).
// load_snapshot() mmaps the file, validates header, section table,
// checksums, and structural bounds, then *adopts* the mapping: the
// returned SeparatorIndex serves queries directly out of the mapped
// bytes. Nothing is copied; pages fault in on demand, so datasets
// larger than RAM serve through the kernel page cache. The mapping stays
// alive exactly as long as any aliased shared_ptr to the index.
//
// Every raw mmap/open/pread call in the repo lives in snapshot_file.cpp —
// the lint raw-mmap rule (tools/lint_sepdc.py) confines them to src/io/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/separator_index.hpp"
#include "support/arena.hpp"
#include "support/assert.hpp"

namespace sepdc::io {

// Bump when any pinned record layout or the container layout changes;
// load refuses other versions (no migration shims — a snapshot is a
// cache of a rebuildable structure, not a database). v2 added the
// external-id map and the pending-delta sections (14-17); v3 dropped the
// kd-tree sections (9-13) and the kd and bounding-box fields of
// SnapshotMeta — the index is the snapshot's only query structure.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;
inline constexpr char kSnapshotMagic[8] = {'S', 'E', 'P', 'D',
                                           'C', 'S', 'N', 'P'};
// Written natively; reads as 0x04030201 on an other-endian host.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kSectionAlign = 64;

// What went wrong, machine-readably; the message carries the detail.
enum class SnapshotError : std::uint8_t {
  kOpenFailed,     // cannot open/stat/map or write the file
  kTooSmall,       // file shorter than header + section table
  kBadMagic,       // not a snapshot file
  kBadVersion,     // format version this build does not speak
  kBadEndianness,  // written on an other-endian host
  kBadDims,        // snapshot dimension != requested D
  kBadSectionTable,  // section missing/duplicated/out of file bounds
  kBadElemSize,    // record layout disagrees with this build's pins
  kBadChecksum,    // header or section bytes fail their checksum
  kBadStructure,   // indices/ranges inside a section out of bounds
};

// Typed load/save failure. A load that throws publishes nothing: the
// mapping and any partially-adopted structures are torn down before the
// exception leaves load_snapshot().
class SnapshotIoError : public std::runtime_error {
 public:
  SnapshotIoError(SnapshotError code, const std::string& detail)
      : std::runtime_error("snapshot io: " + detail), code_(code) {}

  SnapshotError code() const noexcept { return code_; }

 private:
  SnapshotError code_;
};

struct FileHeader {
  char magic[8];
  std::uint32_t format_version = kSnapshotFormatVersion;
  std::uint32_t endianness = kEndianTag;
  std::uint32_t dims = 0;
  std::uint32_t section_count = 0;
  std::uint64_t file_bytes = 0;     // total, for truncation detection
  std::uint64_t point_count = 0;
  std::uint64_t saved_version = 0;  // SnapshotStore generation at save
  std::uint64_t header_checksum = 0;  // fnv1a64 of the preceding bytes
};
SEPDC_PIN_TRIVIAL_LAYOUT(FileHeader, 56, 8);

struct SectionRecord {
  std::uint32_t id = 0;         // SectionId
  std::uint32_t elem_size = 0;  // sizeof the record type (layout check)
  std::uint64_t offset = 0;     // from file start, kSectionAlign-aligned
  std::uint64_t byte_size = 0;
  std::uint64_t checksum = 0;   // fnv1a64 of the section bytes
};
SEPDC_PIN_TRIVIAL_LAYOUT(SectionRecord, 32, 8);

// Section ids are part of the format: never renumber, only append.
enum class SectionId : std::uint32_t {
  kMeta = 1,         // SnapshotMeta<D>
  kPoints = 2,       // geo::Point<D>[n], input order
  kPerm = 3,         // u32[n], SeparatorIndex leaf permutation
  kForestNodes = 4,  // ForestNode<D>[]
  kLeafBlocks = 5,   // knn::BlockRange[], indexed by forest node id
  kBlockCoords = 6,  // double[], SoA blocks of the index leaf payloads
  kBlockIds = 7,     // u32[]
  kBlockLanes = 8,   // u8[]
  // 9-13 held the v2 kd-tree; retired, never reuse.
  // v2: live-update state (docs/updates.md). Always written, zero-size
  // when the service has no pending delta.
  kExternalIds = 14,  // u32[n], internal position -> external id,
                      // strictly increasing (identity written explicitly)
  kDeltaIds = 15,     // u32[m], pending-insert external ids, sorted
  kDeltaPoints = 16,  // geo::Point<D>[m], parallel to kDeltaIds
  kTombstones = 17,   // u32[t], masked base external ids, sorted
  // Sharding (docs/sharding.md). Optional: present only in files written
  // by a ShardRouter save. open_snapshot_file validates the table
  // generically, so files carrying them still load through plain
  // load_snapshot (which simply never asks for 18/19) and pre-sharding
  // files still load everywhere — no format-version bump needed.
  kShardInfo = 18,    // ShardInfoRecord, exactly one
  kShardNodes = 19,   // core::ForestNode<D>[], the shard-function cut in
                      // preorder (root == ShardInfoRecord::root)
};

// shard_id of the router's manifest file (the commit point of a sharded
// save — it carries the cut but no per-shard data of its own).
inline constexpr std::uint32_t kShardManifestId = 0xffffffffu;
// ShardInfoRecord::flags bit: the shard held no built base at save time,
// so the file carries only the sharding + delta sections (point_count 0)
// and bootstraps as a delta-only broker.
inline constexpr std::uint32_t kShardFlagEmptyBase = 1u;

// Fixed-size head of the sharding sections: how many shards the saved
// cut produces, which of them this file holds, where the cut's root node
// sits in kShardNodes, and a checksum of the node bytes — identical
// across every file of one save, so bootstrap can refuse a torn mix of
// two different saves' shards.
struct ShardInfoRecord {
  std::uint32_t shard_count = 0;
  std::uint32_t shard_id = 0;      // kShardManifestId in the manifest
  std::uint32_t root = 0;          // index into kShardNodes
  std::uint32_t flags = 0;         // kShardFlagEmptyBase
  std::uint64_t cut_checksum = 0;  // fnv1a64 of the kShardNodes bytes
  std::uint64_t reserved = 0;
};
SEPDC_PIN_TRIVIAL_LAYOUT(ShardInfoRecord, 32, 8);

// What the arenas don't carry: the build config and the forest root.
// Lives in its own checksummed section; pinned per dimension below.
template <int D>
struct SnapshotMeta {
  core::SeparatorIndexConfig cfg;
  std::uint32_t forest_root = 0;
  std::uint32_t reserved = 0;  // explicit tail padding: written raw, zero
};
SEPDC_PIN_TRIVIAL_LAYOUT(SnapshotMeta<2>, 64, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(SnapshotMeta<3>, 64, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(SnapshotMeta<4>, 64, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(SnapshotMeta<5>, 64, 8);

// Coordinate payloads (kBlockCoords, kDeltaPoints) are read back as raw
// geo::Point<D> arrays, so the point layout is part of the on-disk format
// in exactly the same way SnapshotMeta is.
SEPDC_PIN_TRIVIAL_LAYOUT(geo::Point<2>, 16, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(geo::Point<3>, 24, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(geo::Point<4>, 32, 8);
SEPDC_PIN_TRIVIAL_LAYOUT(geo::Point<5>, 40, 8);

// The snapshot checksum primitive: FNV-1a folded over 64-bit
// little-endian words (zero-padded tail, length mixed in) — word-wise so
// whole-file validation stays off the cold-start critical path. Not
// cryptographic — it catches truncation and bit rot, not tampering.
std::uint64_t fnv1a64(const void* data, std::size_t bytes);

// RAII read-only file mapping. Construction opens + maps or throws
// SnapshotIoError{kOpenFailed}; the mapping is released on destruction.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::byte* data() const { return static_cast<std::byte*>(addr_); }
  std::size_t size() const { return size_; }

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

// ------------------------------------------------------------------ save

namespace detail {

// One section as raw bytes, ready to write.
struct SectionBytes {
  std::uint32_t id = 0;
  std::uint32_t elem_size = 0;
  const void* data = nullptr;
  std::size_t bytes = 0;
};

// Writes header + table + aligned sections to `path` (via `path`.tmp +
// rename). Throws SnapshotIoError{kOpenFailed} on any filesystem error.
void write_snapshot_file(const std::string& path, std::uint32_t dims,
                         std::uint64_t point_count,
                         std::uint64_t saved_version,
                         std::span<const SectionBytes> sections);

// Mapped file with validated header + section table (magic, version,
// endianness, dims, bounds, checksums all checked; throws the matching
// SnapshotIoError otherwise).
struct ValidatedFile {
  std::shared_ptr<MappedFile> map;
  FileHeader header;
  std::vector<SectionRecord> sections;
};

ValidatedFile open_snapshot_file(const std::string& path,
                                 std::uint32_t expected_dims);

// The section's bytes, checked for id presence, element size, and
// divisibility; throws SnapshotIoError otherwise.
std::span<const std::byte> section_bytes(const ValidatedFile& file,
                                         std::uint32_t id,
                                         std::uint32_t expected_elem_size);

// Whether the file carries a section at all — the gate for the optional
// sharding sections (section_bytes throws on absence by design: every
// pre-sharding section is mandatory).
inline bool has_section(const ValidatedFile& file, SectionId id) {
  const auto want = static_cast<std::uint32_t>(id);
  for (const SectionRecord& rec : file.sections)
    if (rec.id == want) return true;
  return false;
}

template <class T>
std::span<const T> typed_section(const ValidatedFile& file, SectionId id) {
  std::span<const std::byte> raw = section_bytes(
      file, static_cast<std::uint32_t>(id),
      static_cast<std::uint32_t>(sizeof(T)));
  // Sections are kSectionAlign-aligned within a page-aligned mapping, so
  // the cast below lands on a properly aligned address for any pinned
  // record type.
  return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
}

[[noreturn]] inline void fail_structure(const char* what) {
  throw SnapshotIoError(SnapshotError::kBadStructure, what);
}

}  // namespace detail

// Live-update state riding along with a saved base (docs/updates.md).
// All spans must stay valid for the duration of save_snapshot.
// `external_ids` empty means the identity map; the delta arrays are the
// *flattened* pending updates relative to the saved base (sorted by id —
// service::flatten_delta produces exactly this), so a save taken
// mid-compaction round-trips byte-identically.
template <int D>
struct SnapshotSidecar {
  std::span<const std::uint32_t> external_ids;
  std::span<const std::uint32_t> delta_ids;
  std::span<const geo::Point<D>> delta_points;
  std::span<const std::uint32_t> tombstones;
  // Sharding sections (docs/sharding.md), written only when
  // shard_count > 0: the shard-function cut (preorder ForestNode array,
  // shard_root indexing into it) plus which shard of the cut this file
  // holds. The cut checksum is derived from shard_nodes at write time.
  std::span<const core::ForestNode<D>> shard_nodes;
  std::uint32_t shard_count = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_root = 0;
};

// Serializes a built index. `version` is the SnapshotStore generation
// being saved (recorded, not trusted on load — a bootstrapping store
// claims a fresh version).
template <int D>
void save_snapshot(const std::string& path,
                   const core::SeparatorIndex<D>& index,
                   std::uint64_t version,
                   const SnapshotSidecar<D>& sidecar = {}) {
  auto points = index.points();
  SnapshotMeta<D> meta;
  meta.cfg = index.config();
  meta.forest_root = index.forest().root_id();

  auto nodes = index.forest().nodes();
  auto leaf_blocks = index.leaf_blocks();
  const auto& blocks = index.blocks();

  // The identity map is written explicitly: every file carries the
  // full internal -> external section, so the loader never guesses.
  std::vector<std::uint32_t> identity;
  std::span<const std::uint32_t> external_ids = sidecar.external_ids;
  if (external_ids.empty()) {
    identity.resize(points.size());
    for (std::size_t i = 0; i < identity.size(); ++i)
      identity[i] = static_cast<std::uint32_t>(i);
    external_ids = identity;
  }
  SEPDC_CHECK_MSG(external_ids.size() == points.size(),
                  "save_snapshot: external id map disagrees with the "
                  "point count");
  SEPDC_CHECK_MSG(sidecar.delta_ids.size() == sidecar.delta_points.size(),
                  "save_snapshot: delta ids and points disagree");

  auto sec = [](SectionId id, const auto* data, std::size_t count) {
    using T = std::remove_cvref_t<decltype(*data)>;
    return detail::SectionBytes{static_cast<std::uint32_t>(id),
                                static_cast<std::uint32_t>(sizeof(T)),
                                data, count * sizeof(T)};
  };
  std::vector<detail::SectionBytes> sections = {
      sec(SectionId::kMeta, &meta, 1),
      sec(SectionId::kPoints, points.data(), points.size()),
      sec(SectionId::kPerm, index.perm().data(), index.perm().size()),
      sec(SectionId::kForestNodes, nodes.data(), nodes.size()),
      sec(SectionId::kLeafBlocks, leaf_blocks.data(), leaf_blocks.size()),
      sec(SectionId::kBlockCoords, blocks.coords().data(),
          blocks.coords().size()),
      sec(SectionId::kBlockIds, blocks.ids().data(), blocks.ids().size()),
      sec(SectionId::kBlockLanes, blocks.lanes().data(),
          blocks.lanes().size()),
      sec(SectionId::kExternalIds, external_ids.data(),
          external_ids.size()),
      sec(SectionId::kDeltaIds, sidecar.delta_ids.data(),
          sidecar.delta_ids.size()),
      sec(SectionId::kDeltaPoints, sidecar.delta_points.data(),
          sidecar.delta_points.size()),
      sec(SectionId::kTombstones, sidecar.tombstones.data(),
          sidecar.tombstones.size()),
  };
  ShardInfoRecord shard_info;  // must outlive write_snapshot_file
  if (sidecar.shard_count > 0) {
    SEPDC_CHECK_MSG(!sidecar.shard_nodes.empty() &&
                        sidecar.shard_root < sidecar.shard_nodes.size(),
                    "save_snapshot: sharding sidecar needs a cut with a "
                    "valid root");
    shard_info.shard_count = sidecar.shard_count;
    shard_info.shard_id = sidecar.shard_id;
    shard_info.root = sidecar.shard_root;
    shard_info.cut_checksum =
        fnv1a64(sidecar.shard_nodes.data(),
                sidecar.shard_nodes.size() * sizeof(core::ForestNode<D>));
    sections.push_back(sec(SectionId::kShardInfo, &shard_info, 1));
    sections.push_back(sec(SectionId::kShardNodes,
                           sidecar.shard_nodes.data(),
                           sidecar.shard_nodes.size()));
  }
  detail::write_snapshot_file(path, static_cast<std::uint32_t>(D),
                              points.size(), version, sections);
}

// Writes a sharding-only file: the manifest (shard_id == kShardManifestId)
// that commits a sharded save, or an empty shard's placeholder
// (kShardFlagEmptyBase) that carries its pending delta but no built base.
// Both are plain containers with point_count 0; load_snapshot refuses
// them (no points), read_shard_file below understands them.
template <int D>
void save_shard_stub(const std::string& path,
                     std::span<const core::ForestNode<D>> shard_nodes,
                     std::uint32_t shard_count, std::uint32_t shard_id,
                     std::uint32_t shard_root, std::uint64_t version,
                     std::span<const std::uint32_t> delta_ids = {},
                     std::span<const geo::Point<D>> delta_points = {},
                     std::span<const std::uint32_t> tombstones = {}) {
  SEPDC_CHECK_MSG(shard_count > 0 && !shard_nodes.empty() &&
                      shard_root < shard_nodes.size(),
                  "save_shard_stub: need a cut with a valid root");
  SEPDC_CHECK_MSG(delta_ids.size() == delta_points.size(),
                  "save_shard_stub: delta ids and points disagree");
  ShardInfoRecord info;
  info.shard_count = shard_count;
  info.shard_id = shard_id;
  info.root = shard_root;
  if (shard_id != kShardManifestId) info.flags = kShardFlagEmptyBase;
  info.cut_checksum =
      fnv1a64(shard_nodes.data(),
              shard_nodes.size() * sizeof(core::ForestNode<D>));
  auto sec = [](SectionId id, const auto* data, std::size_t count) {
    using T = std::remove_cvref_t<decltype(*data)>;
    return detail::SectionBytes{static_cast<std::uint32_t>(id),
                                static_cast<std::uint32_t>(sizeof(T)),
                                data, count * sizeof(T)};
  };
  const detail::SectionBytes sections[] = {
      sec(SectionId::kShardInfo, &info, 1),
      sec(SectionId::kShardNodes, shard_nodes.data(), shard_nodes.size()),
      sec(SectionId::kDeltaIds, delta_ids.data(), delta_ids.size()),
      sec(SectionId::kDeltaPoints, delta_points.data(),
          delta_points.size()),
      sec(SectionId::kTombstones, tombstones.data(), tombstones.size()),
  };
  detail::write_snapshot_file(path, static_cast<std::uint32_t>(D), 0,
                              version, sections);
}

// The pending delta replayed from a snapshot file — owned copies (the
// delta is tiny and mutable state must not alias the read-only mapping).
template <int D>
struct LoadedDelta {
  std::vector<std::uint32_t> ids;          // sorted insert external ids
  std::vector<geo::Point<D>> points;       // parallel to ids
  std::vector<std::uint32_t> tombstones;   // sorted masked base ids
};

// A loaded snapshot: the index serves directly out of the mapping, which
// stays alive for as long as the shared_ptr does (aliasing).
template <int D>
struct LoadedSnapshot {
  std::shared_ptr<const core::SeparatorIndex<D>> index;
  std::uint64_t saved_version = 0;
  std::size_t point_count = 0;
  std::size_t file_bytes = 0;
  // Internal position -> external id; empty when the file carries the
  // identity map (the loader collapses an explicit identity section so
  // the in-memory fast path stays allocation-free).
  std::vector<std::uint32_t> external_ids;
  LoadedDelta<D> delta;
};

// mmaps `path`, validates everything (header, section table, checksums,
// structural bounds), and adopts the mapping. Throws SnapshotIoError —
// and publishes nothing — on any defect.
template <int D>
LoadedSnapshot<D> load_snapshot(const std::string& path) {
  detail::ValidatedFile file =
      detail::open_snapshot_file(path, static_cast<std::uint32_t>(D));

  auto meta_span = detail::typed_section<SnapshotMeta<D>>(
      file, SectionId::kMeta);
  if (meta_span.size() != 1)
    detail::fail_structure("meta section must hold exactly one record");
  const SnapshotMeta<D> meta = meta_span[0];

  typename core::SeparatorIndex<D>::Relocated rel;
  rel.points = detail::typed_section<geo::Point<D>>(file,
                                                    SectionId::kPoints);
  rel.perm = detail::typed_section<std::uint32_t>(file, SectionId::kPerm);
  rel.nodes = detail::typed_section<core::ForestNode<D>>(
      file, SectionId::kForestNodes);
  rel.leaf_blocks = detail::typed_section<knn::BlockRange>(
      file, SectionId::kLeafBlocks);
  rel.block_coords =
      detail::typed_section<double>(file, SectionId::kBlockCoords);
  rel.block_ids =
      detail::typed_section<std::uint32_t>(file, SectionId::kBlockIds);
  rel.block_lanes =
      detail::typed_section<std::uint8_t>(file, SectionId::kBlockLanes);
  rel.root = meta.forest_root;
  rel.cfg = meta.cfg;

  // Structural bounds, as throwing checks (the adopt() SEPDC_CHECKs
  // re-assert the same invariants, but a corrupt file must surface as a
  // typed error a caller can handle, not an abort).
  if (rel.points.empty() || rel.points.size() != file.header.point_count)
    detail::fail_structure("point section disagrees with the header");
  if (rel.perm.size() != rel.points.size())
    detail::fail_structure("permutation section disagrees with the "
                           "point count");
  if (rel.nodes.empty() || rel.root >= rel.nodes.size() ||
      rel.leaf_blocks.size() != rel.nodes.size())
    detail::fail_structure("forest sections inconsistent");
  constexpr std::size_t kW = knn::PointBlockStore<D>::kWidth;
  if (rel.block_coords.size() != rel.block_lanes.size() * D * kW ||
      rel.block_ids.size() != rel.block_lanes.size() * kW)
    detail::fail_structure("block sections disagree with the block count");
  const auto nnodes = static_cast<std::uint32_t>(rel.nodes.size());
  const auto nblocks = static_cast<std::uint32_t>(rel.block_lanes.size());
  for (std::uint32_t id = 0; id < nnodes; ++id) {
    const core::ForestNode<D>& n = rel.nodes[id];
    if (n.begin > n.end || n.end > rel.perm.size())
      detail::fail_structure("forest node range out of bounds");
    if (!n.is_leaf() && (n.inner >= nnodes || n.outer >= nnodes))
      detail::fail_structure("forest child index out of bounds");
    const knn::BlockRange& b = rel.leaf_blocks[id];
    if (b.begin > b.end || b.end > nblocks)
      detail::fail_structure("leaf block range out of bounds");
  }
  for (std::uint32_t pid : rel.perm)
    if (pid >= rel.points.size())
      detail::fail_structure("perm entry out of bounds");
  for (std::uint8_t l : rel.block_lanes)
    if (l < 1 || l > kW) detail::fail_structure("block lane count invalid");

  // Live-update sections. Strict monotonicity doubles as a
  // duplicate/reserved-id check (0xffffffff can only appear last, and is
  // rejected explicitly).
  auto ext_ids = detail::typed_section<std::uint32_t>(
      file, SectionId::kExternalIds);
  auto delta_ids = detail::typed_section<std::uint32_t>(
      file, SectionId::kDeltaIds);
  auto delta_points = detail::typed_section<geo::Point<D>>(
      file, SectionId::kDeltaPoints);
  auto tombstones = detail::typed_section<std::uint32_t>(
      file, SectionId::kTombstones);
  if (ext_ids.size() != rel.points.size())
    detail::fail_structure("external id section disagrees with the "
                           "point count");
  for (std::size_t i = 0; i < ext_ids.size(); ++i)
    if (ext_ids[i] == 0xffffffffu ||
        (i > 0 && ext_ids[i] <= ext_ids[i - 1]))
      detail::fail_structure("external ids not strictly increasing or "
                             "reserved");
  if (delta_ids.size() != delta_points.size())
    detail::fail_structure("delta id and point sections disagree");
  auto in_base = [&](std::uint32_t id) {
    return std::binary_search(ext_ids.begin(), ext_ids.end(), id);
  };
  for (std::size_t i = 0; i < tombstones.size(); ++i) {
    if (i > 0 && tombstones[i] <= tombstones[i - 1])
      detail::fail_structure("tombstones not strictly increasing");
    if (!in_base(tombstones[i]))
      detail::fail_structure("tombstone names an id the base does not "
                             "hold");
  }
  for (std::size_t i = 0; i < delta_ids.size(); ++i) {
    const std::uint32_t id = delta_ids[i];
    if (id == 0xffffffffu || (i > 0 && id <= delta_ids[i - 1]))
      detail::fail_structure("delta ids not strictly increasing or "
                             "reserved");
    // A delta insert may only reuse a base id that is tombstoned —
    // otherwise two live points would share one external id.
    if (in_base(id) &&
        !std::binary_search(tombstones.begin(), tombstones.end(), id))
      detail::fail_structure("delta id duplicates a live base id");
    for (int dim = 0; dim < D; ++dim)
      if (!std::isfinite(delta_points[i][dim]))
        detail::fail_structure("delta point coordinate not finite");
  }

  // Adopt: the bundle owns the mapping and the index; the returned
  // shared_ptr aliases into it, so the mapping stays alive until the
  // last user is gone.
  struct Bundle {
    detail::ValidatedFile file;
    std::optional<core::SeparatorIndex<D>> index;
  };
  auto bundle = std::make_shared<Bundle>();
  bundle->file = std::move(file);
  bundle->index.emplace(core::SeparatorIndex<D>::adopt(rel));

  LoadedSnapshot<D> out;
  out.index = std::shared_ptr<const core::SeparatorIndex<D>>(
      bundle, &*bundle->index);
  out.saved_version = bundle->file.header.saved_version;
  out.point_count =
      static_cast<std::size_t>(bundle->file.header.point_count);
  out.file_bytes = bundle->file.map->size();
  bool identity = true;
  for (std::size_t i = 0; i < ext_ids.size() && identity; ++i)
    identity = ext_ids[i] == static_cast<std::uint32_t>(i);
  if (!identity)
    out.external_ids.assign(ext_ids.begin(), ext_ids.end());
  out.delta.ids.assign(delta_ids.begin(), delta_ids.end());
  out.delta.points.assign(delta_points.begin(), delta_points.end());
  out.delta.tombstones.assign(tombstones.begin(), tombstones.end());
  return out;
}

// ------------------------------------------------------------- sharding

// The sharding head of one file of a sharded save: the ShardInfoRecord
// plus an owned copy of the cut nodes (the cut is tiny — O(shard_count)
// nodes — so copying beats holding a mapping alive). For stub files
// (manifest / empty shard) the pending delta rides along too.
template <int D>
struct LoadedShardFile {
  std::uint32_t shard_count = 0;
  std::uint32_t shard_id = 0;      // kShardManifestId for the manifest
  std::uint32_t root = 0;
  bool empty_base = false;         // stub: no built index in this file
  std::uint64_t cut_checksum = 0;  // identical across one save's files
  std::uint64_t saved_version = 0;
  std::vector<core::ForestNode<D>> nodes;
  LoadedDelta<D> delta;            // populated only for empty_base files
};

// Reads and validates the sharding sections of `path`. Throws
// SnapshotIoError when the file has no sharding sections or they are
// inconsistent (bad root, child pointers not strictly forward — the
// acyclicity the preorder layout guarantees — or a checksum mismatch
// against the node bytes). The base index of a non-stub shard file is
// loaded separately through the ordinary load_snapshot(path).
template <int D>
LoadedShardFile<D> read_shard_file(const std::string& path) {
  detail::ValidatedFile file =
      detail::open_snapshot_file(path, static_cast<std::uint32_t>(D));
  if (!detail::has_section(file, SectionId::kShardInfo) ||
      !detail::has_section(file, SectionId::kShardNodes))
    throw SnapshotIoError(SnapshotError::kBadSectionTable,
                          "file carries no sharding sections: " + path);
  auto info_span = detail::typed_section<ShardInfoRecord>(
      file, SectionId::kShardInfo);
  if (info_span.size() != 1)
    detail::fail_structure("shard info must hold exactly one record");
  const ShardInfoRecord info = info_span[0];
  auto nodes = detail::typed_section<core::ForestNode<D>>(
      file, SectionId::kShardNodes);
  if (info.shard_count == 0 || nodes.empty() ||
      info.root >= nodes.size())
    detail::fail_structure("shard cut inconsistent");
  if (info.shard_id != kShardManifestId &&
      info.shard_id >= info.shard_count)
    detail::fail_structure("shard id out of range");
  const std::uint64_t checksum =
      fnv1a64(nodes.data(), nodes.size() * sizeof(core::ForestNode<D>));
  if (checksum != info.cut_checksum)
    throw SnapshotIoError(SnapshotError::kBadChecksum,
                          "shard cut checksum mismatch: " + path);
  std::size_t leaves = 0;
  const auto nnodes = static_cast<std::uint32_t>(nodes.size());
  for (std::uint32_t id = 0; id < nnodes; ++id) {
    const core::ForestNode<D>& n = nodes[id];
    if (n.is_leaf()) {
      ++leaves;
      continue;
    }
    // Children strictly after the parent: bounds plus acyclicity in one
    // check (the preorder writer guarantees it).
    if (n.inner >= nnodes || n.outer >= nnodes || n.inner <= id ||
        n.outer <= id || n.inner == n.outer)
      detail::fail_structure("shard cut child pointers invalid");
  }
  if (leaves != info.shard_count)
    detail::fail_structure("shard cut leaf count disagrees with "
                           "shard_count");

  LoadedShardFile<D> out;
  out.shard_count = info.shard_count;
  out.shard_id = info.shard_id;
  out.root = info.root;
  out.empty_base = (info.flags & kShardFlagEmptyBase) != 0;
  out.cut_checksum = info.cut_checksum;
  out.saved_version = file.header.saved_version;
  out.nodes.assign(nodes.begin(), nodes.end());
  if (out.empty_base) {
    auto delta_ids = detail::typed_section<std::uint32_t>(
        file, SectionId::kDeltaIds);
    auto delta_points = detail::typed_section<geo::Point<D>>(
        file, SectionId::kDeltaPoints);
    auto tombs = detail::typed_section<std::uint32_t>(
        file, SectionId::kTombstones);
    if (delta_ids.size() != delta_points.size())
      detail::fail_structure("delta id and point sections disagree");
    if (!tombs.empty())
      detail::fail_structure("empty-base shard cannot carry tombstones");
    for (std::size_t i = 0; i < delta_ids.size(); ++i) {
      if (delta_ids[i] == 0xffffffffu ||
          (i > 0 && delta_ids[i] <= delta_ids[i - 1]))
        detail::fail_structure("delta ids not strictly increasing or "
                               "reserved");
      for (int dim = 0; dim < D; ++dim)
        if (!std::isfinite(delta_points[i][dim]))
          detail::fail_structure("delta point coordinate not finite");
    }
    out.delta.ids.assign(delta_ids.begin(), delta_ids.end());
    out.delta.points.assign(delta_points.begin(), delta_points.end());
  }
  return out;
}

}  // namespace sepdc::io
