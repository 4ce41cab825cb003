// Serde format versioning: the incremental-update PR bumped the fragment
// index format to v2 (trailing tombstone section) and the shard manifest to
// v2 (explicit routing table); the compaction PR bumped both to v3 (index:
// compaction epoch + live count trailer; manifest: epoch, -1-aware routing,
// explicit local ids, per-shard live counts); the serving PR bumped the
// manifest to v4 (trailing auto-compaction policy). Index v4 appended a
// superimposed-sketch section for a query prefilter that has since been
// removed: v4 files still load (the section is validated and discarded)
// and Save writes v3. Old fixtures must still load — including v2 files
// carrying tombstones, which must then compact correctly — files from the
// future must fail with a clear Status instead of garbage, and a file that
// disagrees with what it declares (a manifest that disagrees with the
// files on disk, a section cut off midway) must come back as
// InvalidArgument — never a crash or DCHECK.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "index/fragment_index.h"
#include "index/sharded_index.h"
#include "util/serde.h"

namespace pis {
namespace {

using ::pis::testing::EngineFixture;
using ::pis::testing::SampleQueries;

constexpr uint32_t kManifestMagic = 0x5049534D;  // mirrors sharded_index.cc

void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, bytes->size());
  std::memcpy(bytes->data() + offset, &value, 4);
}

// Every index version is a strict prefix of the next, with only the
// version word rewound. Save() writes v3; a v4 file is a v3 file plus the
// trailing sketch section; a v2 file drops the 8-byte epoch+live trailer;
// a v1 file additionally drops the 8-byte empty tombstone section. If this
// breaks after a format change, keep the new section trailing or bump the
// version with its own compat fixture.

std::string MakeV3IndexBytes(const FragmentIndex& index) {
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  return out.str();
}

// A v4 file as the sketch-writing builds laid it out: the v3 bytes, the
// version word set to 4, then the section — bits per graph (4) + hashes
// per class (4) + word count (8) + bits/64 code words per graph slot.
std::string MakeV4IndexBytes(const FragmentIndex& index) {
  constexpr int32_t kBits = 128;
  constexpr int32_t kHashes = 4;
  std::stringstream out;
  EXPECT_TRUE(index.Save(out).ok());
  BinaryWriter writer(out);
  writer.I32(kBits);
  writer.I32(kHashes);
  const uint64_t words = static_cast<uint64_t>(index.db_size()) * (kBits / 64);
  writer.U64(words);
  for (uint64_t i = 0; i < words; ++i) writer.U64(0x9e3779b97f4a7c15ULL * i);
  EXPECT_TRUE(writer.ok());
  std::string bytes = out.str();
  PatchU32(&bytes, 4, 4);
  return bytes;
}

std::string MakeV2IndexBytes(const FragmentIndex& index) {
  EXPECT_EQ(index.compaction_epoch(), 0u);
  std::string bytes = MakeV3IndexBytes(index);
  EXPECT_GE(bytes.size(), 16u);
  bytes.resize(bytes.size() - 8);
  PatchU32(&bytes, 4, 2);
  return bytes;
}

std::string MakeV1IndexBytes(const FragmentIndex& index) {
  EXPECT_TRUE(index.tombstones().empty());
  std::string bytes = MakeV2IndexBytes(index);
  bytes.resize(bytes.size() - 8);
  PatchU32(&bytes, 4, 1);
  return bytes;
}

TEST(FormatCompatTest, FragmentIndexV1FixtureLoads) {
  EngineFixture fx(12, 77);
  ASSERT_TRUE(fx.index.ok());
  std::stringstream in(MakeV1IndexBytes(fx.index.value()));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), fx.index.value().db_size());
  EXPECT_EQ(loaded.value().num_classes(), fx.index.value().num_classes());
  EXPECT_EQ(loaded.value().num_live(), loaded.value().db_size());
  EXPECT_TRUE(loaded.value().tombstones().empty());

  // The reloaded v1 index answers queries identically to the original.
  PisOptions options;
  options.sigma = 2.0;
  PisEngine before(&fx.db, &fx.index.value(), options);
  PisEngine after(&fx.db, &loaded.value(), options);
  for (const Graph& q : SampleQueries(fx.db, 3, 6, 19)) {
    auto a = before.Search(q);
    auto b = after.Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
  }
}

// A v2 file that carries tombstones (written before the v3 trailer
// existed) must load with its dead set intact — and then compact exactly
// like a natively written index: ids re-densified, postings dropped, and
// answers identical to a from-scratch build over the survivors.
TEST(FormatCompatTest, FragmentIndexV2WithTombstonesLoadsAndCompacts) {
  EngineFixture fx(12, 21);
  ASSERT_TRUE(fx.index.ok());
  const std::vector<int> dead = {1, 4, 9};
  for (int gid : dead) ASSERT_TRUE(fx.index.value().RemoveGraph(gid).ok());
  std::stringstream in(MakeV2IndexBytes(fx.index.value()));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 0u);
  EXPECT_EQ(loaded.value().tombstones().size(), dead.size());
  EXPECT_EQ(loaded.value().num_live(), 9);

  const std::vector<int> remap = loaded.value().Compact();
  EXPECT_EQ(loaded.value().db_size(), 9);
  EXPECT_EQ(loaded.value().compaction_epoch(), 1u);
  EXPECT_TRUE(loaded.value().tombstones().empty());

  GraphDatabase live_db;
  std::vector<int> live_ids;
  for (int gid = 0; gid < fx.db.size(); ++gid) {
    if (remap[gid] < 0) continue;
    ASSERT_EQ(remap[gid], live_db.size());
    live_db.Add(fx.db.at(gid));
    live_ids.push_back(gid);
  }
  auto rebuilt = FragmentIndex::Build(live_db, fx.features,
                                      fx.index.value().options());
  ASSERT_TRUE(rebuilt.ok());
  PisOptions options;
  options.sigma = 2.0;
  PisEngine compacted_engine(&live_db, &loaded.value(), options);
  PisEngine rebuilt_engine(&live_db, &rebuilt.value(), options);
  for (const Graph& q : SampleQueries(fx.db, 3, 6, 23)) {
    auto a = compacted_engine.Search(q);
    auto b = rebuilt_engine.Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
  }
}

// v3 round trip: tombstones AND the compaction trailer survive Save/Load.
TEST(FormatCompatTest, FragmentIndexV3RoundTripsEpochAndTombstones) {
  EngineFixture fx(10, 31);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(2).ok());
  fx.index.value().Compact();  // epoch 1, no tombstones
  ASSERT_TRUE(fx.index.value().RemoveGraph(5).ok());

  std::stringstream buffer;
  ASSERT_TRUE(fx.index.value().Save(buffer).ok());
  auto loaded = FragmentIndex::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 1u);
  EXPECT_EQ(loaded.value().db_size(), 9);
  EXPECT_EQ(loaded.value().num_live(), 8);
  EXPECT_EQ(loaded.value().tombstones().count(5), 1u);
}

// A v3 trailer whose live count disagrees with the tombstone section is
// corruption, not a silently wrong selectivity denominator.
TEST(FormatCompatTest, FragmentIndexV3BadLiveCountRejected) {
  EngineFixture fx(8, 41);
  ASSERT_TRUE(fx.index.ok());
  std::string bytes = MakeV3IndexBytes(fx.index.value());
  PatchU32(&bytes, bytes.size() - 4, 3);  // claim 3 live of 8, all live
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("live count"), std::string::npos);
}

// A v4 file loads with its sketch section discarded: the reloaded index
// answers queries identically to the original and re-saves as exactly the
// original's v3 bytes.
TEST(FormatCompatTest, FragmentIndexV4FixtureLoadsWithoutItsSketch) {
  EngineFixture fx(12, 53);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(4).ok());
  std::stringstream in(MakeV4IndexBytes(fx.index.value()));
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tombstones().count(4), 1u);
  std::stringstream resaved;
  ASSERT_TRUE(loaded.value().Save(resaved).ok());
  EXPECT_EQ(resaved.str(), MakeV3IndexBytes(fx.index.value()));

  PisOptions options;
  options.sigma = 2.0;
  PisEngine before(&fx.db, &fx.index.value(), options);
  PisEngine after(&fx.db, &loaded.value(), options);
  for (const Graph& q : SampleQueries(fx.db, 3, 6, 29)) {
    auto a = before.Search(q);
    auto b = after.Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers);
    EXPECT_EQ(a.value().candidates, b.value().candidates);
  }
}

// Save -> Load -> Save is byte-identical, starting from a v4 file: the
// first save drops the sketch section, and from then on the v3 bytes are
// a fixed point.
TEST(FormatCompatTest, FragmentIndexV4SaveLoadSaveIsByteIdentical) {
  EngineFixture fx(10, 59);
  ASSERT_TRUE(fx.index.ok());
  ASSERT_TRUE(fx.index.value().RemoveGraph(3).ok());
  std::stringstream v4(MakeV4IndexBytes(fx.index.value()));
  auto from_v4 = FragmentIndex::Load(v4);
  ASSERT_TRUE(from_v4.ok()) << from_v4.status().ToString();
  std::stringstream first;
  ASSERT_TRUE(from_v4.value().Save(first).ok());
  std::stringstream in(first.str());
  auto loaded = FragmentIndex::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::stringstream second;
  ASSERT_TRUE(loaded.value().Save(second).ok());
  EXPECT_EQ(first.str(), second.str());
}

// A file that declares v4 but is cut off inside the sketch section, or
// whose section does not fit the index, parsed far enough to know what it
// promised: InvalidArgument naming the sketch, never a crash or a
// silently accepted file.
TEST(FormatCompatTest, TruncatedV4SketchSectionIsInvalidArgument) {
  EngineFixture fx(8, 67);
  ASSERT_TRUE(fx.index.ok());
  const std::string v4 = MakeV4IndexBytes(fx.index.value());
  const size_t v3_size = MakeV3IndexBytes(fx.index.value()).size();
  std::string bad_hashes = v4;
  PatchU32(&bad_hashes, v3_size + 4, 0);  // hashes per class must be >= 1
  std::string short_count = v4;
  PatchU32(&short_count, v3_size + 8, 3);  // 3 words cannot cover 8 graphs
  for (const std::string& bytes :
       {v4.substr(0, v4.size() - 8),  // lose the last code word
        v4.substr(0, v3_size + 6),    // cut inside the header
        bad_hashes, short_count}) {
    std::stringstream in(bytes);
    auto loaded = FragmentIndex::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("sketch"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(FormatCompatTest, FragmentIndexFutureVersionRejected) {
  EngineFixture fx(6, 3);
  ASSERT_TRUE(fx.index.ok());
  std::stringstream out;
  ASSERT_TRUE(fx.index.value().Save(out).ok());
  std::string bytes = out.str();
  PatchU32(&bytes, 4, 99);
  std::stringstream in(bytes);
  auto loaded = FragmentIndex::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

class ManifestCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<EngineFixture>(15, 11);
    ASSERT_TRUE(fx_->index.ok());
    FragmentIndexOptions options;
    options.max_fragment_edges = 4;
    options.spec = DistanceSpec::EdgeMutation();
    auto built =
        ShardedFragmentIndex::Build(fx_->db, fx_->features, options, 3);
    ASSERT_TRUE(built.ok());
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("pis_manifest_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    ASSERT_TRUE(built.value().SaveDir(dir_).ok());
    sharded_ = std::make_unique<ShardedFragmentIndex>(built.MoveValue());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path ManifestPath() const {
    return std::filesystem::path(dir_) / "MANIFEST";
  }

  void WriteManifest(uint32_t version, uint32_t num_shards,
                     const std::vector<int>& payload) {
    std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good());
    BinaryWriter writer(out);
    writer.U32(kManifestMagic);
    writer.U32(version);
    writer.U32(num_shards);
    writer.VecInt(payload);
    ASSERT_TRUE(writer.ok());
  }

  std::unique_ptr<EngineFixture> fx_;
  std::unique_ptr<ShardedFragmentIndex> sharded_;
  std::string dir_;
};

TEST_F(ManifestCompatTest, V1ContiguousManifestLoads) {
  // Rewrite the manifest in the v1 layout (contiguous id ranges). The build
  // assigned contiguous ranges, so the offsets describe the same routing.
  std::vector<int> offsets = {0};
  for (int s = 0; s < sharded_->num_shards(); ++s) {
    offsets.push_back(offsets.back() + sharded_->shard_size(s));
  }
  WriteManifest(1, 3, offsets);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().db_size(), sharded_->db_size());
  for (int gid = 0; gid < sharded_->db_size(); ++gid) {
    EXPECT_EQ(loaded.value().shard_of(gid), sharded_->shard_of(gid));
  }
}

TEST_F(ManifestCompatTest, FutureManifestVersionRejected) {
  WriteManifest(42, 3, std::vector<int>(15, 0));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(ManifestCompatTest, MissingShardFileIsInvalidArgument) {
  std::filesystem::remove(std::filesystem::path(dir_) / "shard_0002.idx");
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, SurplusShardFileIsInvalidArgument) {
  std::filesystem::copy_file(std::filesystem::path(dir_) / "shard_0000.idx",
                             std::filesystem::path(dir_) / "shard_0003.idx");
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, RoutingToNonexistentShardIsInvalidArgument) {
  std::vector<int> routing(15, 0);
  routing[7] = 9;  // only shards 0..2 exist
  WriteManifest(2, 3, routing);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, RoutingDisagreeingWithShardSizesIsInvalidArgument) {
  // Structurally valid routing that sends every graph to shard 0 while the
  // files on disk hold 5 graphs each.
  WriteManifest(2, 3, std::vector<int>(15, 0));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ManifestCompatTest, InPlaceResaveWithFewerShardsRemovesStaleFiles) {
  // Rebuilding into the same directory with a smaller shard count must not
  // strand shard files the new manifest doesn't cover — LoadDir would
  // (correctly) reject the directory as inconsistent.
  FragmentIndexOptions options;
  options.max_fragment_edges = 4;
  options.spec = DistanceSpec::EdgeMutation();
  auto smaller = ShardedFragmentIndex::Build(fx_->db, fx_->features, options, 2);
  ASSERT_TRUE(smaller.ok());
  ASSERT_TRUE(smaller.value().SaveDir(dir_).ok());
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir_) / "shard_0002.idx"));
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_shards(), 2);
}

// SaveDir writes a v4 manifest; compaction state must round-trip through
// it: epoch, -1 routing for compacted-away ids, per-shard live counts.
TEST_F(ManifestCompatTest, ManifestRoundTripsCompactionState) {
  ASSERT_TRUE(sharded_->RemoveGraph(3).ok());
  ASSERT_TRUE(sharded_->RemoveGraph(11).ok());
  ASSERT_TRUE(sharded_->Compact().ok());
  EXPECT_EQ(sharded_->compaction_epoch(), 2);  // two shards rewritten
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compaction_epoch(), 2);
  EXPECT_EQ(loaded.value().db_size(), 15);
  EXPECT_EQ(loaded.value().num_live(), 13);
  EXPECT_EQ(loaded.value().shard_of(3), -1);
  EXPECT_EQ(loaded.value().shard_of(11), -1);
  EXPECT_FALSE(loaded.value().IsLive(3));
  EXPECT_TRUE(loaded.value().IsLive(4));
  for (int s = 0; s < loaded.value().num_shards(); ++s) {
    EXPECT_TRUE(loaded.value().shard(s).tombstones().empty());
  }
}

// The v4 manifest trailing section: the auto-compaction policy must
// survive SaveDir/LoadDir, so a reloaded server keeps compacting at the
// configured dead ratio.
TEST_F(ManifestCompatTest, V4ManifestRoundTripsCompactionPolicy) {
  sharded_->set_compact_dead_ratio(0.35);
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compact_dead_ratio(), 0.35);
}

// A v3 directory (one written before the policy section existed) is
// exactly a v4 manifest with the version word rewound and the trailing
// ratio cut off — the strict-prefix property every format bump keeps. It
// must load with the policy off.
TEST_F(ManifestCompatTest, V3ManifestLoadsWithPolicyOff) {
  sharded_->set_compact_dead_ratio(0.35);
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(ManifestPath(), full - sizeof(double), ec);
  ASSERT_FALSE(ec);
  {
    std::fstream patch(ManifestPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(4);
    BinaryWriter writer(patch);
    writer.U32(3u);
    ASSERT_TRUE(writer.ok());
  }
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().compact_dead_ratio(), 0.0);
  EXPECT_EQ(loaded.value().db_size(), sharded_->db_size());
}

// A v4 manifest whose policy ratio was cut off parsed far enough to know
// what it promised: structural disagreement, not garbage.
TEST_F(ManifestCompatTest, V4ManifestMissingPolicyIsInvalidArgument) {
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(ManifestPath(), full - sizeof(double), ec);
  ASSERT_FALSE(ec);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

// A structurally valid manifest carrying a nonsense policy ratio is
// rejected loudly instead of arming a bogus auto-compaction threshold.
TEST_F(ManifestCompatTest, OutOfRangePolicyRatioIsInvalidArgument) {
  ASSERT_TRUE(sharded_->SaveDir(dir_).ok());
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  {
    std::fstream patch(ManifestPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
    patch.seekp(static_cast<std::streamoff>(full - sizeof(double)));
    BinaryWriter writer(patch);
    writer.F64(17.5);
    ASSERT_TRUE(writer.ok());
  }
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("dead ratio"), std::string::npos);
}

// A manifest cut off after its routing table (local ids and live counts
// missing) parsed far enough to know what it promised — the failure is a
// structural disagreement (InvalidArgument), not unreadable garbage, and
// never a crash.
TEST_F(ManifestCompatTest, TruncatedV3SectionsAreInvalidArgument) {
  // Layout: magic(4) version(4) shards(4) epoch(4), VecInt shard_of
  // (8 + 15*4), then the sections we cut off.
  std::error_code ec;
  const auto full = std::filesystem::file_size(ManifestPath(), ec);
  ASSERT_FALSE(ec);
  ASSERT_GT(full, 16u + 68u);
  std::filesystem::resize_file(ManifestPath(), 16 + 68, ec);
  ASSERT_FALSE(ec);
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST_F(ManifestCompatTest, TruncatedManifestIsParseError) {
  std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
  BinaryWriter writer(out);
  writer.U32(kManifestMagic);
  writer.U32(2u);
  out.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(ManifestCompatTest, BadMagicIsParseError) {
  WriteManifest(2, 3, std::vector<int>(15, 0));
  std::fstream patch(ManifestPath(),
                     std::ios::binary | std::ios::in | std::ios::out);
  patch.write("JUNK", 4);
  patch.close();
  auto loaded = ShardedFragmentIndex::LoadDir(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace pis
