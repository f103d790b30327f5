// LandmarkTreeCache's second tier (RAM LRU -> artifact store -> compute):
// write-back on miss, store-served reloads with zero Dijkstras, bitwise
// equality of loaded trees, corruption fallback, and the Prewarm env knob
// (including its fall-back for malformed values).
// Tier traffic is read as deltas of the registry's store::Counters().
#include "routing/landmark_trees.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "graph/generators.h"
#include "graph/io.h"
#include "routing/landmarks.h"
#include "routing/params.h"
#include "runtime/thread_pool.h"
#include "store/artifact_store.h"

namespace disco {
namespace {

namespace fs = std::filesystem;

struct Tiers {
  std::uint64_t ram_hits, store_hits, dijkstras, writebacks;
};

Tiers Now() {
  const store::StoreCounters& c = store::Counters();
  return {c.tree_ram_hits.Value(), c.tree_store_hits.Value(),
          c.tree_dijkstras.Value(), c.tree_writebacks.Value()};
}

Tiers Since(const Tiers& before) {
  const Tiers now = Now();
  return {now.ram_hits - before.ram_hits,
          now.store_hits - before.store_hits,
          now.dijkstras - before.dijkstras,
          now.writebacks - before.writebacks};
}

class TreeCacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/disco_tree_cache_test_XXXXXX";
    root_ = ::mkdtemp(tmpl);
    std::string err;
    ASSERT_TRUE(store::OpenProcessStore(root_ + "/store", &err)) << err;
    g_ = ConnectedGnm(256, 1024, 3);
    Params params;
    params.seed = 11;
    landmarks_ = SelectLandmarks(g_.num_nodes(), params);
    ASSERT_GE(landmarks_.count(), 2u);
  }

  void TearDown() override {
    store::CloseProcessStoreForTest();
    std::error_code ec;
    fs::remove_all(root_, ec);
    ::unsetenv("DISCO_TREE_CACHE_ENTRIES");
  }

  std::string root_;
  Graph g_;
  LandmarkSet landmarks_;
};

TEST_F(TreeCacheStoreTest, MissComputesAndWritesBack) {
  const Tiers before = Now();
  LandmarkTreeCache cache(g_, landmarks_);
  for (const NodeId l : landmarks_.landmarks) cache.Tree(l);
  const Tiers stats = Since(before);
  EXPECT_EQ(stats.dijkstras, landmarks_.count());
  EXPECT_EQ(stats.writebacks, landmarks_.count());
  EXPECT_EQ(stats.store_hits, 0u);
  // Every tree is now an artifact.
  EXPECT_EQ(store::ProcessStore()->Verify().checked,
            landmarks_.count());
}

TEST_F(TreeCacheStoreTest, SecondCacheLoadsEverythingFromStore) {
  LandmarkTreeCache warm(g_, landmarks_);
  for (const NodeId l : landmarks_.landmarks) warm.Tree(l);

  LandmarkTreeCache fresh(g_, landmarks_);
  const Tiers before = Now();
  for (const NodeId l : landmarks_.landmarks) {
    const auto loaded = fresh.Tree(l);
    const auto computed = warm.Tree(l);
    ASSERT_EQ(loaded->dist.size(), computed->dist.size());
    EXPECT_EQ(loaded->parent, computed->parent);
    EXPECT_EQ(loaded->source, computed->source);
    EXPECT_EQ(std::memcmp(loaded->dist.data(), computed->dist.data(),
                          loaded->dist.size() * sizeof(Dist)),
              0);
  }
  const Tiers stats = Since(before);
  EXPECT_EQ(stats.dijkstras, 0u) << "warm store must serve every tree";
  EXPECT_EQ(stats.store_hits, landmarks_.count());
  EXPECT_EQ(stats.writebacks, 0u);
  // RAM tier still fronts the store: a re-request is a pure RAM hit.
  const Tiers before_rerequest = Now();
  fresh.Tree(landmarks_.landmarks[0]);
  EXPECT_EQ(Since(before_rerequest).store_hits, 0u);
  EXPECT_EQ(Since(before_rerequest).ram_hits, 1u);
}

TEST_F(TreeCacheStoreTest, PrewarmResolvesFromStoreWithZeroDijkstras) {
  runtime::ThreadPool::ResetShared(4);  // Prewarm stays lazy on 1 thread
  {
    LandmarkTreeCache builder(g_, landmarks_);
    builder.Prewarm();
  }
  const Tiers before = Now();
  LandmarkTreeCache cache(g_, landmarks_);
  cache.Prewarm();
  runtime::ThreadPool::ResetShared(runtime::DefaultThreadCount());
  EXPECT_EQ(cache.computed_count(), landmarks_.count());
  EXPECT_EQ(Since(before).dijkstras, 0u);
  EXPECT_EQ(Since(before).store_hits, landmarks_.count());
}

TEST_F(TreeCacheStoreTest, CorruptArtifactFallsBackToComputeAndHeals) {
  LandmarkTreeCache builder(g_, landmarks_);
  const NodeId victim = landmarks_.landmarks[0];
  builder.Tree(victim);

  const auto key = LandmarkTreeArtifactKey(
      GraphFingerprintHex(g_), LandmarkSetFingerprintHex(landmarks_),
      victim);
  const std::string path = store::ProcessStore()->ObjectPath(key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(-3, std::ios::end);
    const char c = '\x55';
    f.write(&c, 1);
  }

  Tiers before = Now();
  LandmarkTreeCache fresh(g_, landmarks_);
  const auto recomputed = fresh.Tree(victim);
  Tiers stats = Since(before);
  EXPECT_EQ(stats.dijkstras, 1u);
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.writebacks, 1u) << "must republish";
  EXPECT_EQ(recomputed->source, victim);

  // The republished artifact serves the next cache.
  before = Now();
  LandmarkTreeCache healed(g_, landmarks_);
  healed.Tree(victim);
  stats = Since(before);
  EXPECT_EQ(stats.dijkstras, 0u);
  EXPECT_EQ(stats.store_hits, 1u);
}

TEST_F(TreeCacheStoreTest, MisfiledArtifactReadsAsMissNotPoison) {
  // A checksum-valid tree of the right graph but the *wrong root* parked
  // at another landmark's path (manual store surgery) must be treated as
  // a miss and recomputed, never returned as-is.
  LandmarkTreeCache builder(g_, landmarks_);
  const NodeId a = landmarks_.landmarks[0];
  const NodeId b = landmarks_.landmarks[1];
  builder.Tree(a);
  const std::string fp = GraphFingerprintHex(g_);
  const std::string set = LandmarkSetFingerprintHex(landmarks_);
  const std::string a_path =
      store::ProcessStore()->ObjectPath(LandmarkTreeArtifactKey(fp, set, a));
  const std::string b_path =
      store::ProcessStore()->ObjectPath(LandmarkTreeArtifactKey(fp, set, b));
  std::error_code ec;
  fs::create_directories(fs::path(b_path).parent_path(), ec);
  fs::copy_file(a_path, b_path, fs::copy_options::overwrite_existing, ec);
  ASSERT_FALSE(ec);

  Tiers before = Now();
  LandmarkTreeCache fresh(g_, landmarks_);
  const auto tree = fresh.Tree(b);
  EXPECT_EQ(tree->source, b);
  const Tiers stats = Since(before);
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.dijkstras, 1u);
  EXPECT_EQ(stats.writebacks, 1u);  // republished correctly
  before = Now();
  LandmarkTreeCache healed(g_, landmarks_);
  EXPECT_EQ(healed.Tree(b)->source, b);
  EXPECT_EQ(Since(before).store_hits, 1u);
}

TEST_F(TreeCacheStoreTest, StorelessCacheStillWorks) {
  store::CloseProcessStoreForTest();
  const Tiers before = Now();
  LandmarkTreeCache cache(g_, landmarks_);
  const NodeId l = landmarks_.landmarks[0];
  const auto tree = cache.Tree(l);
  EXPECT_EQ(tree->source, l);
  const Tiers stats = Since(before);
  EXPECT_EQ(stats.dijkstras, 1u);
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.writebacks, 0u);
}

TEST_F(TreeCacheStoreTest, PrewarmBudgetEnvKnob) {
  runtime::ThreadPool::ResetShared(4);
  // A 1-entry budget blocks prewarming entirely...
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "1", 1);
  {
    LandmarkTreeCache cache(g_, landmarks_);
    cache.Prewarm();
    EXPECT_EQ(cache.computed_count(), 0u);
  }
  // ...a huge one admits the full set...
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "1000000000", 1);
  {
    LandmarkTreeCache cache(g_, landmarks_);
    cache.Prewarm();
    EXPECT_EQ(cache.computed_count(), landmarks_.count());
  }
  // ...and garbage falls back to the built-in default (which fits this
  // tiny set).
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "not-a-number", 1);
  {
    LandmarkTreeCache cache(g_, landmarks_);
    cache.Prewarm();
    EXPECT_EQ(cache.computed_count(), landmarks_.count());
  }
  runtime::ThreadPool::ResetShared(runtime::DefaultThreadCount());
}

TEST(PrewarmEntryBudget, NegativeAndOverflowingEnvFallBackToDefault) {
  ::unsetenv("DISCO_TREE_CACHE_ENTRIES");
  const std::size_t def = PrewarmEntryBudget();
  EXPECT_EQ(def, std::size_t{32} << 20);
  // A bare strtoull wraps "-1" to 2^64-1 — an unlimited budget that would
  // prewarm every tree of a paper-scale map.
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "-1", 1);
  EXPECT_EQ(PrewarmEntryBudget(), def);
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "99999999999999999999999", 1);
  EXPECT_EQ(PrewarmEntryBudget(), def);
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "0", 1);
  EXPECT_EQ(PrewarmEntryBudget(), def);
  ::setenv("DISCO_TREE_CACHE_ENTRIES", "4096", 1);
  EXPECT_EQ(PrewarmEntryBudget(), 4096u);
  ::unsetenv("DISCO_TREE_CACHE_ENTRIES");
}

}  // namespace
}  // namespace disco
