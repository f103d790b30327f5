#include "core/name_resolution.h"

#include <gtest/gtest.h>

#include <numeric>

#include "routing/params.h"

namespace disco {
namespace {

LandmarkSet MakeLandmarks(NodeId n, std::initializer_list<NodeId> which) {
  LandmarkSet set;
  set.is_landmark.assign(n, 0);
  for (const NodeId l : which) {
    set.is_landmark[l] = 1;
    set.landmarks.push_back(l);
  }
  return set;
}

TEST(ResolutionDb, EveryNodeHasAnOwner) {
  const NameTable names = NameTable::Default(500);
  const LandmarkSet lms = MakeLandmarks(500, {3, 77, 200, 444});
  const ResolutionDb db(names, lms);
  std::size_t total = 0;
  for (const NodeId l : lms.landmarks) total += db.EntriesAt(l);
  EXPECT_EQ(total, 500u);
}

TEST(ResolutionDb, OwnerIsALandmark) {
  const NameTable names = NameTable::Default(200);
  const LandmarkSet lms = MakeLandmarks(200, {10, 20, 30});
  const ResolutionDb db(names, lms);
  for (NodeId v = 0; v < 200; ++v) {
    EXPECT_TRUE(lms.Contains(db.OwnerLandmark(names.hash(v))));
  }
}

TEST(ResolutionDb, NonLandmarksHostNothing) {
  const NameTable names = NameTable::Default(100);
  const LandmarkSet lms = MakeLandmarks(100, {0, 50});
  const ResolutionDb db(names, lms);
  EXPECT_EQ(db.EntriesAt(25), 0u);
  EXPECT_TRUE(db.OwnedNodes(25).empty());
}

TEST(ResolutionDb, OwnedNodesMatchOwnerLookup) {
  const NameTable names = NameTable::Default(300);
  const LandmarkSet lms = MakeLandmarks(300, {5, 100, 250});
  const ResolutionDb db(names, lms);
  for (const NodeId l : lms.landmarks) {
    for (const NodeId v : db.OwnedNodes(l)) {
      EXPECT_EQ(db.OwnerLandmark(names.hash(v)), l);
    }
    EXPECT_EQ(db.OwnedNodes(l).size(), db.EntriesAt(l));
  }
}

TEST(ResolutionDb, SingleLandmarkOwnsAll) {
  const NameTable names = NameTable::Default(64);
  const LandmarkSet lms = MakeLandmarks(64, {7});
  const ResolutionDb db(names, lms);
  EXPECT_EQ(db.EntriesAt(7), 64u);
}

TEST(ResolutionDb, VirtualPointsBalanceLoad) {
  // §4.5: multiple hash functions tame consistent hashing's imbalance;
  // the db places every landmark at 8 ring points.
  const NameTable names = NameTable::Default(4000);
  LandmarkSet lms;
  lms.is_landmark.assign(4000, 0);
  for (NodeId l = 0; l < 4000; l += 100) {
    lms.is_landmark[l] = 1;
    lms.landmarks.push_back(l);  // 40 landmarks
  }
  const ResolutionDb balanced(names, lms);
  std::size_t max_load = 0;
  for (const NodeId l : lms.landmarks) {
    max_load = std::max(max_load, balanced.EntriesAt(l));
  }
  EXPECT_LT(max_load, 4000u / 40u * 3u);  // within 3x of fair share
}

}  // namespace
}  // namespace disco
