// Sweep subsystem tests: deterministic grid expansion, self-contained
// cells (a row does not depend on which other cells ran before it, in
// which order — the contract that lets any executor backend spread the
// grid), and the "#spec" provenance line.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/sweep.h"

namespace disco {
namespace {

api::SweepSpec MiniSpec() {
  api::SweepSpec spec;
  spec.topologies = {"gnm"};
  spec.sizes = {128};
  spec.seeds = {1, 2};
  spec.schemes = {"disco", "s4"};
  spec.pairs = 20;
  return spec;
}

TEST(SweepGrid, ExpandsInDeterministicOrder) {
  api::SweepSpec spec = MiniSpec();
  spec.topologies = {"gnm", "geo"};
  const auto grid = api::ExpandGrid(spec);
  ASSERT_EQ(grid.size(), 2u * 1u * 2u * 2u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
  }
  // Nested topology -> n -> seed -> scheme.
  EXPECT_EQ(grid[0].topology, "gnm");
  EXPECT_EQ(grid[0].seed, 1u);
  EXPECT_EQ(grid[0].scheme, "disco");
  EXPECT_EQ(grid[1].scheme, "s4");
  EXPECT_EQ(grid[2].seed, 2u);
  EXPECT_EQ(grid[4].topology, "geo");
  // Two expansions of the same spec agree (the cross-process contract).
  const auto again = api::ExpandGrid(spec);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].topology, again[i].topology);
    EXPECT_EQ(grid[i].n, again[i].n);
    EXPECT_EQ(grid[i].seed, again[i].seed);
    EXPECT_EQ(grid[i].scheme, again[i].scheme);
  }
}

TEST(SweepRun, CellRowsDoNotDependOnRunOrder) {
  const api::SweepSpec spec = MiniSpec();
  const auto grid = api::ExpandGrid(spec);

  std::vector<std::string> forward, backward(grid.size());
  for (const api::SweepCell& cell : grid) {
    forward.push_back(api::RunSweepCell(cell, spec));
  }
  for (std::size_t i = grid.size(); i-- > 0;) {
    backward[i] = api::RunSweepCell(grid[i], spec);
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_FALSE(forward[i].empty()) << "cell " << i;
    EXPECT_EQ(forward[i], backward[i]) << "cell " << i;
  }
}

TEST(SweepRun, RowsCarryTheCellMetadata) {
  api::SweepSpec spec = MiniSpec();
  spec.seeds = {5};
  spec.schemes = {"spf"};
  const auto grid = api::ExpandGrid(spec);
  ASSERT_EQ(grid.size(), 1u);
  const std::string row = api::RunSweepCell(grid[0], spec);
  EXPECT_EQ(row.compare(0, 7, "0\tgnm\t1"), 0) << row;  // cell, topo, n=128
  EXPECT_NE(row.find("\tspf\t"), std::string::npos);
  EXPECT_EQ(row.back(), '\n');
}

// The "#spec" line is what tells two sweep tables from different grids
// apart: every axis and knob that changes the table changes the line.
TEST(SweepMerge, SpecFingerprintGuardsAgainstMixedSweeps) {
  const std::string sig = api::SweepSignature(MiniSpec());
  ASSERT_EQ(sig.compare(0, 6, "#spec "), 0) << sig;
  EXPECT_EQ(sig.find('\n'), sig.size() - 1) << sig;  // exactly one line
  EXPECT_NE(sig.find(" sizes=128 "), std::string::npos) << sig;
  EXPECT_NE(sig.find(" schemes=disco,s4 "), std::string::npos) << sig;
  EXPECT_EQ(api::SweepSignature(MiniSpec()), sig);

  // The scheme list order counts too (it changes the cell indexing).
  std::vector<api::SweepSpec> variants(3, MiniSpec());
  variants[0].sizes = {256};
  std::swap(variants[1].schemes[0], variants[1].schemes[1]);
  variants[2].pairs = 21;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(api::SweepSignature(variants[i]), sig) << "variant " << i;
  }
}

TEST(SweepMerge, ScenarioAxisIsPartOfTheFingerprint) {
  const std::string sig = api::SweepSignature(MiniSpec());
  api::SweepSpec other = MiniSpec();
  other.scenarios = {"null", "partition"};
  EXPECT_NE(api::SweepSignature(other), sig);

  api::SweepSpec more_replicas = MiniSpec();
  more_replicas.replicas = 4;
  EXPECT_NE(api::SweepSignature(more_replicas), sig);
}

TEST(SweepGrid, ScenarioAxisExpandsInnermost) {
  api::SweepSpec spec = MiniSpec();
  spec.scenarios = {"null", "churn"};
  const auto grid = api::ExpandGrid(spec);
  ASSERT_EQ(grid.size(), 1u * 1u * 2u * 2u * 2u);
  EXPECT_EQ(grid[0].scenario, "null");
  EXPECT_EQ(grid[1].scenario, "churn");
  EXPECT_EQ(grid[0].scheme, grid[1].scheme);
  EXPECT_EQ(grid[2].scheme, "s4");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
  }
}

TEST(SweepRun, ScenarioCellsCarryReducedDesColumns) {
  api::SweepSpec spec = MiniSpec();
  spec.sizes = {64};
  spec.seeds = {1};
  spec.schemes = {"s4"};
  spec.scenarios = {"null", "linkfail"};
  spec.replicas = 2;
  spec.pairs = 10;
  const auto grid = api::ExpandGrid(spec);
  ASSERT_EQ(grid.size(), 2u);

  const auto columns = [](const std::string& row) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= row.size()) {
      std::size_t end = row.find_first_of("\t\n", pos);
      if (end == std::string::npos) end = row.size();
      out.push_back(row.substr(pos, end - pos));
      pos = end + 1;
      if (pos >= row.size()) break;
    }
    return out;
  };
  const std::string null_row = api::RunSweepCell(grid[0], spec);
  const std::string des_row = api::RunSweepCell(grid[1], spec);
  const auto header_cols = columns(api::SweepHeader());
  const auto null_cols = columns(null_row);
  const auto des_cols = columns(des_row);
  ASSERT_EQ(null_cols.size(), header_cols.size());
  ASSERT_EQ(des_cols.size(), header_cols.size());
  EXPECT_EQ(null_cols[6], "null");
  EXPECT_EQ(des_cols[6], "linkfail");
  // Static columns are identical — the scenario axis never perturbs the
  // converged-scheme measurements — while the DES columns light up only
  // for the non-null cell.
  for (std::size_t c = 7; c < 16; ++c) {
    EXPECT_EQ(null_cols[c], des_cols[c]) << header_cols[c];
  }
  EXPECT_EQ(null_cols[16], "0");       // conv_time_mean
  EXPECT_NE(des_cols[16], "0");
  EXPECT_NE(des_cols[18], "0");        // des_msgs_node_mean
}

}  // namespace
}  // namespace disco
