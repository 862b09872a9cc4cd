#include "api/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/oracle_factory.hpp"

namespace nav::api {
namespace {

Experiment small_grid() {
  return Experiment::on("path")
      .sizes({64, 128})
      .schemes({"none", "uniform"})
      .routers({"greedy", "lookahead:1"})
      .pairs(2)
      .resamples(3)
      .seed(0xAB);
}

TEST(ExperimentApi, ProducesOneCellPerGridPoint) {
  const auto result = small_grid().run();
  EXPECT_EQ(result.cells.size(), 2u * 2u * 2u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.family, "path");
    EXPECT_GT(cell.n_actual, 0u);
    EXPECT_GT(cell.greedy_diameter, 0.0);
    EXPECT_GE(cell.greedy_diameter, cell.mean_steps);
    EXPECT_TRUE(cell.router == "greedy" || cell.router == "lookahead:1");
  }
}

TEST(ExperimentApi, DeterministicGivenSeed) {
  const auto a = small_grid().run();
  const auto b = small_grid().run();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].scheme, b.cells[i].scheme);
    EXPECT_EQ(a.cells[i].router, b.cells[i].router);
    EXPECT_DOUBLE_EQ(a.cells[i].greedy_diameter, b.cells[i].greedy_diameter);
  }
}

TEST(ExperimentApi, RoutersAreARealAxis) {
  // The "none" scheme leaves nothing to look ahead over: both routers must
  // walk exactly the shortest path, while with "uniform" lookahead may only
  // help. This pins the router column to observable behaviour.
  const auto result = small_grid().run();
  for (const auto& cell : result.cells) {
    if (cell.scheme == "none") {
      EXPECT_DOUBLE_EQ(cell.greedy_diameter,
                       static_cast<double>(cell.diameter_lb))
          << cell.router;
    }
  }
}

TEST(ExperimentApi, FitRecoversLinearForNone) {
  // Greedy diameter of "none" on paths is exactly n-1: slope ~ 1. (Migrated
  // from the retired routing/experiment.hpp shim's test suite.)
  const auto result = Experiment::on("path")
                          .sizes({128, 256, 512, 1024})
                          .schemes({"none"})
                          .pairs(3)
                          .resamples(4)
                          .seed(99)
                          .run();
  const auto fits = result.fits();
  ASSERT_EQ(fits.size(), 1u);
  EXPECT_EQ(fits[0].scheme, "none");
  EXPECT_NEAR(fits[0].fit.slope, 1.0, 0.02);
  EXPECT_GT(fits[0].fit.r_squared, 0.999);
}

TEST(ExperimentApi, FitsCoverSchemeTimesRouter) {
  const auto result = small_grid().run();
  const auto fits = result.fits();
  ASSERT_EQ(fits.size(), 4u);
  const auto table = result.fit_table();
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.columns(), 5u);
}

TEST(ExperimentApi, TableHasRouterColumn) {
  const auto table = small_grid().run().table();
  EXPECT_EQ(table.columns(), 11u);
  EXPECT_NE(table.to_ascii().find("router"), std::string::npos);
  EXPECT_NE(table.to_ascii().find("lookahead:1"), std::string::npos);
}

TEST(ExperimentApi, WorkloadAxisMultipliesTheGrid) {
  const auto base = small_grid().run();
  const auto with_axis =
      small_grid().workloads({"uniform", "adversarial"}).run();
  ASSERT_EQ(with_axis.cells.size(), 2u * base.cells.size());
  // Cells are workload-major inside each size: the "uniform" half must be
  // bit-identical to the axis-free grid (the legacy-stream guarantee), the
  // "adversarial" half is a genuinely different demand.
  std::size_t base_index = 0;
  for (const auto& cell : with_axis.cells) {
    if (cell.workload == "uniform") {
      ASSERT_LT(base_index, base.cells.size());
      EXPECT_EQ(cell.scheme, base.cells[base_index].scheme);
      EXPECT_EQ(cell.router, base.cells[base_index].router);
      EXPECT_DOUBLE_EQ(cell.greedy_diameter,
                       base.cells[base_index].greedy_diameter);
      EXPECT_DOUBLE_EQ(cell.mean_steps, base.cells[base_index].mean_steps);
      ++base_index;
    } else {
      EXPECT_EQ(cell.workload, "adversarial");
      EXPECT_GT(cell.greedy_diameter, 0.0);
    }
  }
  EXPECT_EQ(base_index, base.cells.size());
  // One fit per (workload, scheme, router) combination.
  EXPECT_EQ(with_axis.fits().size(), 2u * base.fits().size());
}

TEST(ExperimentApi, AdversarialWorkloadForcesFarPairsOnThePath) {
  // On a path with no long links greedy walks the exact distance, so the
  // mean over adversarial far pairs (>= half the diameter) must exceed the
  // uniform-demand mean (expected distance ~ n/3).
  const auto result = Experiment::on("path")
                          .sizes({256})
                          .workloads({"uniform", "adversarial"})
                          .schemes({"none"})
                          .pairs(12)
                          .resamples(1)
                          .seed(3)
                          .run();
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_GT(result.cells[1].mean_steps, result.cells[0].mean_steps);
  EXPECT_GE(result.cells[1].mean_steps, 128.0);
}

TEST(ExperimentApi, OracleAxisMultipliesTheGrid) {
  const auto base = small_grid().run();
  const auto with_axis = small_grid().oracles({"auto", "landmark:4"}).run();
  ASSERT_EQ(with_axis.cells.size(), 2u * base.cells.size());
  // Cells are oracle-major inside each size. Trial streams carry no oracle
  // term, so the "auto" half is bit-identical to the axis-free grid; the
  // landmark half routes the SAME pairs on the approximate field.
  std::size_t base_index = 0;
  for (const auto& cell : with_axis.cells) {
    EXPECT_TRUE(cell.show_oracle);
    if (cell.oracle == "auto") {
      ASSERT_LT(base_index, base.cells.size());
      EXPECT_EQ(cell.scheme, base.cells[base_index].scheme);
      EXPECT_EQ(cell.router, base.cells[base_index].router);
      EXPECT_DOUBLE_EQ(cell.greedy_diameter,
                       base.cells[base_index].greedy_diameter);
      EXPECT_DOUBLE_EQ(cell.mean_steps, base.cells[base_index].mean_steps);
      ++base_index;
    } else {
      EXPECT_EQ(cell.oracle, "landmark:4");
    }
  }
  EXPECT_EQ(base_index, base.cells.size());
  // The axis surfaces in the table (one extra column) but never in
  // axis-free grids, whose record layout is pinned by golden files.
  EXPECT_FALSE(base.cells.front().show_oracle);
  const auto table = with_axis.table();
  EXPECT_EQ(table.columns(), 12u);
  EXPECT_NE(table.to_ascii().find("oracle"), std::string::npos);
  EXPECT_NE(table.to_ascii().find("landmark:4"), std::string::npos);
}

TEST(ExperimentApi, FileBackedGraphsNeedNoSizes) {
  const std::string fixture = std::string(NAV_TEST_DATA_DIR) + "/karate.dimacs";
  const auto result = Experiment::graphs({"file:" + fixture})
                          .schemes({"uniform"})
                          .pairs(2)
                          .resamples(2)
                          .seed(7)
                          .run();
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].family, "file:" + fixture);
  EXPECT_EQ(result.cells[0].n_actual, 34u);
  // Sizeless file cells backfill the request with the loaded size so
  // power-law fits never see log 0.
  EXPECT_EQ(result.cells[0].n_requested, 34u);
  EXPECT_EQ(result.cells[0].m, 78u);
  EXPECT_GT(result.cells[0].greedy_diameter, 0.0);
}

TEST(ExperimentApi, GraphsAxisMixesFamiliesAndFiles) {
  const std::string fixture = std::string(NAV_TEST_DATA_DIR) + "/karate.dimacs";
  const auto result = Experiment::graphs({"path", "file:" + fixture})
                          .sizes({32})
                          .schemes({"none"})
                          .pairs(2)
                          .resamples(2)
                          .seed(7)
                          .run();
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].family, "path");
  EXPECT_EQ(result.cells[0].n_actual, 32u);
  EXPECT_EQ(result.cells[1].n_actual, 34u);  // the file decides its own n
  // A generated family in the mix still needs sizes...
  EXPECT_THROW((void)Experiment::graphs({"path", "file:" + fixture})
                   .schemes({"none"})
                   .run(),
               std::invalid_argument);
  // ...and the graph axis can never be empty.
  EXPECT_THROW((void)Experiment::graphs({}), std::invalid_argument);
}

TEST(ExperimentApi, StreamsCellsToSinksAsJsonLines) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  const auto result = small_grid().stream_to(sink).run();
  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto record = parse_json_line(line);
    ASSERT_EQ(record[0].key, "family");
    EXPECT_EQ(std::get<std::string>(record[0].value), "path");
    ++count;
  }
  EXPECT_EQ(count, result.cells.size());
}

TEST(ExperimentApi, WriteReplaysAllCells) {
  const auto result = small_grid().run();
  TableSink sink;
  result.write(sink);
  EXPECT_EQ(sink.table().rows(), result.cells.size());
}

TEST(ExperimentApi, RejectsEmptyAndUnknownGrids) {
  EXPECT_THROW((void)Experiment::on("path").run(), std::invalid_argument);
  EXPECT_THROW((void)Experiment::on("path").sizes({16}).schemes({}).run(),
               std::invalid_argument);
  EXPECT_THROW((void)Experiment::on("path").sizes({16}).routers({}).run(),
               std::invalid_argument);
  EXPECT_THROW((void)Experiment::on("not-a-family").sizes({16}).run(),
               std::invalid_argument);
  EXPECT_THROW((void)Experiment::on("path").sizes({16}).routers(
                   {"warp-drive"}).run(),
               std::invalid_argument);
}

TEST(ExperimentApi, LargeSizeUsesCacheOracle) {
  // Past graph::kDenseOracleLimit the "auto" oracle is a cache.
  const auto result = Experiment::on("path")
                          .sizes({2 * graph::kDenseOracleLimit})
                          .schemes({"uniform"})
                          .pairs(2)
                          .resamples(2)
                          .run();
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_GT(result.cells[0].greedy_diameter, 0.0);
}

}  // namespace
}  // namespace nav::api
