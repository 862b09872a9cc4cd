// make_oracle: the one construction path for distance backends. Spec
// grammar, width resolution, config plumbing, and the catalog.
#include "graph/oracle_factory.hpp"

#include <gtest/gtest.h>

#include <span>

#include "graph/bfs.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/landmark_oracle.hpp"

namespace nav::graph {
namespace {

TEST(OracleFactory, AutoReproducesTheLegacySizeRule) {
  static_assert(kDenseOracleLimit == 4096);
  // Up to the limit: a matrix.
  const auto g = make_grid2d(8, 8);
  const auto dense = make_oracle("auto", g);
  EXPECT_NE(dynamic_cast<DistanceMatrix*>(dense.get()), nullptr);
  // One node past it the same spec gives a cache of cache_slots entries.
  const auto big = make_path(kDenseOracleLimit + 1);
  OracleConfig config;
  config.cache_slots = 5;
  const auto sparse = make_oracle("auto", big, config);
  const auto* cache = dynamic_cast<TargetDistanceCache*>(sparse.get());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->capacity(), 5u);
  // Either backend answers exactly.
  EXPECT_TRUE(dense->exact());
  EXPECT_TRUE(sparse->exact());
  for (NodeId t = 0; t < g.num_nodes(); t += 13) {
    const auto expect = bfs_distances(g, t);
    ASSERT_TRUE(*dense->distances_to(t) == std::span<const Dist>(expect));
  }
  for (const NodeId t : {NodeId{0}, NodeId{2048}, kDenseOracleLimit}) {
    const auto expect = bfs_distances(big, t);
    ASSERT_TRUE(*sparse->distances_to(t) == std::span<const Dist>(expect));
  }
}

TEST(OracleFactory, MatrixSpecsParseWidths) {
  const auto g = make_grid2d(6, 6);
  const auto plain = make_oracle("matrix", g);
  const auto* matrix = dynamic_cast<DistanceMatrix*>(plain.get());
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix->width(), DistWidth::kU32);
  const auto packed = make_oracle("matrix:u8", g);
  EXPECT_EQ(dynamic_cast<DistanceMatrix*>(packed.get())->width(),
            DistWidth::kU8);
  // "auto" width: a 6x6 grid's diameter bound fits u8 comfortably.
  const auto sized = make_oracle("matrix:auto", g);
  EXPECT_EQ(dynamic_cast<DistanceMatrix*>(sized.get())->width(),
            DistWidth::kU8);
}

TEST(OracleFactory, AutoWidthWidensWithTheGraph) {
  // A 300-path has eccentricity(0) = 299; 2x that needs u16.
  const auto g = make_path(300);
  const auto oracle = make_oracle("cache:4:auto", g);
  EXPECT_EQ(dynamic_cast<TargetDistanceCache*>(oracle.get())->width(),
            DistWidth::kU16);
}

TEST(OracleFactory, CacheSpecsParseCapacityAndBudget) {
  const auto g = make_grid2d(8, 8);  // n = 64
  OracleConfig config;
  config.cache_slots = 7;
  const auto bare = make_oracle("cache", g, config);
  EXPECT_EQ(dynamic_cast<TargetDistanceCache*>(bare.get())->capacity(), 7u);
  const auto counted = make_oracle("cache:12", g);
  EXPECT_EQ(dynamic_cast<TargetDistanceCache*>(counted.get())->capacity(),
            12u);
  // "2K" is a byte budget: 2048 / (64 nodes * 4 bytes) = 8 slots.
  const auto budgeted = make_oracle("cache:2K", g);
  EXPECT_EQ(dynamic_cast<TargetDistanceCache*>(budgeted.get())->capacity(),
            8u);
  // At u16 the same budget buys twice the slots.
  const auto narrow = make_oracle("cache:2K:u16", g);
  const auto* narrow_cache =
      dynamic_cast<TargetDistanceCache*>(narrow.get());
  EXPECT_EQ(narrow_cache->capacity(), 16u);
  EXPECT_EQ(narrow_cache->width(), DistWidth::kU16);
}

TEST(OracleFactory, LandmarkSpecsParse) {
  const auto g = make_grid2d(8, 8);
  const auto defaulted = make_oracle("landmark:5", g);
  const auto* oracle = dynamic_cast<LandmarkOracle*>(defaulted.get());
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->num_landmarks(), 5u);
  EXPECT_FALSE(oracle->exact());
  const auto by_degree = make_oracle("landmark:3:degree", g);
  EXPECT_EQ(dynamic_cast<LandmarkOracle*>(by_degree.get())->num_landmarks(),
            3u);
  const auto farthest = make_oracle("landmark:3:farthest", g);
  EXPECT_NE(dynamic_cast<LandmarkOracle*>(farthest.get()), nullptr);
}

TEST(OracleFactory, RejectsMalformedSpecs) {
  const auto g = make_cycle(8);
  EXPECT_THROW((void)make_oracle("", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("auto:4096", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("matrix:u64", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("cache:zero", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("cache:4:u16:extra", g),
               std::invalid_argument);
  // Sizes past size_t: 2^64 bytes, and a slot count whose spare slot wraps.
  for (const std::string spec :
       {"cache:17179869184G", "cache:18446744073709551615"}) {
    try {
      (void)make_oracle(spec, g);
      ADD_FAILURE() << spec << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)make_oracle("landmark", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("landmark:0", g), std::invalid_argument);
  EXPECT_THROW((void)make_oracle("landmark:4:closest", g),
               std::invalid_argument);
  EXPECT_THROW((void)make_oracle("btree", g), std::invalid_argument);
}

TEST(OracleFactory, SaturationSurfacesAtConstruction) {
  // Declaring u8 over a 300-path must throw (max finite 254 < 299), at
  // make_oracle time for the eager matrix backend.
  const auto g = make_path(300);
  EXPECT_THROW((void)make_oracle("matrix:u8", g), std::invalid_argument);
}

TEST(OracleFactory, CatalogListsEverySpecFamily) {
  const auto& catalog = oracle_catalog();
  ASSERT_EQ(catalog.size(), 5u);
  EXPECT_EQ(catalog[0].spec.rfind("auto", 0), 0u);
  EXPECT_EQ(catalog[1].spec.rfind("matrix", 0), 0u);
  EXPECT_EQ(catalog[2].spec.rfind("cache", 0), 0u);
  EXPECT_EQ(catalog[3].spec.rfind("landmark", 0), 0u);
  EXPECT_EQ(catalog[4].spec.rfind("faulty", 0), 0u);
  for (const auto& info : catalog) EXPECT_FALSE(info.description.empty());
}

}  // namespace
}  // namespace nav::graph
