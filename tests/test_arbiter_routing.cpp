// Tests for noc/arbiter and noc/routing: round-robin fairness and XY
// dimension-order routing invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "noc/arbiter.hpp"
#include "noc/routing.hpp"

namespace rnoc::noc {
namespace {

TEST(RoundRobinArbiter, GrantsOnlyRequesters) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.arbitrate_mask(0b0000), -1);
  EXPECT_EQ(a.arbitrate_mask(0b0100), 2);
}

TEST(RoundRobinArbiter, RotatesAfterGrant) {
  RoundRobinArbiter a(4);
  const std::uint64_t all = 0b1111;
  EXPECT_EQ(a.arbitrate_mask(all), 0);
  EXPECT_EQ(a.arbitrate_mask(all), 1);
  EXPECT_EQ(a.arbitrate_mask(all), 2);
  EXPECT_EQ(a.arbitrate_mask(all), 3);
  EXPECT_EQ(a.arbitrate_mask(all), 0);
}

TEST(RoundRobinArbiter, FairUnderContention) {
  RoundRobinArbiter a(3);
  std::map<int, int> grants;
  for (int i = 0; i < 300; ++i) ++grants[a.arbitrate_mask(0b111)];
  EXPECT_EQ(grants[0], 100);
  EXPECT_EQ(grants[1], 100);
  EXPECT_EQ(grants[2], 100);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.arbitrate_mask(0b1001), 0);
  // Pointer is at 1; inputs 1, 2 idle -> grant 3.
  EXPECT_EQ(a.arbitrate_mask(0b1001), 3);
  EXPECT_EQ(a.arbitrate_mask(0b1001), 0);
}

TEST(RoundRobinArbiter, SizeMismatchThrows) {
  // A request bit at or beyond inputs() names no input.
  RoundRobinArbiter a(4);
  EXPECT_THROW(a.arbitrate_mask(0b10011), std::invalid_argument);
}

TEST(RoundRobinArbiter, PointerSetter) {
  RoundRobinArbiter a(4);
  a.set_pointer(2);
  EXPECT_EQ(a.arbitrate_mask(0b1111), 2);
  EXPECT_THROW(a.set_pointer(4), std::invalid_argument);
  EXPECT_THROW(a.set_pointer(-1), std::invalid_argument);
}

TEST(RoundRobinArbiter, RankAndGrantMatchArbitrateMask) {
  // Arbitrating over an explicit request list (lowest rank() wins, then
  // grant()) picks the same input and leaves the same pointer as
  // arbitrate_mask, for every pointer and request set of a 6-input arbiter
  // and for full-width 64-input ones.
  for (const int n : {6, 64}) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const int sets = n == 6 ? 64 : 500;
    for (int ptr = 0; ptr < n; ++ptr) {
      for (int k = 1; k < sets; ++k) {
        std::uint64_t req = static_cast<std::uint64_t>(k);
        if (n == 64) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          req = x;
        }
        if (req == 0) continue;
        RoundRobinArbiter by_mask(n);
        RoundRobinArbiter by_rank(n);
        by_mask.set_pointer(ptr);
        by_rank.set_pointer(ptr);
        int best = -1;
        for (int i = 0; i < n; ++i) {
          if ((req >> static_cast<unsigned>(i) & 1u) == 0) continue;
          if (best < 0 || by_rank.rank(i) < by_rank.rank(best)) best = i;
        }
        by_rank.grant(best);
        EXPECT_EQ(by_mask.arbitrate_mask(req), best);
        EXPECT_EQ(by_mask.pointer(), by_rank.pointer());
      }
    }
  }
}

TEST(MeshDims, CoordRoundTrip) {
  const MeshDims d{8, 8};
  for (NodeId n = 0; n < d.nodes(); ++n)
    EXPECT_EQ(d.node_of(d.coord_of(n)), n);
}

TEST(MeshDims, RowMajorLayout) {
  const MeshDims d{4, 3};
  EXPECT_EQ(d.coord_of(0), (Coord{0, 0}));
  EXPECT_EQ(d.coord_of(3), (Coord{3, 0}));
  EXPECT_EQ(d.coord_of(4), (Coord{0, 1}));
  EXPECT_EQ(d.node_of({2, 2}), 10);
}

TEST(MeshDims, RejectsOutOfRange) {
  const MeshDims d{4, 4};
  EXPECT_THROW(d.coord_of(16), std::invalid_argument);
  EXPECT_THROW(d.node_of({4, 0}), std::invalid_argument);
}

TEST(Directions, OppositePairs) {
  EXPECT_EQ(opposite_port(port_of(Direction::North)), port_of(Direction::South));
  EXPECT_EQ(opposite_port(port_of(Direction::East)), port_of(Direction::West));
  EXPECT_EQ(opposite_port(port_of(Direction::Local)), port_of(Direction::Local));
  for (int p = 0; p < kMeshPorts; ++p)
    EXPECT_EQ(opposite_port(opposite_port(p)), p);
}

TEST(XyRoute, LocalAtDestination) {
  const MeshDims d{8, 8};
  for (NodeId n = 0; n < d.nodes(); ++n)
    EXPECT_EQ(xy_route(d, n, n), port_of(Direction::Local));
}

TEST(XyRoute, XBeforeY) {
  const MeshDims d{8, 8};
  // From (0,0) to (3,3): move East until the column matches.
  EXPECT_EQ(xy_route(d, d.node_of({0, 0}), d.node_of({3, 3})),
            port_of(Direction::East));
  EXPECT_EQ(xy_route(d, d.node_of({3, 0}), d.node_of({3, 3})),
            port_of(Direction::South));
  EXPECT_EQ(xy_route(d, d.node_of({5, 5}), d.node_of({3, 3})),
            port_of(Direction::West));
  EXPECT_EQ(xy_route(d, d.node_of({3, 5}), d.node_of({3, 3})),
            port_of(Direction::North));
}

/// Property: following xy_route from any source reaches the destination in
/// exactly the Manhattan distance number of hops.
class XyRouteAllPairs : public ::testing::TestWithParam<int> {};

TEST_P(XyRouteAllPairs, ConvergesInManhattanHops) {
  const MeshDims d{5, 5};
  const NodeId src = GetParam();
  for (NodeId dst = 0; dst < d.nodes(); ++dst) {
    NodeId cur = src;
    int hops = 0;
    while (cur != dst) {
      const int port = xy_route(d, cur, dst);
      ASSERT_NE(port, port_of(Direction::Local));
      Coord c = d.coord_of(cur);
      switch (direction_of(port)) {
        case Direction::North: --c.y; break;
        case Direction::South: ++c.y; break;
        case Direction::East: ++c.x; break;
        case Direction::West: --c.x; break;
        case Direction::Local: break;
      }
      ASSERT_TRUE(d.contains(c));
      cur = d.node_of(c);
      ASSERT_LE(++hops, 2 * (d.x + d.y));
    }
    EXPECT_EQ(hops, xy_hops(d, src, dst));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, XyRouteAllPairs,
                         ::testing::Range(0, 25));

TEST(XyHops, Symmetric) {
  const MeshDims d{6, 4};
  for (NodeId a = 0; a < d.nodes(); a += 3)
    for (NodeId b = 0; b < d.nodes(); b += 5)
      EXPECT_EQ(xy_hops(d, a, b), xy_hops(d, b, a));
}

}  // namespace
}  // namespace rnoc::noc
