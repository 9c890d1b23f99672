#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace latdiv {
namespace {

CacheConfig tiny() { return CacheConfig{1024, 128, 2}; }  // 4 sets x 2 ways

TEST(Cache, MissThenHit) {
  Cache c(tiny());
  EXPECT_FALSE(c.touch(0x1000));
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1000));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  Cache c(tiny());
  c.fill(0x1000);
  EXPECT_TRUE(c.touch(0x1000 + 127));
  EXPECT_FALSE(c.touch(0x1000 + 128));
}

TEST(Cache, ProbeHasNoSideEffects) {
  Cache c(tiny());
  c.fill(0x1000);
  EXPECT_TRUE(c.probe(0x1000));
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(tiny());  // 2 ways per set; lines 0x0, 0x200, 0x400 share set 0
  c.fill(0x0000);
  c.fill(0x0200);
  c.touch(0x0000);  // 0x200 becomes LRU
  c.fill(0x0400);   // evicts 0x200
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_FALSE(c.probe(0x0200));
  EXPECT_TRUE(c.probe(0x0400));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionReturnsVictimAddress) {
  Cache c(tiny());
  c.fill(0x0000, /*dirty=*/true);
  c.fill(0x0200);
  const auto wb = c.fill(0x0400);  // evicts dirty 0x0000
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x0000u);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, CleanEvictionReturnsNothing) {
  Cache c(tiny());
  c.fill(0x0000);
  c.fill(0x0200);
  EXPECT_FALSE(c.fill(0x0400).has_value());
}

TEST(Cache, VictimAddressReconstructionExact) {
  // Use a distinctive high address and verify the reconstructed
  // writeback address matches the original line base.
  Cache c(tiny());
  const Addr line = 0xDEADBE00 & ~Addr{127};
  c.fill(line, true);
  // Two more fills into the same set to force the eviction.
  const Addr set_stride = 4 * 128;  // 4 sets
  const Addr a = line + set_stride * 4;
  const Addr b = line + set_stride * 8;
  c.fill(a, false);
  const auto wb = c.fill(b, false);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, line);
}

TEST(Cache, RefillOfPresentLineMergesDirty) {
  Cache c(tiny());
  c.fill(0x1000, false);
  EXPECT_FALSE(c.fill(0x1000, true).has_value());  // merge, no eviction
  // Fill the second way, then force the eviction of 0x1000 and observe
  // that the merged dirtiness produces a writeback.
  const Addr set_stride = 4 * 128;
  c.fill(0x1000 + set_stride * 4);
  const auto wb = c.fill(0x1000 + set_stride * 8);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x1000u);
}

TEST(Cache, MarkDirtyCausesWriteback) {
  Cache c(tiny());
  c.fill(0x1000);
  c.mark_dirty(0x1000);
  const Addr set_stride = 4 * 128;
  c.fill(0x1000 + set_stride * 4);
  const auto wb = c.fill(0x1000 + set_stride * 8);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, 0x1000u);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(tiny());
  c.fill(0x1000, true);
  EXPECT_TRUE(c.invalidate(0x1000));
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_FALSE(c.invalidate(0x1000));
}

TEST(Cache, HitRateComputation) {
  Cache c(tiny());
  c.fill(0x0);
  c.touch(0x0);
  c.touch(0x0);
  c.touch(0x80000);
  EXPECT_NEAR(c.stats().hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, SetCountMatchesGeometry) {
  Cache c(CacheConfig{128 * 1024, 128, 16});  // the paper's L2 slice
  EXPECT_EQ(c.sets(), 64u);
}

TEST(Cache, StressManyFillsStayConsistent) {
  Cache c(CacheConfig{32 * 1024, 128, 8});  // the paper's L1
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    const Addr addr = (rng.next() & 0xFFFFF) & ~Addr{127};
    if (!c.touch(addr)) c.fill(addr, rng.chance(0.3));
  }
  // Capacity invariant: hits+misses == touches.
  EXPECT_EQ(c.stats().hits + c.stats().misses, 50000u);
}

TEST(Cache, WritebackAddressIsTheFilledLineAcrossGeometries) {
  // Indexing is shift-and-mask over power-of-two line sizes and set
  // counts: every dirty victim's writeback address must be exactly the
  // line base that was filled, whatever the geometry.
  struct Geometry {
    std::uint32_t line_bytes, sets, ways;
  };
  for (const Geometry g : {Geometry{32, 1, 4}, Geometry{64, 4, 2},
                           Geometry{128, 64, 8}, Geometry{256, 512, 1},
                           Geometry{128, 2048, 16}}) {
    SCOPED_TRACE(testing::Message() << g.line_bytes << "B lines, " << g.sets
                                    << " sets, " << g.ways << " ways");
    Cache c(CacheConfig{g.line_bytes * g.sets * g.ways, g.line_bytes, g.ways});
    ASSERT_EQ(c.sets(), g.sets);
    Rng rng(g.line_bytes + g.sets);
    std::set<Addr> resident;  // line bases filled and not yet evicted
    std::uint64_t writebacks = 0;
    for (int i = 0; i < 20000; ++i) {
      // Any byte of any line in a 36-bit space: tags use the bits above
      // 32 too, and far more lines than the cache holds keep evicting.
      const Addr addr = (rng.below(16) << 32) | (rng.next() & 0xFFFFFF);
      const Addr base = addr & ~Addr{g.line_bytes - 1};
      const auto wb = c.fill(addr, /*dirty=*/true);
      resident.insert(base);
      if (!wb.has_value()) continue;
      ++writebacks;
      ASSERT_EQ(resident.erase(*wb), 1u) << "writeback of a line never filled";
      EXPECT_EQ(*wb % g.line_bytes, 0u);
      EXPECT_EQ((*wb / g.line_bytes) % g.sets, (base / g.line_bytes) % g.sets)
          << "victim from another set";
      EXPECT_FALSE(c.probe(*wb));
      EXPECT_TRUE(c.probe(addr));
    }
    EXPECT_GT(writebacks, 0u);
    EXPECT_EQ(writebacks, c.stats().dirty_evictions);
    // Every eviction was a writeback, so the model is the cache's content.
    EXPECT_LE(resident.size(), std::size_t{g.sets} * g.ways);
    for (const Addr line : resident) EXPECT_TRUE(c.probe(line));
  }
}

TEST(CacheDeath, MarkDirtyAbsentAborts) {
  Cache c(tiny());
  EXPECT_DEATH(c.mark_dirty(0x5000), "absent");
}

}  // namespace
}  // namespace latdiv
