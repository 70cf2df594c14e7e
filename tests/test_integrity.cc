// Page-integrity primitives (src/recovery/integrity.h): the lane-parallel
// page checksum's detection guarantees, arrival verification against the
// store's checksum, and the checked write with a caller-supplied sum.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>

#include "src/memnode/fabric.h"
#include "src/memnode/fault_injector.h"
#include "src/recovery/integrity.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

constexpr uint32_t kWords = kPageSize / 8;

using Page = std::array<uint8_t, kPageSize>;

Page RandomPage(uint64_t seed) {
  Page p;
  Rng rng(seed);
  for (uint32_t i = 0; i < kWords; ++i) {
    uint64_t w = rng.Next();
    std::memcpy(p.data() + 8 * i, &w, 8);
  }
  return p;
}

uint64_t Word(const Page& p, uint32_t i) {
  uint64_t w;
  std::memcpy(&w, p.data() + 8 * i, 8);
  return w;
}

void SetWord(Page& p, uint32_t i, uint64_t w) { std::memcpy(p.data() + 8 * i, &w, 8); }

// Every one of the page's 32,768 bits, flipped alone, changes the sum.
void ExpectEveryBitFlipDetected(Page p) {
  uint64_t base = PageChecksum(p.data());
  uint32_t undetected = 0;
  for (uint32_t byte = 0; byte < kPageSize; ++byte) {
    for (uint32_t bit = 0; bit < 8; ++bit) {
      p[byte] ^= static_cast<uint8_t>(1u << bit);
      if (PageChecksum(p.data()) == base) {
        ++undetected;
      }
      p[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(undetected, 0u);
  EXPECT_EQ(PageChecksum(p.data()), base);
}

TEST(PageChecksum, EverySingleBitFlipOfARandomPageChangesTheSum) {
  ExpectEveryBitFlipDetected(RandomPage(0x5EED));
}

TEST(PageChecksum, EverySingleBitFlipOfTheZeroPageChangesTheSum) {
  ExpectEveryBitFlipDetected(Page{});
}

// Swapping two unequal words changes the sum, whether both feed the same
// lane (distance a multiple of kChecksumLanes) or two different lanes.
TEST(PageChecksum, SwappingTwoUnequalWordsChangesTheSum) {
  Page p = RandomPage(0xC0FFEE);
  uint64_t base = PageChecksum(p.data());
  const uint32_t kDistances[] = {kChecksumLanes, 3 * kChecksumLanes, 1, 5, kChecksumLanes + 3};
  uint32_t checked_same = 0;
  uint32_t checked_cross = 0;
  for (uint32_t d : kDistances) {
    for (uint32_t i = 0; i < kWords; ++i) {
      uint32_t j = (i + d) % kWords;
      uint64_t wi = Word(p, i);
      uint64_t wj = Word(p, j);
      ASSERT_NE(wi, wj);
      SetWord(p, i, wj);
      SetWord(p, j, wi);
      EXPECT_NE(PageChecksum(p.data()), base) << "words " << i << " and " << j;
      SetWord(p, i, wi);
      SetWord(p, j, wj);
      (i % kChecksumLanes == j % kChecksumLanes ? checked_same : checked_cross)++;
    }
  }
  EXPECT_EQ(checked_same, 2 * kWords);
  EXPECT_EQ(checked_cross, 3 * kWords);
  EXPECT_EQ(PageChecksum(p.data()), base);
}

// The documented construction: word i feeds lane i % kChecksumLanes, and
// the lanes fold in order with the same step.
TEST(PageChecksum, MatchesTheLaneConstruction) {
  Page p = RandomPage(42);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint32_t l = 0; l < kChecksumLanes; ++l) {
    uint64_t lane = 0xCBF29CE484222325ULL + l;
    for (uint32_t i = l; i < kWords; i += kChecksumLanes) {
      lane = ChecksumStep(lane, Word(p, i));
    }
    h = ChecksumStep(h, lane);
  }
  EXPECT_EQ(PageChecksum(p.data()), h);
}

TEST(VerifyPageBytes, ChecksTheStoredSumAndPassesPagesWithout) {
  PageStore store;
  Page p = RandomPage(7);
  const uint64_t va = kFarBase + 3 * kPageSize;
  const uint64_t page = va >> kPageShift;
  EXPECT_EQ(store.FindChecksum(page), nullptr);
  EXPECT_TRUE(VerifyPageBytes(store, va, p.data()));  // Nothing to verify against.
  store.SetChecksum(page, PageChecksum(p.data()));
  ASSERT_NE(store.FindChecksum(page), nullptr);
  EXPECT_EQ(*store.FindChecksum(page), PageChecksum(p.data()));
  EXPECT_TRUE(VerifyPageBytes(store, va, p.data()));
  p[100] ^= 0x10;
  EXPECT_FALSE(VerifyPageBytes(store, va, p.data()));
  EXPECT_FALSE(VerifyPageBytes(store.FindChecksum(page), p.data()));
  EXPECT_TRUE(VerifyPageBytes(nullptr, p.data()));
}

// A write-path flip on exactly the first write: the checked write notices
// the landed bytes disagree with the caller's sum, re-posts once, and ends
// with the page, its checksum and its generation all installed.
TEST(WritePageChecked, InstallsTheCallerSumAndRetriesAWritePathFlip) {
  Fabric fabric;
  FaultPlan plan;
  plan.seed = 11;
  plan.specs.push_back({0, FaultKind::kBitFlip, 1.0, 1.0, /*start_ns=*/0, /*end_ns=*/1});
  fabric.set_fault_plan(plan);
  QueuePair* qp = fabric.CreateQp();
  PageStore& store = fabric.node(0).store();
  Page data = RandomPage(99);
  const uint64_t va = kFarBase + 9 * kPageSize;
  const uint64_t page = va >> kPageShift;
  RuntimeStats stats;
  Tracer tracer(16);
  uint64_t wr_id = 0;
  Completion c = WritePageChecked(qp, store, va, data.data(), PageChecksum(data.data()),
                                  /*issue_ns=*/0, &wr_id, stats, &tracer, /*generation=*/4);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  EXPECT_EQ(fabric.injector().injected_bit_flips(), 1u);
  EXPECT_EQ(wr_id, 2u);
  EXPECT_EQ(stats.checksum_write_retries, 1u);
  EXPECT_EQ(stats.checksum_mismatches, 1u);
  EXPECT_EQ(tracer.Count(TraceEvent::kChecksumMismatch), 1u);
  ASSERT_NE(store.FindChecksum(page), nullptr);
  EXPECT_EQ(*store.FindChecksum(page), PageChecksum(data.data()));
  EXPECT_EQ(std::memcmp(store.PageData(page), data.data(), kPageSize), 0);
  EXPECT_EQ(store.Generation(page), 4u);
}

// Every attempt flipped: the retries run out, the bytes stay corrupt, and
// the correct caller-supplied sum stays installed so later reads see rot.
TEST(WritePageChecked, ExhaustedRetriesKeepTheCorrectSum) {
  Fabric fabric;
  FaultPlan plan;
  plan.seed = 12;
  plan.specs.push_back({0, FaultKind::kBitFlip, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  QueuePair* qp = fabric.CreateQp();
  PageStore& store = fabric.node(0).store();
  Page data = RandomPage(100);
  const uint64_t va = kFarBase + 10 * kPageSize;
  const uint64_t page = va >> kPageShift;
  RuntimeStats stats;
  uint64_t wr_id = 0;
  Completion c = WritePageChecked(qp, store, va, data.data(), PageChecksum(data.data()), 0,
                                  &wr_id, stats, nullptr, 0, /*max_retries=*/2);
  EXPECT_EQ(c.status, WcStatus::kSuccess);
  EXPECT_EQ(wr_id, 3u);
  EXPECT_EQ(stats.checksum_write_retries, 3u);
  EXPECT_EQ(store.Checksum(page), PageChecksum(data.data()));
  EXPECT_FALSE(VerifyPageBytes(store, va, store.PageData(page)));
}

}  // namespace
}  // namespace dilos
