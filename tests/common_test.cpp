// Unit tests for the shared byte, serialization, status, and RNG utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"

namespace dcert {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(data), "0001abff");
  EXPECT_EQ(FromHex("0001abff"), data);
  EXPECT_EQ(FromHex("0001ABFF"), data);
}

TEST(BytesTest, FromHexRejectsBadInput) {
  EXPECT_THROW(FromHex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(FromHex("zz"), std::invalid_argument);    // bad digit
}

TEST(Hash256Test, FromBytesRequiresExactly32) {
  Bytes short_buf(31, 0);
  Bytes long_buf(33, 0);
  EXPECT_THROW(Hash256::FromBytes(short_buf), std::invalid_argument);
  EXPECT_THROW(Hash256::FromBytes(long_buf), std::invalid_argument);
}

TEST(Hash256Test, HexRoundTripAndOrdering) {
  Hash256 a = Hash256::FromHex(
      "0000000000000000000000000000000000000000000000000000000000000001");
  Hash256 b = Hash256::FromHex(
      "0000000000000000000000000000000000000000000000000000000000000002");
  EXPECT_LT(a, b);
  EXPECT_EQ(Hash256::FromHex(a.ToHex()), a);
  EXPECT_TRUE(Hash256().IsZero());
  EXPECT_FALSE(a.IsZero());
}

TEST(Hash256Test, BitIndexingIsMsbFirst) {
  Hash256 h;
  h[0] = 0x80;  // bit 0 set
  h[1] = 0x01;  // bit 15 set
  EXPECT_TRUE(h.Bit(0));
  EXPECT_FALSE(h.Bit(1));
  EXPECT_TRUE(h.Bit(15));
  EXPECT_FALSE(h.Bit(14));
}

TEST(SerializeTest, RoundTripAllFieldTypes) {
  Encoder enc;
  enc.U8(0xab);
  enc.U16(0x1234);
  enc.U32(0xdeadbeef);
  enc.U64(0x0123456789abcdefULL);
  enc.Bool(true);
  enc.Str("hello");
  Hash256 h = Hash256::FromHex(
      "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff");
  enc.HashField(h);
  enc.Blob(FromHex("c0ffee"));

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.U8(), 0xab);
  EXPECT_EQ(dec.U16(), 0x1234);
  EXPECT_EQ(dec.U32(), 0xdeadbeefu);
  EXPECT_EQ(dec.U64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.Bool());
  EXPECT_EQ(dec.Str(), "hello");
  EXPECT_EQ(dec.HashField(), h);
  EXPECT_EQ(dec.Blob(), FromHex("c0ffee"));
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_NO_THROW(dec.ExpectEnd());
}

TEST(SerializeTest, TruncatedInputThrows) {
  Encoder enc;
  enc.U32(42);
  Bytes data = enc.bytes();
  data.pop_back();
  Decoder dec(data);
  EXPECT_THROW(dec.U32(), DecodeError);
}

TEST(SerializeTest, TruncatedBlobThrows) {
  Encoder enc;
  enc.U32(100);  // declares 100 bytes but provides none
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.Blob(), DecodeError);
}

TEST(SerializeTest, TrailingBytesDetected) {
  Encoder enc;
  enc.U8(1);
  enc.U8(2);
  Decoder dec(enc.bytes());
  dec.U8();
  EXPECT_THROW(dec.ExpectEnd(), DecodeError);
}

TEST(SerializeTest, BoolAcceptsOnlyZeroOrOne) {
  // One byte form per bool: any other byte is a decode error, not "true".
  Encoder enc;
  enc.Bool(false);
  enc.Bool(true);
  Decoder dec(enc.bytes());
  EXPECT_FALSE(dec.Bool());
  EXPECT_TRUE(dec.Bool());
  for (const std::uint8_t b : {0x02, 0x80, 0xff}) {
    const Bytes data = {b};
    Decoder bad(data);
    EXPECT_THROW(bad.Bool(), DecodeError) << static_cast<int>(b);
  }
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));

  Status err = Status::Error("bad proof");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "bad proof");
  EXPECT_EQ(err.WithContext("cert").message(), "cert: bad proof");
  EXPECT_TRUE(ok.WithContext("cert").ok());
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = Result<int>::Error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
  EXPECT_THROW(rng.NextBelow(0), std::invalid_argument);
}

TEST(RngTest, NextRangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextRange(5, 8));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{5, 6, 7, 8}));
  EXPECT_THROW(rng.NextRange(3, 2), std::invalid_argument);
}

TEST(RngTest, NextBytesLengthAndVariety) {
  Rng rng(11);
  Bytes b = rng.NextBytes(100);
  EXPECT_EQ(b.size(), 100u);
  std::set<std::uint8_t> distinct(b.begin(), b.end());
  EXPECT_GT(distinct.size(), 10u);  // overwhelmingly likely
}

// --- arena allocator -------------------------------------------------------

struct Tracked {
  static int live;
  int value;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(ArenaTest, NewConstructsAndDeleteRecyclesSlots) {
  common::Arena<Tracked> arena;
  Tracked* a = arena.New(7);
  EXPECT_EQ(a->value, 7);
  EXPECT_EQ(Tracked::live, 1);
  arena.Delete(a);
  EXPECT_EQ(Tracked::live, 0);
  // The freed slot is reused before the bump pointer advances.
  Tracked* b = arena.New(9);
  EXPECT_EQ(static_cast<void*>(b), static_cast<void*>(a));
  EXPECT_EQ(b->value, 9);
  arena.Delete(b);
}

TEST(ArenaTest, ChurnStaysInsideCarvedSlots) {
  common::Arena<Tracked> arena;
  std::vector<Tracked*> live;
  Rng rng(13);
  for (int wave = 0; wave < 40; ++wave) {
    for (int i = 0; i < 100; ++i) live.push_back(arena.New(i));
    // Free the same number in random order; later waves must recycle
    // those slots instead of carving fresh ones.
    for (int i = 0; i < 100; ++i) {
      const std::size_t at = rng.NextBelow(live.size());
      arena.Delete(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
  }
  // 4000 allocations churned through, but at most ~200 were ever live at
  // once — the carved capacity must track the high-water mark (rounded up
  // by geometric chunk growth), not the allocation count.
  EXPECT_LE(arena.SlotCount(), 512u);
  EXPECT_EQ(Tracked::live, static_cast<int>(live.size()));
  for (Tracked* p : live) arena.Delete(p);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ArenaTest, FirstChunkIsSmallThenGrowthDoublesUpToTheCap) {
  common::Arena<Tracked> arena;
  EXPECT_EQ(arena.SlotCount(), 0u);
  std::vector<Tracked*> live;
  live.push_back(arena.New(0));
  const std::size_t first = arena.SlotCount();
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 8u);
  std::size_t prev = first;
  std::size_t max_step = 0;
  while (live.size() < 40'000) {
    live.push_back(arena.New(static_cast<int>(live.size())));
    const std::size_t now = arena.SlotCount();
    if (now == prev) continue;
    const std::size_t step = now - prev;
    // Each new chunk doubles the capacity until chunks reach the cap.
    EXPECT_EQ(step, std::min<std::size_t>(prev, 8192)) << "at " << prev;
    max_step = std::max(max_step, step);
    prev = now;
  }
  EXPECT_EQ(max_step, 8192u);
  EXPECT_LT(arena.SlotCount() - live.size(), 8192u);
  for (Tracked* p : live) arena.Delete(p);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ArenaTest, ArenaPtrRunsDestructorAndReturnsSlot) {
  common::Arena<Tracked> arena;
  {
    common::ArenaPtr<Tracked> p = common::MakeArenaPtr(arena, 42);
    EXPECT_EQ(p->value, 42);
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);
  // An empty ArenaPtr is safe to destroy.
  common::ArenaPtr<Tracked> empty;
  EXPECT_EQ(empty.get(), nullptr);
}

}  // namespace
}  // namespace dcert
