#include "util/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace dtrace {
namespace {

std::vector<uint32_t> SortedUniqueIds(std::mt19937& rng, size_t n,
                                      uint32_t max_gap) {
  std::vector<uint32_t> ids;
  ids.reserve(n);
  uint32_t v = rng() % 16;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(v);
    v += 1 + rng() % max_gap;
  }
  return ids;
}

void ExpectRoundTrip(const std::vector<uint32_t>& ids) {
  std::vector<uint8_t> enc;
  const size_t predicted = EncodedIdListBytes(ids);
  const size_t written = EncodeIdList(ids, &enc);
  EXPECT_EQ(written, predicted);
  EXPECT_EQ(enc.size(), predicted);
  std::vector<uint32_t> dec;
  const size_t consumed = DecodeIdList(enc.data(), enc.size(), &dec);
  EXPECT_EQ(consumed, enc.size());
  EXPECT_EQ(dec, ids);
}

TEST(IdListCodecTest, RoundTripEmpty) { ExpectRoundTrip({}); }

TEST(IdListCodecTest, RoundTripSingleElement) {
  ExpectRoundTrip({0});
  ExpectRoundTrip({42});
  ExpectRoundTrip({0xffffffffu});
}

TEST(IdListCodecTest, RoundTripBlockBoundarySizes) {
  std::mt19937 rng(7);
  for (size_t n : {size_t{127}, size_t{128}, size_t{129}, size_t{255},
                   size_t{256}, size_t{1000}}) {
    ExpectRoundTrip(SortedUniqueIds(rng, n, 1000));
  }
}

TEST(IdListCodecTest, RoundTripMaxWidthDeltas) {
  // A 32-bit delta forces the widest legal block; the codec must not
  // overflow nor reject it.
  ExpectRoundTrip({0, 0xffffffffu});
  ExpectRoundTrip({0, 1, 0xfffffffeu, 0xffffffffu});
}

TEST(IdListCodecTest, RoundTripAllEqualRuns) {
  // Non-strict monotone input (duplicates) stays in delta mode (width 0
  // deltas) and round-trips exactly.
  std::vector<uint32_t> ids(300, 77);
  ExpectRoundTrip(ids);
}

TEST(IdListCodecTest, RoundTripNonMonotoneFallback) {
  // Unsorted blocks (tree entity lists after maintenance) take the
  // frame-of-reference fallback; order must be preserved exactly.
  std::mt19937 rng(13);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 500; ++i) ids.push_back(rng());
  ExpectRoundTrip(ids);
}

TEST(IdListCodecTest, SelfDelimitingConcatenation) {
  std::mt19937 rng(21);
  const auto a = SortedUniqueIds(rng, 130, 50);
  const auto b = SortedUniqueIds(rng, 3, 9);
  std::vector<uint8_t> enc;
  EncodeIdList(a, &enc);
  const size_t a_bytes = enc.size();
  EncodeIdList(b, &enc);
  // Decoding walks the embedded lengths; `avail` spans both blobs.
  std::vector<uint32_t> dec;
  const size_t used_a = DecodeIdList(enc.data(), enc.size(), &dec);
  EXPECT_EQ(used_a, a_bytes);
  EXPECT_EQ(dec, a);
  const size_t used_b =
      DecodeIdList(enc.data() + used_a, enc.size() - used_a, &dec);
  EXPECT_EQ(used_a + used_b, enc.size());
  EXPECT_EQ(dec, b);
}

TEST(IdListCodecTest, ViewBlockAccessors) {
  std::mt19937 rng(3);
  const auto ids = SortedUniqueIds(rng, 321, 77);
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  const PackedIdListView view(enc.data(), enc.size());
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.size(), ids.size());
  EXPECT_EQ(view.total_bytes(), enc.size());
  EXPECT_EQ(view.num_blocks(), (ids.size() + kIdBlock - 1) / kIdBlock);
  uint32_t buf[kIdBlock];
  size_t at = 0;
  for (uint32_t b = 0; b < view.num_blocks(); ++b) {
    const uint32_t count = view.DecodeBlock(b, buf);
    ASSERT_EQ(count, view.BlockCount(b));
    for (uint32_t i = 0; i < count; ++i) EXPECT_EQ(buf[i], ids[at + i]);
    at += count;
  }
  EXPECT_EQ(at, ids.size());
}

TEST(IdListCodecRecoverableTest, CorruptBitWidthReturnsZero) {
  std::mt19937 rng(5);
  const auto ids = SortedUniqueIds(rng, 200, 30);  // >= kIdBlock: full layout
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  // Skip entry 0 starts after the tag and the 8-byte header; its mode|width
  // byte is the last of the 9. Widths above 32 are impossible for u32
  // deltas — decode must reject the blob without dying (corrupt storage is
  // an environmental fault, not a programmer error).
  enc[1 + kIdHeaderBytes + kIdSkipBytes - 1] = 60;
  std::vector<uint32_t> dec;
  EXPECT_EQ(DecodeIdList(enc.data(), enc.size(), &dec), 0u);
  EXPECT_TRUE(dec.empty());
}

TEST(IdListCodecRecoverableTest, CorruptSmallWidthReturnsZero) {
  std::mt19937 rng(5);
  const auto ids = SortedUniqueIds(rng, 50, 30);  // < kIdBlock: small layout
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  // The small layout derives its blob length from n and the width byte
  // (tag, u32 base, then mode|width), so an inflated width would walk the
  // derived length straight past `avail`; decode must refuse cleanly.
  enc[1 + 4] = 60;
  std::vector<uint32_t> dec;
  EXPECT_EQ(DecodeIdList(enc.data(), enc.size(), &dec), 0u);
  EXPECT_TRUE(dec.empty());
}

TEST(IdListCodecRecoverableTest, TruncatedFullLayoutReturnsZero) {
  std::mt19937 rng(7);
  const auto ids = SortedUniqueIds(rng, 200, 30);
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  // Every strict prefix is malformed: either the header is cut short or
  // the derived payload length runs past the available bytes.
  for (size_t len : {size_t{0}, size_t{1}, size_t{1 + kIdHeaderBytes},
                     enc.size() / 2, enc.size() - 1}) {
    std::vector<uint32_t> dec = {99};
    EXPECT_EQ(DecodeIdList(enc.data(), len, &dec), 0u) << "len " << len;
    EXPECT_TRUE(dec.empty()) << "len " << len;
  }
}

TEST(IdListCodecRecoverableTest, CorruptViewIsInvalidAndEmpty) {
  std::mt19937 rng(9);
  const auto ids = SortedUniqueIds(rng, 200, 30);
  std::vector<uint8_t> enc;
  EncodeIdList(ids, &enc);
  // An over-wide skip entry is caught per block: the view stays valid (the
  // ctor only validates the header and lengths) and DecodeBlock refuses the
  // damaged block with 0 — never a crash or an out-of-bounds read. The slow
  // path (DecodeIdList) rejects the whole blob.
  enc[1 + kIdHeaderBytes + kIdSkipBytes - 1] = 60;
  const PackedIdListView view(enc.data(), enc.size());
  ASSERT_TRUE(view.valid());
  std::vector<uint32_t> buf(kIdBlock);
  EXPECT_EQ(view.DecodeBlock(0, buf.data()), 0u);
  std::vector<uint32_t> dec;
  EXPECT_EQ(DecodeIdList(enc.data(), enc.size(), &dec), 0u);
  EXPECT_TRUE(dec.empty());
  // Truncated buffers yield an invalid view up front, not a crash.
  const PackedIdListView truncated(enc.data(), enc.size() / 2);
  EXPECT_FALSE(truncated.valid());
  EXPECT_EQ(truncated.num_blocks(), 0u);
}

TEST(U64CodecRecoverableTest, CorruptAndTruncatedReturnZero) {
  std::vector<uint64_t> vals = {3, 17, 900, 1u << 20, uint64_t{1} << 40};
  std::vector<uint8_t> enc;
  EncodeU64Array(vals, &enc);
  std::vector<uint64_t> dec = {42};
  // Truncations cut the payload (or the count header itself) short.
  for (size_t len : {size_t{0}, size_t{1}, enc.size() / 2, enc.size() - 1}) {
    dec.assign(1, 42);
    EXPECT_EQ(DecodeU64Array(enc.data(), len, &dec), 0u) << "len " << len;
    EXPECT_TRUE(dec.empty()) << "len " << len;
  }
}

TEST(IdListCodecTest, SmallLayoutSizes) {
  // The point of the small layout: 1 byte for an empty list, 6 + payload
  // for anything under kIdBlock ids (vs 18 + payload for the full layout).
  EXPECT_EQ(EncodedIdListBytes({}), 1u);
  const std::vector<uint32_t> one = {12345};
  EXPECT_EQ(EncodedIdListBytes(one), 1 + kIdSmallSkipBytes);  // width 0
  std::vector<uint32_t> run(100);
  for (size_t i = 0; i < run.size(); ++i) {
    run[i] = static_cast<uint32_t>(i);  // deltas of 1: width 1, 99 bits
  }
  EXPECT_EQ(EncodedIdListBytes(run), 1 + kIdSmallSkipBytes + (99 + 7) / 8);
  // kIdBlock ids no longer fit the 7-bit tag count: full layout.
  std::vector<uint32_t> full(kIdBlock);
  for (size_t i = 0; i < full.size(); ++i) {
    full[i] = static_cast<uint32_t>(i);
  }
  EXPECT_GE(EncodedIdListBytes(full), 1 + kIdHeaderBytes + kIdSkipBytes);
  ExpectRoundTrip(run);
  ExpectRoundTrip(full);
}

void ExpectU64RoundTrip(const std::vector<uint64_t>& values) {
  std::vector<uint8_t> enc;
  const size_t predicted = EncodedU64ArrayBytes(values);
  const size_t written = EncodeU64Array(values, &enc);
  EXPECT_EQ(written, predicted);
  std::vector<uint64_t> dec;
  const size_t consumed = DecodeU64Array(enc.data(), enc.size(), &dec);
  EXPECT_EQ(consumed, enc.size());
  EXPECT_EQ(dec, values);
}

TEST(U64ArrayCodecTest, RoundTripEmpty) { ExpectU64RoundTrip({}); }

TEST(U64ArrayCodecTest, RoundTripAllEqual) {
  // Width-0 frames: the all-equal signature column case — 9 bytes/frame.
  std::vector<uint64_t> values(200, 0x123456789abcdefull);
  ExpectU64RoundTrip(values);
  std::vector<uint8_t> enc;
  EncodeU64Array(values, &enc);
  const size_t frames = (values.size() + kSigFrame - 1) / kSigFrame;
  EXPECT_EQ(enc.size(), 8 + frames * 9);
}

TEST(U64ArrayCodecTest, RoundTripExtremes) {
  ExpectU64RoundTrip({0});
  ExpectU64RoundTrip({~uint64_t{0}});
  ExpectU64RoundTrip({0, ~uint64_t{0}});  // full 64-bit residual width
  std::vector<uint64_t> values;
  std::mt19937_64 rng(11);
  for (size_t i = 0; i < 500; ++i) values.push_back(rng());
  ExpectU64RoundTrip(values);
}

TEST(U64ArrayCodecTest, FrameBoundarySizes) {
  std::mt19937_64 rng(17);
  for (size_t n : {size_t{63}, size_t{64}, size_t{65}, size_t{128},
                   size_t{129}}) {
    std::vector<uint64_t> values;
    for (size_t i = 0; i < n; ++i) values.push_back(rng() % 100000);
    ExpectU64RoundTrip(values);
  }
}

TEST(BitPackingTest, WriterReaderAgreeAtAllWidths) {
  std::mt19937_64 rng(23);
  for (int width = 0; width <= 64; ++width) {
    std::vector<uint8_t> bytes;
    BitWriter writer(&bytes);
    std::vector<uint64_t> values;
    for (int i = 0; i < 67; ++i) {
      const uint64_t mask =
          width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
      values.push_back(rng() & mask);
      writer.Put(values.back(), width);
    }
    writer.Close();
    const BitReader reader(bytes.data(), bytes.size());
    for (int i = 0; i < 67; ++i) {
      EXPECT_EQ(reader.Read(static_cast<uint64_t>(i) * width, width),
                values[static_cast<size_t>(i)])
          << "width " << width << " index " << i;
    }
  }
}

}  // namespace
}  // namespace dtrace
