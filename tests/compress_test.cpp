// Adversarial coverage for the storage compression codecs: round-trips
// over pathological inputs, and the hard guarantee that truncated or
// bit-flipped frames come back as Corruption — never as an out-of-bounds
// read (this test stays in the ASan/TSan heavy list for that reason).
#include "storage/compress.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "storage/page.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"

namespace bp::storage::compress {
namespace {

using util::Status;

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> byte(0, 255);
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<char>(byte(rng)));
  return out;
}

std::string CompressibleBytes(size_t n, uint32_t seed) {
  // Repetitive structure with mild noise — the shape of a B-tree page.
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> byte(0, 7);
  std::string out;
  out.reserve(n);
  while (out.size() < n) {
    std::string run = "https://example.com/path/";
    run.push_back(static_cast<char>('a' + byte(rng)));
    out.append(run, 0, std::min(run.size(), n - out.size()));
  }
  return out;
}

// A frame as older builds wrote it: kLegacyFrameMagic, and FNV-1a over
// the payload with the offset basis those builds used.
std::string LegacyFrame(Codec codec, uint32_t raw_size,
                        std::string_view payload) {
  uint64_t fnv = 1469598103934665603ull;
  for (char c : payload) {
    fnv ^= static_cast<uint8_t>(c);
    fnv *= 1099511628211ull;
  }
  util::Writer w;
  w.PutU32(kLegacyFrameMagic);
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutU32(raw_size);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(fnv);
  w.PutRaw(payload);
  return std::move(w).data();
}

void ExpectRoundTrip(Codec codec, const std::string& raw) {
  const std::string frame = Compress(codec, raw);
  ASSERT_TRUE(LooksLikeFrame(frame));
  auto info = Inspect(frame);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->codec, codec);
  EXPECT_EQ(info->raw_size, raw.size());
  EXPECT_EQ(info->stored_size, frame.size());
  std::string back;
  Status st = Decompress(frame, &back);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(back, raw);
}

TEST(CompressFrame, RoundTripEmpty) {
  ExpectRoundTrip(Codec::kNone, "");
  ExpectRoundTrip(Codec::kLz, "");
  ExpectRoundTrip(Codec::kIntDelta, "");
}

TEST(CompressFrame, RoundTripTiny) {
  for (size_t n = 1; n <= 8; ++n) {
    ExpectRoundTrip(Codec::kLz, std::string(n, 'x'));
    ExpectRoundTrip(Codec::kLz, RandomBytes(n, 17 + n));
  }
}

TEST(CompressFrame, RoundTripAllZero) {
  const std::string zeros(kPageSize, '\0');
  const std::string frame = Compress(Codec::kLz, zeros);
  // An all-zero page must compress dramatically (it is the padding /
  // fresh-page case).
  EXPECT_LT(frame.size(), kPageSize / 16);
  ExpectRoundTrip(Codec::kLz, zeros);
  ExpectRoundTrip(Codec::kIntDelta, zeros);
}

TEST(CompressFrame, RoundTripIncompressibleRandom) {
  const std::string noise = RandomBytes(kPageSize, 42);
  ExpectRoundTrip(Codec::kLz, noise);
  // Literal-run overhead must stay small even on pure noise.
  EXPECT_LT(Compress(Codec::kLz, noise).size(), kPageSize + 64);
}

TEST(CompressFrame, RoundTripCompressible) {
  const std::string page = CompressibleBytes(kPageSize, 7);
  ExpectRoundTrip(Codec::kLz, page);
  EXPECT_LT(Compress(Codec::kLz, page).size(), kPageSize / 2);
}

TEST(CompressFrame, RoundTripMaxSizeBlock) {
  // Largest block the engine compresses in one frame today (a page),
  // plus a deliberately larger 256 KiB stress block exercising long
  // matches and literal runs >= 15 (the 255-run extension encoding).
  ExpectRoundTrip(Codec::kLz, CompressibleBytes(kPageSize, 3));
  std::string big = CompressibleBytes(256 * 1024, 5);
  big += RandomBytes(4096, 9);
  big += std::string(4096, '\7');
  ExpectRoundTrip(Codec::kLz, big);
}

TEST(CompressFrame, RoundTripManySeeds) {
  for (uint32_t seed = 0; seed < 32; ++seed) {
    std::string mixed = CompressibleBytes(512 + seed * 37, seed);
    mixed += RandomBytes(256 + seed * 11, seed ^ 0xbeef);
    ExpectRoundTrip(Codec::kLz, mixed);
  }
}

TEST(CompressFrame, RoundTripShortCopiesAtEveryOffset) {
  // Pieces copied from 1..40 bytes back with lengths 4..40: literal runs
  // and matches on both sides of the decoder's 16-byte block copy, and
  // overlapping matches (offset < length) at every small period.
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> offset_dist(1, 40);
  std::uniform_int_distribution<int> len_dist(4, 40);
  std::uniform_int_distribution<int> literal_dist(0, 20);
  for (int round = 0; round < 64; ++round) {
    std::string raw = RandomBytes(8, round);
    while (raw.size() < 3000) {
      raw += RandomBytes(literal_dist(rng), round * 131 + raw.size());
      const size_t offset = std::min<size_t>(offset_dist(rng), raw.size());
      const size_t len = len_dist(rng);
      const size_t from = raw.size() - offset;
      for (size_t k = 0; k < len; ++k) raw.push_back(raw[from + k]);
    }
    ExpectRoundTrip(Codec::kLz, raw);
  }
  // Long overlapping matches, as a page's zeroed free space makes: about
  // 1 KiB repeating a period of 1..16 bytes, each between literals.
  for (size_t offset = 1; offset <= 16; ++offset) {
    std::string raw = RandomBytes(64, static_cast<uint32_t>(offset));
    for (size_t len : {1000u, 1024u, 1031u}) {
      const size_t from = raw.size() - offset;
      for (size_t k = 0; k < len; ++k) raw.push_back(raw[from + k]);
      raw += RandomBytes(24, static_cast<uint32_t>(offset * 7 + len));
    }
    ExpectRoundTrip(Codec::kLz, raw);
  }
}

TEST(CompressFrame, IntDeltaRoundTrip) {
  // Sorted id arrays are the sweet spot.
  std::string raw;
  uint64_t v = 1000;
  for (int i = 0; i < 512; ++i) {
    v += 3 + (i % 5);
    for (size_t b = 0; b < 8; ++b) raw.push_back(static_cast<char>(v >> (8 * b)));
  }
  ExpectRoundTrip(Codec::kIntDelta, raw);
  EXPECT_LT(Compress(Codec::kIntDelta, raw).size(), raw.size() / 2);
  // Unsorted (negative deltas) must still round-trip via zig-zag.
  ExpectRoundTrip(Codec::kIntDelta, RandomBytes(512 * 8, 11));
}

TEST(CompressFrame, TrailingPaddingIgnored) {
  // Page slots are zero-padded to kPageSize; Decompress must use the
  // header's payload size and ignore the tail.
  const std::string raw = CompressibleBytes(kPageSize, 21);
  std::string slot = Compress(Codec::kLz, raw);
  ASSERT_LT(slot.size(), kPageSize);
  slot.resize(kPageSize, '\0');
  std::string back;
  ASSERT_TRUE(Decompress(slot, &back).ok());
  EXPECT_EQ(back, raw);
}

TEST(CompressFrame, EveryTruncationIsCorruption) {
  const std::string raw = CompressibleBytes(2048, 13);
  for (Codec codec : {Codec::kNone, Codec::kLz, Codec::kIntDelta}) {
    const std::string frame =
        Compress(codec, codec == Codec::kIntDelta ? raw.substr(0, 2040) : raw);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::string truncated = frame.substr(0, cut);
      std::string out;
      Status st = Decompress(truncated, &out);
      EXPECT_TRUE(st.IsCorruption())
          << "codec " << static_cast<int>(codec) << " cut at " << cut
          << " -> " << st.ToString();
    }
  }
}

TEST(CompressFrame, EveryBitFlipIsCorruptionOrDetectedByChecksum) {
  // A flip in the magic makes it not-a-frame; anywhere else the
  // checksum, which covers the header as well as the payload, catches
  // it. So no single flipped bit decodes, not even to the right bytes,
  // and none crashes.
  const std::string raw = CompressibleBytes(1024, 99);
  for (Codec codec : {Codec::kNone, Codec::kLz, Codec::kIntDelta}) {
    const std::string frame = Compress(codec, raw);
    for (size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = frame;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        std::string out;
        EXPECT_TRUE(Decompress(flipped, &out).IsCorruption())
            << "codec " << static_cast<int>(codec) << " flip at byte "
            << byte << " bit " << bit;
      }
    }
  }
}

TEST(CompressFrame, RewrittenHeaderIsCorruption) {
  // A kLz frame relabelled kNone, with raw_size set to its payload size;
  // payload and checksum untouched. With a checksum over the payload
  // alone this decoded Ok, to the LZ token stream instead of the page.
  const std::string page = CompressibleBytes(kPageSize, 7);
  std::string frame = Compress(Codec::kLz, page);
  const uint32_t payload_size =
      static_cast<uint32_t>(frame.size() - kFrameHeaderSize);
  frame[4] = static_cast<char>(Codec::kNone);
  for (size_t b = 0; b < 4; ++b) {
    frame[5 + b] = static_cast<char>(payload_size >> (8 * b));
  }
  std::string out;
  EXPECT_TRUE(Decompress(frame, &out).IsCorruption());
}

TEST(CompressFrame, LegacyFramesStillDecode) {
  // Checkpoint slots written by older builds keep kLegacyFrameMagic.
  std::string raw;
  for (int i = 0; i < 8; ++i) raw += "download lineage ";
  const std::string payload("\xff\x02" "download lineage " "\x11\x00\x64",
                            22);
  const std::string frame = LegacyFrame(Codec::kLz, 136, payload);
  // Byte for byte what an older build's Compress(kLz, raw) returned.
  EXPECT_EQ(frame, std::string("\x46\x43\x50\x42\x01\x88\x00\x00\x00"
                               "\x16\x00\x00\x00\xa8\x61\x99\x81\x2e"
                               "\x55\x53\xb5",
                               kFrameHeaderSize) +
                       payload);
  ASSERT_TRUE(LooksLikeFrame(frame));
  auto info = Inspect(frame);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->raw_size, raw.size());
  EXPECT_EQ(info->stored_size, frame.size());
  std::string out;
  ASSERT_TRUE(Decompress(frame, &out).ok());
  EXPECT_EQ(out, raw);
  // Zero-padded to a slot, as the checkpointer stored it.
  std::string slot = frame;
  slot.resize(kPageSize, '\0');
  ASSERT_TRUE(Decompress(slot, &out).ok());
  EXPECT_EQ(out, raw);

  std::string flipped = frame;
  flipped[kFrameHeaderSize + 5] ^= 0x01;
  EXPECT_TRUE(Decompress(flipped, &out).IsCorruption());

  // The legacy header is not checksummed: a raw_size the payload cannot
  // encode is rejected before anything is sized from it.
  EXPECT_TRUE(
      Decompress(LegacyFrame(Codec::kLz, UINT32_MAX, payload), &out)
          .IsCorruption());
  EXPECT_TRUE(
      Decompress(LegacyFrame(Codec::kIntDelta, UINT32_MAX - 7, payload), &out)
          .IsCorruption());
}

TEST(CompressFrame, CompressWritesOnlyTheCurrentMagic) {
  for (Codec codec : {Codec::kNone, Codec::kLz, Codec::kIntDelta}) {
    const std::string frame = Compress(codec, std::string(64, 'x'));
    util::Reader r(frame);
    EXPECT_EQ(r.ReadU32(), kFrameMagic);
  }
}

TEST(CompressFrame, AdversarialPayloadsNeverReadOutOfBounds) {
  // Hand-build frames whose payloads lie about lengths/offsets: the LZ
  // decoder must reject them all. We forge valid checksums so decode
  // reaches the payload parser.
  auto forge = [](std::string_view payload, uint32_t raw_size) {
    // The checksum covers the header, so it is recomputed as
    // storage/compress.hpp defines it.
    util::Writer w;
    w.PutU32(kFrameMagic);
    w.PutU8(static_cast<uint8_t>(Codec::kLz));
    w.PutU32(raw_size);
    w.PutU32(static_cast<uint32_t>(payload.size()));
    w.PutU64(util::Xxh64(payload, util::Xxh64(w.data())));
    w.PutRaw(payload);
    return std::move(w).data();
  };
  std::string out;
  // A well-formed forged frame decodes: the forgeries below reach the
  // payload parser rather than failing the checksum.
  ASSERT_TRUE(Decompress(forge("\x30" "abc", 3), &out).ok());
  EXPECT_EQ(out, "abc");
  // Token promises 15+ext literals but payload ends.
  EXPECT_TRUE(Decompress(forge("\xf0", 64), &out).IsCorruption());
  // Match offset 0 (self-reference before any output).
  EXPECT_TRUE(
      Decompress(forge(std::string("\x04head\x00\x00", 7), 64), &out)
          .IsCorruption());
  // Offset larger than produced output.
  EXPECT_TRUE(
      Decompress(forge(std::string("\x14hello\xff\xff", 8), 64), &out)
          .IsCorruption());
  // Literal run larger than raw_size.
  const std::string huge_run =
      std::string("\xf0\xff\xff\xff") + std::string(1, '\0') + "abc";
  EXPECT_TRUE(Decompress(forge(huge_run, 8), &out).IsCorruption());
  // Unknown codec id.
  std::string frame = Compress(Codec::kNone, "abc");
  frame[4] = 7;
  EXPECT_TRUE(Decompress(frame, &out).IsCorruption());
  // Empty input / short header.
  EXPECT_TRUE(Decompress("", &out).IsCorruption());
  EXPECT_TRUE(Decompress("FCPB", &out).IsCorruption());
  EXPECT_FALSE(LooksLikeFrame(""));
}

TEST(CompressFrame, RawPagesNeverMistakenForFrames) {
  // Raw B-tree pages start with type byte 1/2/3; freelist pages with a
  // u32 page id. The magic's low byte is 0x46, so only a real frame
  // matches.
  for (uint8_t type : {1, 2, 3}) {
    std::string page(kPageSize, '\0');
    page[0] = static_cast<char>(type);
    EXPECT_FALSE(LooksLikeFrame(page));
  }
}

TEST(DeltaPairs, RoundTripAndHardening) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  uint64_t key = 5;
  for (int i = 0; i < 1000; ++i) {
    key += 1 + (i % 17);
    pairs.emplace_back(key, static_cast<uint64_t>(i % 9 + 1));
  }
  const std::string blob = EncodeDeltaPairs(pairs);
  std::vector<std::pair<uint64_t, uint64_t>> back;
  ASSERT_TRUE(DecodeDeltaPairs(blob, &back).ok());
  EXPECT_EQ(back, pairs);

  // Every truncation is Corruption.
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_TRUE(DecodeDeltaPairs(blob.substr(0, cut), &back).IsCorruption());
  }
  // A count that the payload cannot back is rejected before reserve().
  std::string lying = "\xff\xff\xff\xff\x0f";  // count ~2^32, no payload
  EXPECT_TRUE(DecodeDeltaPairs(lying, &back).IsCorruption());
  // Trailing garbage is rejected.
  std::string trailing = blob + "x";
  EXPECT_TRUE(DecodeDeltaPairs(trailing, &back).IsCorruption());
  // Empty list round-trips.
  ASSERT_TRUE(DecodeDeltaPairs(EncodeDeltaPairs({}), &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(Policy, RatioFloorFiltersIncompressible) {
  CompressionOptions on;
  on.mode = CompressionOptions::Mode::kFast;
  // Compressible page -> a frame comes back, smaller than the floor.
  const std::string page = CompressibleBytes(kPageSize, 4);
  std::string frame = MaybeCompressPage(on, page);
  ASSERT_FALSE(frame.empty());
  EXPECT_LE(frame.size(),
            static_cast<size_t>(on.ratio_floor * kPageSize));
  std::string back;
  ASSERT_TRUE(Decompress(frame, &back).ok());
  EXPECT_EQ(back, page);
  // Random page -> stored raw.
  EXPECT_TRUE(MaybeCompressPage(on, RandomBytes(kPageSize, 5)).empty());
  // Disabled -> always raw.
  CompressionOptions off;
  off.mode = CompressionOptions::Mode::kOff;
  EXPECT_TRUE(MaybeCompressPage(off, page).empty());
}

}  // namespace
}  // namespace bp::storage::compress
