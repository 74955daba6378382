#include "storage/compress.hpp"

#include <cstdlib>
#include <cstring>

#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::storage::compress {

using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

namespace {

// Header bytes the checksum of a kFrameMagic frame covers: magic,
// codec, raw_size and payload_size — everything before the checksum.
constexpr size_t kChecksummedHeaderBytes = kFrameHeaderSize - 8;

// No codec emits more than 255 output bytes per payload byte: an LZ
// run-length byte adds at most 255, a kIntDelta varint byte 8, a kNone
// byte 1. A legacy header's raw_size is unchecked, so it is bounded by
// this before anything is sized from it.
constexpr uint64_t kMaxBytesPerPayloadByte = 255;

// FNV-1a offset basis of kLegacyFrameMagic frames. One digit short of
// the standard 14695981039346656037 (util::Fnv1a64), but every legacy
// frame on disk was checksummed with it: "fixing" it would turn every
// such page into Corruption.
constexpr uint64_t kLegacyFnvOffset = 1469598103934665603ull;

uint64_t LegacyPayloadChecksum(std::string_view payload) {
  uint64_t h = kLegacyFnvOffset;
  for (char c : payload) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Checksum of a kFrameMagic frame; `header` is its first
// kChecksummedHeaderBytes bytes.
uint64_t FrameChecksum(std::string_view header, std::string_view payload) {
  return util::Xxh64(payload, util::Xxh64(header));
}

// --- LZ codec ----------------------------------------------------------
//
// Token stream in the LZ4 style. Each sequence is:
//   token u8: (literal_len nibble << 4) | match_len nibble
//   [255-run extension bytes if literal_len nibble == 15]
//   literal bytes
//   offset u16 LE (1..65535), then [255-run extension if match nibble == 15]
// A match is (match_len nibble + kMinMatch) bytes copied from `offset`
// bytes back in the output, overlap allowed. The final sequence carries
// literals only (decoding stops when raw_size bytes are produced).

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
constexpr uint32_t kHashSize = 1u << kHashBits;

uint32_t ReadLe32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // hash input only; endianness does not matter for hashing
}

uint32_t HashSeq(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

void PutRunLength(std::string& out, size_t extra) {
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xff));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

void EmitSequence(std::string& out, const char* literals, size_t literal_len,
                  size_t match_len, size_t offset) {
  const size_t ml = match_len == 0 ? 0 : match_len - kMinMatch;
  const uint8_t lit_nibble =
      literal_len >= 15 ? 15 : static_cast<uint8_t>(literal_len);
  const uint8_t match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
  out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutRunLength(out, literal_len - 15);
  out.append(literals, literal_len);
  if (match_len != 0) {
    out.push_back(static_cast<char>(offset & 0xff));
    out.push_back(static_cast<char>((offset >> 8) & 0xff));
    if (match_nibble == 15) PutRunLength(out, ml - 15);
  }
}

std::string LzCompress(std::string_view in) {
  std::string out;
  out.reserve(in.size() / 2 + 16);
  const size_t n = in.size();
  if (n < kMinMatch + 1) {
    // Zero-length input encodes as an empty payload: the decoder stops
    // once raw_size bytes exist, so it would never consume a token.
    if (n != 0) EmitSequence(out, in.data(), n, 0, 0);
    return out;
  }
  uint32_t table[kHashSize];
  std::memset(table, 0xff, sizeof(table));  // UINT32_MAX = empty
  const char* base = in.data();
  size_t anchor = 0;
  size_t i = 0;
  const size_t hash_limit = n - kMinMatch;  // last position with 4 bytes
  while (i <= hash_limit) {
    const uint32_t h = HashSeq(ReadLe32(base + i));
    const uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (cand == UINT32_MAX || i - cand > kMaxOffset ||
        std::memcmp(base + cand, base + i, kMinMatch) != 0) {
      ++i;
      continue;
    }
    size_t match_len = kMinMatch;
    while (i + match_len < n && base[cand + match_len] == base[i + match_len]) {
      ++match_len;
    }
    EmitSequence(out, base + anchor, i - anchor, match_len, i - cand);
    i += match_len;
    anchor = i;
  }
  // No final sequence when the input ended exactly on a match — the
  // decoder exits at raw_size and would see the empty token as trailing
  // garbage.
  if (n > anchor) EmitSequence(out, base + anchor, n - anchor, 0, 0);
  return out;
}

// Reads a 255-run extension at in[*pos]: adds bytes until one is
// != 255. False on truncation, or once the value passes `limit` (which
// keeps corrupt extensions from overflowing size arithmetic).
bool ReadRunLength(std::string_view in, size_t* pos, size_t limit,
                   size_t* len) {
  while (true) {
    if (*pos >= in.size()) return false;
    const uint8_t b = static_cast<uint8_t>(in[(*pos)++]);
    *len += b;
    if (*len > limit) return false;
    if (b != 0xff) return true;
  }
}

// Output slack past raw_size: a literal run or match of at most this
// many bytes is copied as one fixed-size block, whose overshoot lands in
// bytes a later copy (or the final resize) replaces.
constexpr size_t kCopyBlock = 16;

Status LzDecompress(std::string_view payload, size_t raw_size,
                    std::string* out) {
  out->resize(raw_size + kCopyBlock);
  char* const dst = out->data();
  size_t op = 0;  // output bytes produced
  size_t ip = 0;  // payload bytes consumed
  while (op < raw_size) {
    if (ip >= payload.size()) {
      return Status::Corruption("lz frame: truncated token");
    }
    const uint8_t token = static_cast<uint8_t>(payload[ip++]);
    size_t literal_len = token >> 4;
    if (literal_len == 15 &&
        !ReadRunLength(payload, &ip, raw_size - op, &literal_len)) {
      return Status::Corruption("lz frame: bad literal run length");
    }
    if (literal_len > raw_size - op) {
      return Status::Corruption("lz frame: literal run exceeds raw size");
    }
    if (literal_len > payload.size() - ip) {
      return Status::Corruption("lz frame: truncated literals");
    }
    if (literal_len <= kCopyBlock && payload.size() - ip >= kCopyBlock) {
      std::memcpy(dst + op, payload.data() + ip, kCopyBlock);
    } else {
      std::memcpy(dst + op, payload.data() + ip, literal_len);
    }
    ip += literal_len;
    op += literal_len;
    if (op == raw_size) break;  // final, literal-only sequence
    if (payload.size() - ip < 2) {
      return Status::Corruption("lz frame: truncated offset");
    }
    const size_t offset = static_cast<uint8_t>(payload[ip]) |
                          (size_t{static_cast<uint8_t>(payload[ip + 1])} << 8);
    ip += 2;
    if (offset == 0 || offset > op) {
      return Status::Corruption("lz frame: match offset out of range");
    }
    size_t match_len = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15 &&
        !ReadRunLength(payload, &ip, raw_size - op, &match_len)) {
      return Status::Corruption("lz frame: bad match run length");
    }
    if (match_len > raw_size - op) {
      return Status::Corruption("lz frame: match exceeds raw size");
    }
    const char* src = dst + op - offset;
    if (offset >= kCopyBlock && match_len <= kCopyBlock) {
      std::memcpy(dst + op, src, kCopyBlock);
    } else if (offset >= match_len) {
      std::memcpy(dst + op, src, match_len);
    } else {
      // Overlapping match: byte order replicates the period.
      for (size_t k = 0; k < match_len; ++k) dst[op + k] = src[k];
    }
    op += match_len;
  }
  if (ip != payload.size()) {
    return Status::Corruption("lz frame: trailing bytes");
  }
  out->resize(raw_size);
  return Status::Ok();
}

// --- integer delta codec over a raw u64 array --------------------------

std::string IntDeltaCompress(std::string_view in) {
  BP_REQUIRE(in.size() % 8 == 0, "kIntDelta raw size must be a multiple of 8");
  Writer w;
  uint64_t prev = 0;
  for (size_t i = 0; i < in.size(); i += 8) {
    uint64_t v;
    std::memcpy(&v, in.data() + i, sizeof(v));
    w.PutSignedVarint64(static_cast<int64_t>(v - prev));
    prev = v;
  }
  return std::move(w).data();
}

Status IntDeltaDecompress(std::string_view payload, size_t raw_size,
                          std::string* out) {
  if (raw_size % 8 != 0) {
    return Status::Corruption("int-delta frame: raw size not a u64 array");
  }
  out->clear();
  out->reserve(raw_size);
  Reader r(payload);
  uint64_t prev = 0;
  for (size_t i = 0; i < raw_size / 8; ++i) {
    prev += static_cast<uint64_t>(r.ReadSignedVarint64());
    if (!r.ok()) return Status::Corruption("int-delta frame: truncated");
    char buf[8];
    uint64_t v = prev;
    for (size_t b = 0; b < 8; ++b) {
      buf[b] = static_cast<char>(v >> (8 * b));
    }
    out->append(buf, sizeof(buf));
  }
  if (!r.AtEnd()) return Status::Corruption("int-delta frame: trailing bytes");
  return Status::Ok();
}

}  // namespace

std::string Compress(Codec codec, std::string_view raw) {
  std::string payload;
  switch (codec) {
    case Codec::kNone:
      payload.assign(raw);
      break;
    case Codec::kLz:
      payload = LzCompress(raw);
      break;
    case Codec::kIntDelta:
      payload = IntDeltaCompress(raw);
      break;
  }
  Writer w;
  w.PutU32(kFrameMagic);
  w.PutU8(static_cast<uint8_t>(codec));
  w.PutU32(static_cast<uint32_t>(raw.size()));
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(FrameChecksum(w.data(), payload));
  std::string frame = std::move(w).data();
  BP_CHECK(frame.size() == kFrameHeaderSize);
  frame += payload;
  return frame;
}

bool LooksLikeFrame(std::string_view data) {
  if (data.size() < kFrameHeaderSize) return false;
  const uint32_t magic = Reader(data).ReadU32();
  return magic == kFrameMagic || magic == kLegacyFrameMagic;
}

Result<FrameInfo> Inspect(std::string_view data) {
  if (data.size() < kFrameHeaderSize) {
    return Status::Corruption("compressed frame: short header");
  }
  if (!LooksLikeFrame(data)) {
    return Status::Corruption("compressed frame: bad magic");
  }
  Reader r(data);
  r.Skip(4);
  const uint8_t codec = r.ReadU8();
  if (codec > static_cast<uint8_t>(Codec::kIntDelta)) {
    return Status::Corruption(
        util::StrFormat("compressed frame: unknown codec %u", codec));
  }
  FrameInfo info;
  info.codec = static_cast<Codec>(codec);
  info.raw_size = r.ReadU32();
  const uint32_t payload_size = r.ReadU32();
  // Header-only peek: the payload need not be present (OnDiskPageBytes
  // reads just the header for accounting). Decompress checks that the
  // payload actually fits before touching it.
  info.stored_size = uint64_t{kFrameHeaderSize} + payload_size;
  return info;
}

Status Decompress(std::string_view data, std::string* out) {
  BP_ASSIGN_OR_RETURN(FrameInfo info, Inspect(data));
  if (info.stored_size > data.size()) {
    return Status::Corruption("compressed frame: payload truncated");
  }
  Reader r(data);
  const bool legacy = r.ReadU32() == kLegacyFrameMagic;
  r.Skip(kChecksummedHeaderBytes - 4);
  const uint64_t checksum = r.ReadU64();
  const std::string_view payload =
      data.substr(kFrameHeaderSize, info.stored_size - kFrameHeaderSize);
  const uint64_t computed =
      legacy ? LegacyPayloadChecksum(payload)
             : FrameChecksum(data.substr(0, kChecksummedHeaderBytes), payload);
  if (computed != checksum) {
    return Status::Corruption("compressed frame: checksum mismatch");
  }
  if (info.raw_size > kMaxBytesPerPayloadByte * payload.size()) {
    return Status::Corruption(util::StrFormat(
        "compressed frame: raw size %u exceeds what %zu payload bytes "
        "can encode",
        info.raw_size, payload.size()));
  }
  switch (info.codec) {
    case Codec::kNone:
      if (payload.size() != info.raw_size) {
        return Status::Corruption("compressed frame: raw size mismatch");
      }
      out->assign(payload);
      return Status::Ok();
    case Codec::kLz:
      return LzDecompress(payload, info.raw_size, out);
    case Codec::kIntDelta:
      return IntDeltaDecompress(payload, info.raw_size, out);
  }
  return Status::Corruption("compressed frame: unknown codec");
}

std::string EncodeDeltaPairs(
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  Writer w;
  w.PutVarint64(pairs.size());
  uint64_t prev = 0;
  for (const auto& [key, value] : pairs) {
    BP_REQUIRE(key >= prev, "EncodeDeltaPairs keys must be non-decreasing");
    w.PutVarint64(key - prev);
    w.PutVarint64(value);
    prev = key;
  }
  return std::move(w).data();
}

Status DecodeDeltaPairs(std::string_view blob,
                        std::vector<std::pair<uint64_t, uint64_t>>* out) {
  out->clear();
  Reader r(blob);
  const uint64_t n = r.ReadVarint64();
  if (!r.ok()) {
    return Status::Corruption("delta pairs: truncated count varint");
  }
  // The count is untrusted until proven payload-backed: each pair is two
  // varints of >= 1 byte each, so a count that two bytes per entry cannot
  // cover is corrupt — reject it BEFORE reserve(n), which would otherwise
  // turn one flipped byte into an unbounded allocation.
  if (n > (blob.size() - r.position()) / 2) {
    return Status::Corruption(util::StrFormat(
        "delta pairs: count %llu exceeds payload capacity (%zu bytes)",
        (unsigned long long)n, blob.size()));
  }
  out->reserve(n);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    prev += r.ReadVarint64();
    const uint64_t value = r.ReadVarint64();
    if (!r.ok()) {
      return Status::Corruption(util::StrFormat(
          "delta pairs: payload truncated at entry %llu of %llu",
          (unsigned long long)i, (unsigned long long)n));
    }
    out->emplace_back(prev, value);
  }
  return r.Finish();
}

CompressionOptions::Mode CompressionOptions::DefaultMode() {
  static const Mode mode = [] {
    const char* env = std::getenv("BP_COMPRESSION");
    if (env == nullptr) return Mode::kOff;
    const std::string_view v(env);
    if (v == "fast" || v == "on" || v == "1") return Mode::kFast;
    return Mode::kOff;
  }();
  return mode;
}

std::string MaybeCompressPage(const CompressionOptions& options,
                              std::string_view page) {
  if (!options.enabled()) return {};
  std::string frame = Compress(Codec::kLz, page);
  const double budget = options.ratio_floor * static_cast<double>(page.size());
  if (static_cast<double>(frame.size()) > budget) return {};
  return frame;
}

}  // namespace bp::storage::compress
