// On-disk format of the write-ahead log.
//
// A database owns one WAL, <db path>.wal: a sequential, checksummed redo
// log with its own LSN sequence and chained checksum. A committing
// transaction appends one kPageImage frame per dirty page followed by a
// kCommit frame in a single File::Write; durability costs at most one
// fsync per commit (and, with group commit, one fsync per *window* of
// transactions).
//
// Layout:
//   file header:  magic u32 | version u32 | page_size u32 | salt u64 |
//                 stream_id u32 | base_seq u64
//   frame header: type u8 | stream u8 | page_id u32 | lsn u64 |
//                 payload_len u32
//   frame:        header | payload bytes | checksum u64
//
// The checksum is XXH64 (util/hash.hpp) over the frame header +
// payload, *seeded with the previous frame's checksum* (the first frame
// is seeded with the file header's salt). Chaining means a frame only
// validates if every frame before it validated, so a reader can treat
// the first bad or torn frame as the end of the log — exactly the
// property crash recovery needs: a crash at any byte boundary leaves a
// valid committed prefix.
//
// Version 3 is the only version written. Version 2 has the same layout,
// byte for byte, but chains FNV-1a (util::Fnv1a64) instead of XXH64; the
// reader still accepts it, picking the chain function from the header,
// so a log an older build left behind after a crash still recovers. The
// recovered log is folded and replaced by a version 3 one at Open.
//
// kCommit frames carry (commit_seq u64, page_count u32). `base_seq`
// records the commit sequence the main database file already contained
// when the log was (re)created. The stream id fields are always
// kWalStreamId; the per-frame stream byte must match the header's, and
// a frame that does not ends the log like any other corruption.
//
// Page images that are not followed by a commit frame belong to a
// transaction whose fsync never completed; recovery ignores them.
#pragma once

#include <cstdint>

#include "storage/page.hpp"

namespace bp::wal {

constexpr uint32_t kWalMagic = 0x4250574c;  // "BPWL"
constexpr uint32_t kWalVersion = 3;         // 3: XXH64 frame chain
constexpr uint32_t kWalVersionFnv = 2;      // read only: FNV-1a chain
constexpr uint32_t kWalStreamId = 0;        // the one stream

// Fixed seed for the first frame's checksum chain. A per-file random salt
// would guard against reading frames from a *previous* WAL incarnation,
// but the log is truncated to its header after every checkpoint, so stale
// frames cannot be observed through this Env API.
constexpr uint64_t kWalSalt = 0x77616c2d73616c74ULL;  // "wal-salt"

constexpr size_t kWalFileHeaderBytes = 4 + 4 + 4 + 8 + 4 + 8;
constexpr size_t kWalFrameHeaderBytes = 1 + 1 + 4 + 8 + 4;
constexpr size_t kWalFrameTrailerBytes = 8;  // checksum

enum class FrameType : uint8_t {
  kPageImage = 1,
  kCommit = 2,
};

// Payload of a kCommit frame: commit_seq u64 | page_count u32.
constexpr size_t kWalCommitPayloadBytes = 8 + 4;

inline constexpr size_t FrameBytes(size_t payload_len) {
  return kWalFrameHeaderBytes + payload_len + kWalFrameTrailerBytes;
}

}  // namespace bp::wal
