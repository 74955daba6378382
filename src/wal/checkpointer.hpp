// Checkpointer: folds the committed contents of the write-ahead log
// back into the main database file.
//
// Protocol (both call sites follow it; Fold only does step 2):
//   1. The caller makes sure the log is durable (WalWriter::Sync) — the
//      log must always be AHEAD of the database file, otherwise a crash
//      could leave the database holding pages from a transaction the log
//      does not know committed. (During open-time crash recovery there
//      is nothing to sync: whatever survived IS the log.)
//   2. Fold() writes the latest committed image of every page in the
//      log into the database file, then fsyncs it (when sync=true; a
//      caller that wants to append its own header patch to the same
//      fsync passes sync=false and syncs the db file itself).
//   3. The caller retires the log (WalWriter::ResetToHeader at runtime,
//      Env::Remove during open-time recovery) — only AFTER the fold is
//      durable. A crash between 2 and 3 is harmless: folding is
//      idempotent, and the next open refolds.
//
// Used at two points: Pager::Open (crash recovery = a fold of whatever
// committed prefix survives) and at runtime when the log crosses the
// size threshold or the pager closes cleanly.
#pragma once

#include <cstdint>
#include <string>

#include "storage/compress.hpp"
#include "storage/env.hpp"
#include "wal/wal_reader.hpp"

namespace bp::wal {

struct CheckpointResult {
  bool ran = false;  // false: no log / no committed frames
  uint64_t pages_folded = 0;
  uint64_t bytes_written = 0;
  uint64_t commits = 0;          // committed transactions folded
  uint64_t last_commit_seq = 0;  // highest commit sequence folded
  uint32_t page_count = 0;       // database page count after the fold
  bool synced_db = false;
  // Compression accounting (zero when folding uncompressed): pages
  // whose slot got a compressed frame, the physical frame bytes those
  // slots hold, and the raw page bytes they replace.
  uint64_t pages_compressed = 0;
  uint64_t compressed_bytes = 0;
  uint64_t raw_bytes_replaced = 0;
};

class Checkpointer {
 public:
  // Folds committed frames of the log at `wal_path` into
  // `db_file` (step 2 above). When `compression` is enabled, eligible
  // pages (never page 0 — the header is read before any decoder exists)
  // are folded as self-describing compressed frames, zero-padded to the
  // page slot; incompressible pages (ratio floor) stay raw. Folding is
  // still idempotent: refolding the same images rewrites byte-identical
  // slots.
  static util::Result<CheckpointResult> Fold(
      Env* env, storage::File* db_file, const std::string& wal_path,
      bool sync, const storage::compress::CompressionOptions& compression =
                     storage::compress::CompressionOptions{
                         storage::compress::CompressionOptions::Mode::kOff});
};

}  // namespace bp::wal
