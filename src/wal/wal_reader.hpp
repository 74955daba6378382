// WalReader: scan side of the write-ahead log, used by crash recovery
// and the checkpointer.
//
// The reader walks frames from the start of the file, verifying the
// chained checksum, and STOPS at the first invalid frame — torn tail,
// bad checksum, wrong stream byte, or garbage. Everything after that
// point is treated as if it were never written (it is a crashed
// append). Page images are only surfaced once their transaction's
// kCommit frame has validated; trailing images with no commit frame are
// discarded. A scan yields the log's committed state: the latest
// committed image of every page it holds.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "storage/env.hpp"
#include "wal/wal_format.hpp"

namespace bp::wal {

using storage::Env;
using storage::PageId;

// The committed state recovered from a log scan.
struct WalContents {
  // Latest committed image of every page present in the log.
  std::map<PageId, std::string> pages;
  uint64_t last_commit_seq = 0;
  uint32_t last_page_count = 0;
  uint64_t commits = 0;
  uint64_t frames = 0;       // valid frames, committed or not
  uint64_t valid_bytes = 0;  // header + every validated frame
  bool torn_tail = false;    // scan stopped before end-of-file
};

class WalReader {
 public:
  // Scans <path>. Returns NotFound when the file does not exist, and
  // Corruption only when the FILE HEADER is malformed (a bad header means
  // this is not a WAL we wrote; a bad frame is an expected crash artifact
  // and just ends the scan with torn_tail=true).
  static util::Result<WalContents> ReadCommitted(Env* env,
                                                 const std::string& path);
};

}  // namespace bp::wal
