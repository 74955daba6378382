// WalWriter: append side of a database's write-ahead log.
//
// Usage per transaction (driven by the Pager):
//   for each dirty page: offset = writer.AddPage(id, bytes);
//   writer.CommitTxn(commit_seq, page_count);
//   if (group window full) writer.Sync();
//
// AddPage buffers frames in memory; CommitTxn appends the buffered page
// frames plus a commit frame to the file in ONE File::Write call, so a
// commit is a single sequential append. Sync() is separate so the caller
// can coalesce several committed transactions into one fsync (group
// commit). Everything written by CommitTxn is immediately visible to
// ReadPayload (the pager reads evicted pages back out of the log);
// durability, not visibility, is what Sync() adds.
//
// Threading: the append side (AddPage/CommitTxn/AbandonTxn and the size
// accessors) belongs to the pager's single writer thread — enforced one
// layer up by the serialization on ProvenanceDb's writer mutex, the same
// external contract the Pager's own unguarded write-path members rely
// on. Sync(), however, may be called from a DIFFERENT thread than the
// one appending (the ingest committer's group close runs outside that
// writer mutex, while synchronous writers keep appending): CommitTxn
// publishes the committed length with a release store and Sync reads it
// with an acquire load, so a sync covers exactly the commits whose
// Write completed before it started. Concurrent Sync calls must be
// serialized by the caller (the Pager's wal_mu_); synced_bytes_ is only
// touched under that external lock. ReadPayload is const, touches no
// writer-side members, and is made safe by the per-file reader/writer
// lock inside File (see storage/env.hpp) plus the pager's rule that
// checkpoint truncation never runs while a snapshot is live.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "storage/env.hpp"
#include "util/serde.hpp"
#include "wal/wal_format.hpp"

namespace bp::wal {

using storage::Env;
using storage::File;
using storage::PageId;

class WalWriter {
 public:
  // Opens `path`, truncating any previous contents and writing a fresh
  // file header carrying `base_seq` (the commit sequence the main
  // database file already contains). Recovery (wal_reader +
  // checkpointer) must run BEFORE construction; an existing log is
  // assumed already folded into the database file.
  static util::Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                       std::string path,
                                                       uint64_t base_seq = 0);

  // Buffers one page-image frame for the transaction being committed.
  // Returns the file offset the payload will occupy once CommitTxn
  // appends it (valid only if CommitTxn succeeds).
  uint64_t AddPage(PageId id, std::string_view data);

  // Appends the buffered page frames and a commit frame. No fsync.
  util::Status CommitTxn(uint64_t commit_seq, uint32_t page_count);

  // Drops the buffered frames and restores the checksum chain and LSN
  // counter to the last committed frame. The pager calls it when
  // CommitTxn fails, so the next transaction appends after the last
  // commit.
  void AbandonTxn();

  // Fsyncs the file if any bytes were committed since the last sync.
  // Returns the number of bytes this call made durable (0 = no-op).
  // Callable from a non-append thread (see header comment); concurrent
  // Syncs must be serialized by the caller.
  util::Result<uint64_t> Sync();

  // Truncates to a fresh file header carrying `base_seq` after a
  // checkpoint folded the log into the database file. Resets the
  // checksum chain and LSN counter. Append-thread only, and never
  // concurrent with Sync (the pager holds wal_mu_ across a checkpoint).
  util::Status ResetToHeader(uint64_t base_seq);

  // Reads `n` payload bytes at `offset` (as returned by AddPage).
  // Thread-safe against concurrent CommitTxn appends (File::Read at
  // already-written offsets; see storage/env.hpp) — this is how
  // snapshots read pinned frames while the writer keeps logging. NOT
  // safe against ResetToHeader, which truncates; the pager only
  // checkpoints when no snapshot is live.
  util::Status ReadPayload(uint64_t offset, size_t n, std::string* out) const;

  // Total file bytes (header + appended frames). Append-thread only.
  uint64_t SizeBytes() const { return file_bytes_; }
  uint64_t bytes_since_sync() const {
    return file_bytes_ - synced_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t next_lsn() const { return next_lsn_; }
  // Committed (appended) file length, header included. Thread-safe.
  uint64_t committed_bytes() const {
    return committed_bytes_.load(std::memory_order_relaxed);
  }

 private:
  WalWriter(std::unique_ptr<File> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  void AppendFrame(FrameType type, PageId page_id, std::string_view payload);
  util::Status WriteHeader(uint64_t base_seq);

  std::unique_ptr<File> file_;
  std::string path_;
  util::Writer buffer_;      // frames of the in-flight transaction
  uint64_t file_bytes_ = 0;  // committed file length (append thread)
  // Committed file length as published to Sync: stored with release
  // order after the File::Write of each commit, loaded with acquire by
  // Sync — possibly on another thread.
  std::atomic<uint64_t> committed_bytes_{0};
  // File length at last fsync. Only touched by Sync/ResetToHeader,
  // serialized by the caller (wal_mu_ / checkpoint exclusivity);
  // atomic so bytes_since_sync() on the append thread reads tear-free.
  std::atomic<uint64_t> synced_bytes_{0};
  uint64_t next_lsn_ = 1;
  uint64_t chain_checksum_ = kWalSalt;    // durable chain state
  uint64_t pending_checksum_ = kWalSalt;  // chain incl. buffered frames
  uint64_t pending_lsn_ = 1;
};

}  // namespace bp::wal
