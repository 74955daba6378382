#include "wal/wal_writer.hpp"

#include "util/hash.hpp"
#include "util/require.hpp"

namespace bp::wal {

using util::Result;
using util::Status;
using util::Writer;

Status WalWriter::WriteHeader(uint64_t base_seq) {
  Writer w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalVersion);
  w.PutU32(storage::kPageSize);
  w.PutU64(kWalSalt);
  w.PutU32(kWalStreamId);
  w.PutU64(base_seq);
  BP_CHECK(w.size() == kWalFileHeaderBytes);
  return file_->Write(0, w.data());
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env, std::string path,
                                                   uint64_t base_seq) {
  BP_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->Open(path));
  BP_RETURN_IF_ERROR(file->Truncate(0));
  std::unique_ptr<WalWriter> writer(
      new WalWriter(std::move(file), std::move(path)));
  BP_RETURN_IF_ERROR(writer->WriteHeader(base_seq));
  writer->file_bytes_ = kWalFileHeaderBytes;
  writer->committed_bytes_.store(kWalFileHeaderBytes,
                                 std::memory_order_relaxed);
  // The header itself is not yet durable.
  writer->synced_bytes_.store(0, std::memory_order_relaxed);
  return writer;
}

void WalWriter::AppendFrame(FrameType type, PageId page_id,
                            std::string_view payload) {
  size_t frame_start = buffer_.size();
  buffer_.PutU8(static_cast<uint8_t>(type));
  buffer_.PutU8(static_cast<uint8_t>(kWalStreamId));
  buffer_.PutU32(page_id);
  buffer_.PutU64(pending_lsn_++);
  buffer_.PutU32(static_cast<uint32_t>(payload.size()));
  buffer_.PutRaw(payload);
  std::string_view body(buffer_.data().data() + frame_start,
                        buffer_.size() - frame_start);
  pending_checksum_ = util::Fnv1a64(body, pending_checksum_);
  buffer_.PutU64(pending_checksum_);
}

uint64_t WalWriter::AddPage(PageId id, std::string_view data) {
  BP_REQUIRE(data.size() == storage::kPageSize,
             "WAL page frames carry whole pages");
  uint64_t payload_offset =
      file_bytes_ + buffer_.size() + kWalFrameHeaderBytes;
  AppendFrame(FrameType::kPageImage, id, data);
  return payload_offset;
}

Status WalWriter::CommitTxn(uint64_t commit_seq, uint32_t page_count) {
  Writer payload;
  payload.PutU64(commit_seq);
  payload.PutU32(page_count);
  AppendFrame(FrameType::kCommit, storage::kNoPage, payload.data());

  BP_RETURN_IF_ERROR(file_->Write(file_bytes_, buffer_.data()));
  file_bytes_ += buffer_.size();
  // Release-publish the new committed length so a Sync on another
  // thread that observes it also observes the File::Write above.
  committed_bytes_.store(file_bytes_, std::memory_order_release);
  chain_checksum_ = pending_checksum_;
  next_lsn_ = pending_lsn_;
  buffer_.Clear();
  return Status::Ok();
}

void WalWriter::AbandonTxn() {
  buffer_.Clear();
  pending_checksum_ = chain_checksum_;
  pending_lsn_ = next_lsn_;
}

Result<uint64_t> WalWriter::Sync() {
  // Snapshot the committed length first: commits that land after this
  // load are NOT counted as durable even if the fsync happens to cover
  // them — conservative, and what the caller's unsynced-commit
  // accounting assumes.
  uint64_t committed = committed_bytes_.load(std::memory_order_acquire);
  uint64_t synced = synced_bytes_.load(std::memory_order_relaxed);
  if (committed == synced) return uint64_t{0};
  BP_RETURN_IF_ERROR(file_->Sync());
  synced_bytes_.store(committed, std::memory_order_relaxed);
  return committed - synced;
}

Status WalWriter::ResetToHeader(uint64_t base_seq) {
  BP_CHECK(buffer_.size() == 0, "checkpoint during a buffered txn");
  BP_RETURN_IF_ERROR(file_->Truncate(0));
  BP_RETURN_IF_ERROR(WriteHeader(base_seq));
  file_bytes_ = kWalFileHeaderBytes;
  committed_bytes_.store(file_bytes_, std::memory_order_relaxed);
  // The rewritten header is not durable yet; force the next Sync to
  // fsync it.
  synced_bytes_.store(0, std::memory_order_relaxed);
  chain_checksum_ = kWalSalt;
  pending_checksum_ = kWalSalt;
  next_lsn_ = 1;
  pending_lsn_ = 1;
  return Status::Ok();
}

Status WalWriter::ReadPayload(uint64_t offset, size_t n,
                              std::string* out) const {
  return file_->Read(offset, n, out);
}

}  // namespace bp::wal
