#include "wal/checkpointer.hpp"

#include "util/serde.hpp"

namespace bp::wal {

using storage::File;
using storage::kPageSize;
using storage::PageId;
using storage::compress::CompressionOptions;
using util::Result;
using util::Status;

namespace {

// Writes one committed page image into its main-file slot, compressed
// when the policy allows. Page 0 (the header) is always written raw:
// Open reads it before any frame decoder is in play. Compressed frames
// are zero-padded to the slot — the file stays a kPageSize array (and
// refolding identical images rewrites byte-identical slots, keeping
// folds idempotent); the saved bytes are the hole-punchable tail,
// tracked in the result counters.
Status WriteImage(File* db_file, PageId id, const std::string& image,
                  const CompressionOptions& compression,
                  CheckpointResult* result) {
  if (id != 0 && compression.enabled()) {
    std::string frame = storage::compress::MaybeCompressPage(compression,
                                                             image);
    if (!frame.empty()) {
      ++result->pages_compressed;
      result->compressed_bytes += frame.size();
      result->raw_bytes_replaced += image.size();
      frame.resize(kPageSize, '\0');
      BP_RETURN_IF_ERROR(db_file->Write(uint64_t{id} * kPageSize, frame));
      ++result->pages_folded;
      result->bytes_written += frame.size();
      return Status::Ok();
    }
  }
  BP_RETURN_IF_ERROR(db_file->Write(uint64_t{id} * kPageSize, image));
  ++result->pages_folded;
  result->bytes_written += image.size();
  return Status::Ok();
}

}  // namespace

Result<CheckpointResult> Checkpointer::Fold(
    Env* env, File* db_file, const std::string& wal_path, bool sync,
    const CompressionOptions& compression) {
  CheckpointResult result;
  auto contents = WalReader::ReadCommitted(env, wal_path);
  if (!contents.ok()) {
    if (contents.status().IsNotFound()) return result;  // nothing to fold
    return contents.status();
  }
  if (contents->commits == 0) return result;

  for (const auto& [id, image] : contents->pages) {
    BP_RETURN_IF_ERROR(WriteImage(db_file, id, image, compression, &result));
  }
  if (sync) {
    BP_RETURN_IF_ERROR(db_file->Sync());
    result.synced_db = true;
  }
  result.ran = true;
  result.commits = contents->commits;
  result.last_commit_seq = contents->last_commit_seq;
  result.page_count = contents->last_page_count;
  return result;
}

}  // namespace bp::wal
