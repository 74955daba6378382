#include "wal/wal_reader.hpp"

#include <utility>

#include "util/hash.hpp"
#include "util/serde.hpp"

namespace bp::wal {

using storage::File;
using storage::kPageSize;
using util::Reader;
using util::Result;
using util::Status;

Result<WalContents> WalReader::ReadCommitted(Env* env,
                                             const std::string& path) {
  if (!env->Exists(path)) return Status::NotFound("no wal: " + path);
  BP_ASSIGN_OR_RETURN(std::unique_ptr<File> file, env->Open(path));
  BP_ASSIGN_OR_RETURN(uint64_t size, file->Size());

  WalContents out;
  if (size < kWalFileHeaderBytes) {
    // Crash before even the header landed; an empty log.
    out.torn_tail = size > 0;
    return out;
  }

  std::string raw;
  BP_RETURN_IF_ERROR(file->Read(0, size, &raw));
  Reader header(std::string_view(raw).substr(0, kWalFileHeaderBytes));
  uint32_t magic = header.ReadU32();
  uint32_t version = header.ReadU32();
  uint32_t page_size = header.ReadU32();
  header.ReadU64();  // salt (fixed; chain seeds from kWalSalt)
  uint32_t stream_id = header.ReadU32();
  header.ReadU64();  // base_seq (informational)
  if (magic != kWalMagic ||
      (version != kWalVersion && version != kWalVersionFnv) ||
      page_size != kPageSize) {
    return Status::Corruption("bad wal header: " + path);
  }
  // See wal_format.hpp: the version names the chain function.
  uint64_t (*const chain_checksum)(std::string_view, uint64_t) =
      version == kWalVersion ? util::Xxh64 : util::Fnv1a64;
  out.valid_bytes = kWalFileHeaderBytes;

  // Page images of the transaction currently being scanned; promoted to
  // out.pages when (and only when) its commit frame validates.
  std::map<PageId, std::string> pending;
  uint64_t chain = kWalSalt;
  uint64_t expected_lsn = 1;
  size_t pos = kWalFileHeaderBytes;
  while (pos < raw.size()) {
    size_t remaining = raw.size() - pos;
    if (remaining < kWalFrameHeaderBytes + kWalFrameTrailerBytes) {
      out.torn_tail = true;
      break;
    }
    Reader r(std::string_view(raw).substr(pos));
    uint8_t type = r.ReadU8();
    uint8_t stream = r.ReadU8();
    PageId page_id = r.ReadU32();
    uint64_t lsn = r.ReadU64();
    uint32_t payload_len = r.ReadU32();
    size_t frame_bytes = FrameBytes(payload_len);
    bool shape_ok =
        remaining >= frame_bytes && lsn == expected_lsn &&
        stream == static_cast<uint8_t>(stream_id) &&
        ((type == static_cast<uint8_t>(FrameType::kPageImage) &&
          payload_len == kPageSize) ||
         (type == static_cast<uint8_t>(FrameType::kCommit) &&
          payload_len == kWalCommitPayloadBytes));
    if (!shape_ok) {
      out.torn_tail = true;
      break;
    }
    std::string_view payload = r.ReadRaw(payload_len);
    uint64_t stored_checksum = r.ReadU64();
    std::string_view body(raw.data() + pos,
                          kWalFrameHeaderBytes + payload_len);
    uint64_t computed = chain_checksum(body, chain);
    if (!r.ok() || computed != stored_checksum) {
      out.torn_tail = true;
      break;
    }

    chain = computed;
    expected_lsn = lsn + 1;
    ++out.frames;
    pos += frame_bytes;
    out.valid_bytes = pos;

    if (type == static_cast<uint8_t>(FrameType::kPageImage)) {
      pending[page_id] = std::string(payload);
    } else {
      Reader c(payload);
      out.last_commit_seq = c.ReadU64();
      out.last_page_count = c.ReadU32();
      for (auto& [id, image] : pending) {
        out.pages[id] = std::move(image);
      }
      pending.clear();
      ++out.commits;
    }
  }
  // `pending` — page images whose commit frame never landed — is dropped:
  // that transaction did not happen.
  return out;
}

}  // namespace bp::wal
