// Persistent inverted index with BM25 / TF-IDF ranking.
//
// This is the textual history-search baseline ("a browser with textual
// history search will return the web search page for rosebud, because
// that page contains the search term in both its title and URL") that
// the provenance-aware algorithms rerank and augment.
//
// Layout (namespaced trees in the shared Db):
//   <ns>.terms : term -> postings blob (varint count, then per entry:
//                delta-varint doc id, varint term frequency)
//   <ns>.docs  : big-endian doc id -> varint token count
//   <ns>.meta  : "stats" -> (varint total docs, varint total tokens)
//                "watermark" -> varint (see watermark())
//
// Writes buffer in memory and merge into the trees on Flush() (documents
// arrive one page visit at a time, but terms repeat heavily; buffering
// turns O(tokens) read-modify-writes into one merge per distinct term).
// Queries flush implicitly. Documents are append-only, matching browser
// history; there is no document deletion.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/db.hpp"
#include "util/status.hpp"

namespace bp::text {

using DocId = uint64_t;

struct Posting {
  DocId doc = 0;
  uint32_t tf = 0;
};

struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

class InvertedIndex {
 public:
  // Opens (creating if needed) the index named `ns` inside `db`.
  static util::Result<std::unique_ptr<InvertedIndex>> Open(storage::Db& db,
                                                           std::string ns);

  // A read-only handle on the same index whose postings, document
  // lengths, and BM25 corpus stats all resolve through `snap` — the
  // snapshot-isolated search path. Documents buffered but not yet
  // Flush()ed at snapshot time are invisible (flush before snapshotting
  // to make them searchable); AddDocument/Flush on the returned handle
  // are contract violations. `snap` must outlive the handle.
  util::Result<std::unique_ptr<InvertedIndex>> AtSnapshot(
      const storage::Snapshot& snap) const;
  bool snapshot_bound() const { return bound_trees_.bound(); }

  // Indexes a document's tokens (use text::Tokenize). A document id must
  // be added at most once; re-adding merges term frequencies.
  util::Status AddDocument(DocId doc, const std::vector<std::string>& tokens);

  // Merges buffered postings into the persistent trees and stores the
  // watermark with them, in one transaction.
  util::Status Flush();

  // How far through its document source the caller has indexed (the
  // HistorySearcher stores the highest node id it scanned). Flush
  // persists it together with the postings it covers, so a rollback
  // reverts watermark and postings together, and a reopened index
  // resumes after the last document its last committed Flush stored.
  // With nothing buffered, Flush writes nothing, so the persisted value
  // may trail the in-memory one by ids that added no documents.
  DocId watermark() const { return watermark_; }
  void set_watermark(DocId watermark) { watermark_ = watermark; }

  // Re-reads the persisted corpus stats and watermark, discarding the
  // cached copies. For callers whose surrounding transaction rolled back
  // after a Flush: the trees reverted, so the cached values must too.
  util::Status ReloadStats() { return LoadStats(); }

  // BM25-ranked disjunctive (OR) search over the query tokens. Returns up
  // to `k` documents, highest score first (ties by doc id).
  util::Result<std::vector<ScoredDoc>> Search(
      const std::vector<std::string>& query_tokens, size_t k);

  // Raw postings access (flushes first). `fn` returns false to stop.
  util::Status ForEachPosting(std::string_view term,
                              const std::function<bool(const Posting&)>& fn);

  // Number of documents containing `term` (flushes first).
  util::Result<uint64_t> DocumentFrequency(std::string_view term);

  util::Result<uint64_t> DocumentCount();

  // Inverse document frequency under BM25+1 smoothing; 0 for unseen terms.
  util::Result<double> Idf(std::string_view term);

  Bm25Params& params() { return params_; }

 private:
  InvertedIndex(storage::Db& db, std::string ns)
      : db_(db), ns_(std::move(ns)) {}

  util::Status LoadStats();
  util::Status SaveStats();

  storage::Db& db_;
  std::string ns_;
  storage::BTree* terms_tree_ = nullptr;
  storage::BTree* docs_tree_ = nullptr;
  storage::BTree* meta_tree_ = nullptr;
  // Snapshot-bound handles (AtSnapshot): the tree pointers above point
  // into this owned storage instead of the Db's live handles.
  storage::BoundTrees bound_trees_;

  // Buffered, not yet flushed: term -> postings (sorted by doc at flush).
  std::map<std::string, std::vector<Posting>, std::less<>> pending_;
  std::map<DocId, uint64_t> pending_doc_lengths_;

  uint64_t total_docs_ = 0;
  uint64_t total_tokens_ = 0;
  DocId watermark_ = 0;
  bool stats_loaded_ = false;
  Bm25Params params_;
};

}  // namespace bp::text
