// ProvStore: the provenance-aware history store.
//
// Wraps a GraphStore with the browser-provenance schema (prov/schema.hpp)
// and maintains its invariants during ingestion:
//
//   - Canonical page nodes are deduplicated by URL; under the
//     node-versioning policy every page view adds a fresh kVisit node
//     linked kInstanceOf to its page, and navigation edges connect visit
//     instances — the graph is acyclic by construction because every
//     edge points either at a brand-new node or at a sink-kind canonical
//     node (kPage, kSearchTerm, kDownload).
//   - Under the edge-timestamping policy navigation edges connect
//     canonical page nodes directly and carry a `time` attribute; the
//     structural graph may contain cycles, but no time-respecting walk
//     does (edge times strictly increase along a user's traversal).
//   - Open/close times live on visit nodes (node policy), giving the
//     co-open relation of section 3.2 via an interval index.
//
// Trees are namespaced "prov." so the storage-overhead experiment can
// compare against "places.".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/algo.hpp"
#include "graph/interval_index.hpp"
#include "graph/store.hpp"
#include "prov/schema.hpp"
#include "storage/pager.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace bp::prov {

using graph::NodeId;
using util::TimeMs;

struct ProvOptions {
  VersionPolicy policy = VersionPolicy::kVersionNodes;
  // Section 3.2 ablation: when false, close events are ignored — visits
  // never close, and time-contextual queries degrade exactly the way the
  // paper says Firefox does ("every page is always open").
  bool record_close_times = true;
};

class ProvStore {
 public:
  static util::Result<std::unique_ptr<ProvStore>> Open(storage::Db& db,
                                                       ProvOptions options);

  // A read-only handle on the same provenance store whose every lookup
  // — graph cursors, URL/term indexes, visit intervals — resolves
  // through `snap`: the snapshot-isolated query path (safe on a reader
  // thread while this live store keeps ingesting). Record*/Link* on the
  // returned store are contract violations. The handle carries its own
  // interval-index cache, built lazily from the snapshot and valid for
  // the handle's whole lifetime (a frozen view never invalidates).
  // `snap` and this store must outlive the handle.
  std::unique_ptr<ProvStore> AtSnapshot(const storage::Snapshot& snap) const;
  bool snapshot_bound() const { return bound_trees_.bound(); }

  // Groups many Record*/Link* calls into ONE storage transaction (each
  // call's own AutoTxn composes into it). Capture is bursty — a page
  // load emits several events back to back — and per-event transactions
  // pay the full durability cost every time; a batch pays it once. With
  // the database opened with wal_group_commit > 1, adjacent batches
  // additionally share a single log fsync, which is the cheap
  // sustained-ingest path the paper's capture workload needs.
  //
  //   { prov::ProvStore::IngestBatch batch(*store);
  //     ... store->RecordVisit(...); store->RecordClose(...); ...
  //     BP_RETURN_IF_ERROR(batch.Commit()); }
  //
  // Destruction without Commit rolls the whole batch back. This is also
  // ProvenanceDb's unit of ingestion: each IngestAll chunk and each
  // drained queue batch of its async committer becomes exactly one
  // IngestBatch, so a batch of captured events is all-or-nothing on
  // disk.
  class IngestBatch {
   public:
    explicit IngestBatch(ProvStore& store) : txn_(store.db_.pager()) {}
    util::Status Commit() { return txn_.Commit(); }

   private:
    storage::AutoTxn txn_;
  };

  // ------------------------------------------------------- ingestion
  //
  // RecordVisit returns the node representing this page view: a fresh
  // kVisit node (node policy) or the canonical kPage node (edge policy).
  // `referrer` is the node returned for the causing view (0 = none).
  util::Result<NodeId> RecordVisit(std::string_view url,
                                   std::string_view title, EdgeKind action,
                                   NodeId referrer, TimeMs time,
                                   int64_t tab);

  // Marks the visit closed (tab closed / navigated away). No-op under
  // the edge policy or when record_close_times is off.
  util::Status RecordClose(NodeId visit, TimeMs time);

  // A search issued from `from_visit` (0 if typed into a fresh tab).
  // Creates/updates the canonical term node and a fresh issuance node.
  // Returns the issuance node; link the results page to it with
  // LinkSearchResult.
  util::Result<NodeId> RecordSearch(std::string_view query,
                                    NodeId from_visit, TimeMs time);
  util::Status LinkSearchResult(NodeId search_issue, NodeId results_visit);

  util::Result<NodeId> RecordBookmarkAdd(std::string_view title,
                                         NodeId from_visit, TimeMs time);
  // The visit produced by activating a bookmark.
  util::Status LinkBookmarkClick(NodeId bookmark, NodeId visit);

  util::Result<NodeId> RecordDownload(std::string_view source_url,
                                      std::string_view target_path,
                                      NodeId from_visit, TimeMs time);

  util::Result<NodeId> RecordFormSubmit(std::string_view summary,
                                        NodeId from_visit, TimeMs time);
  util::Status LinkFormResult(NodeId form, NodeId results_visit);

  // ---------------------------------------------------------- lookup
  //
  // All lookups run on the cursor read path; the optional `stats` sink
  // accumulates the rows they touch into a caller's QueryStats.
  util::Result<NodeId> PageForUrl(std::string_view url) const;
  util::Result<NodeId> TermForQuery(std::string_view query) const;

  // Canonical page of a view node. Node policy: follows kInstanceOf;
  // edge policy: identity.
  util::Result<NodeId> PageOfView(NodeId view,
                                  graph::QueryStats* stats = nullptr) const;

  // All visit instances of a page, ascending by node id (== by time).
  // Edge policy: returns {page} itself.
  util::Result<std::vector<NodeId>> ViewsOfPage(
      NodeId page, graph::QueryStats* stats = nullptr) const;

  // Visit nodes whose [open, close) span overlaps the query span (node
  // policy only — the edge policy cannot answer this, which is the
  // point of the E8 ablation). Built lazily; invalidated by ingestion.
  util::Result<const graph::IntervalIndex*> VisitIntervals();

  // ------------------------------------------------------ integrity
  // Node policy: structural acyclicity. Edge policy: every navigation
  // edge carries a time attribute.
  util::Result<bool> CheckInvariants() const;

  graph::GraphStore& graph() { return *graph_; }
  const graph::GraphStore& graph() const { return *graph_; }
  const ProvOptions& options() const { return options_; }

  // Nodes/edges created so far (cheap counters for benches).
  util::Result<uint64_t> NodeCount() const { return graph_->NodeCount(); }
  util::Result<uint64_t> EdgeCount() const { return graph_->EdgeCount(); }

 private:
  ProvStore(storage::Db& db, ProvOptions options)
      : db_(db), options_(options) {}

  util::Result<NodeId> UpsertPage(std::string_view url,
                                  std::string_view title);
  util::Result<NodeId> UpsertTerm(std::string_view query);

  storage::Db& db_;
  ProvOptions options_;
  std::unique_ptr<graph::GraphStore> graph_;
  storage::BTree* url_index_ = nullptr;   // url -> page node
  storage::BTree* term_index_ = nullptr;  // query -> term node
  // Snapshot-bound handles (AtSnapshot): the index pointers above point
  // into this owned storage instead of the Db's live handles.
  storage::BoundTrees bound_trees_;

  // Lazily built visit-interval index. Shared + immutable once built,
  // so AtSnapshot handles can adopt a still-valid live cache instead of
  // re-scanning every visit node per view (ingestion invalidates only
  // the live store's flag; adopters keep their reference).
  std::shared_ptr<const graph::IntervalIndex> interval_cache_;
  bool interval_cache_valid_ = false;
};

}  // namespace bp::prov
