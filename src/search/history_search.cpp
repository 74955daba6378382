#include "search/history_search.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/algo.hpp"
#include "text/tokenizer.hpp"
#include "util/require.hpp"

namespace bp::search {

using graph::AttrMap;
using graph::Edge;
using graph::Node;
using prov::EdgeKind;
using prov::NodeKind;
using util::Result;
using util::Status;

Result<std::unique_ptr<HistorySearcher>> HistorySearcher::Open(
    storage::Db& db, prov::ProvStore& store) {
  std::unique_ptr<HistorySearcher> searcher(
      new HistorySearcher(db, store));
  BP_ASSIGN_OR_RETURN(searcher->index_,
                      text::InvertedIndex::Open(db, "textindex"));
  BP_RETURN_IF_ERROR(searcher->IndexNewPages());
  return searcher;
}

Result<std::unique_ptr<HistorySearcher>> HistorySearcher::AtSnapshot(
    const storage::Snapshot& snap, prov::ProvStore& bound_store) const {
  BP_REQUIRE(bound_store.snapshot_bound(),
             "AtSnapshot needs the matching snapshot-bound ProvStore");
  std::unique_ptr<HistorySearcher> view(
      new HistorySearcher(db_, bound_store));
  BP_ASSIGN_OR_RETURN(view->index_, index_->AtSnapshot(snap));
  view->bound_ = true;
  return view;
}

Status HistorySearcher::IndexNewPages() {
  BP_REQUIRE(!bound_, "IndexNewPages on a snapshot-bound searcher");
  // Canonical page nodes carry url+title; node ids ascend, so the cursor
  // seeks straight to the first node past the watermark instead of
  // scanning (and skipping) everything below it.
  NodeId high = index_->watermark();
  graph::NodeCursor cur = store_.graph().Nodes(high + 1);
  for (; cur.Valid(); cur.Next()) {
    high = std::max(high, cur.node().id());
    if (cur.node().kind() != static_cast<uint32_t>(NodeKind::kPage)) {
      continue;
    }
    BP_ASSIGN_OR_RETURN(graph::AttrMap attrs, cur.node().attrs());
    std::string doc(attrs.StringOr(prov::kAttrUrl, ""));
    doc += ' ';
    doc += attrs.StringOr(prov::kAttrTitle, "");
    BP_RETURN_IF_ERROR(
        index_->AddDocument(cur.node().id(), text::Tokenize(doc)));
  }
  BP_RETURN_IF_ERROR(cur.status());
  index_->set_watermark(high);
  return index_->Flush();
}

Result<RankedPage> HistorySearcher::MakeRankedPage(
    NodeId page_node, graph::QueryStats* stats) const {
  BP_ASSIGN_OR_RETURN(graph::NodeRef node,
                      store_.graph().GetNodeRef(page_node, stats));
  BP_ASSIGN_OR_RETURN(graph::AttrMap attrs, node.attrs());
  RankedPage page;
  page.page = page_node;
  page.url = std::string(attrs.StringOr(prov::kAttrUrl, ""));
  page.title = std::string(attrs.StringOr(prov::kAttrTitle, ""));
  return page;
}

Result<ContextualSearchResult> HistorySearcher::TextualSearch(
    const std::string& query, size_t k) {
  BP_ASSIGN_OR_RETURN(std::vector<text::ScoredDoc> docs,
                      index_->Search(text::Tokenize(query), k));
  ContextualSearchResult result;
  for (const text::ScoredDoc& doc : docs) {
    BP_ASSIGN_OR_RETURN(RankedPage page,
                        MakeRankedPage(doc.doc, &result.stats));
    page.text_score = doc.score;
    page.total = doc.score;
    result.pages.push_back(std::move(page));
  }
  return result;
}

Result<ContextualSearchResult> HistorySearcher::ContextualSearch(
    const std::string& query, const ContextualSearchOptions& options) {
  std::vector<std::string> tokens = text::Tokenize(query);

  // Stage 1: textual seeds (canonical pages).
  BP_ASSIGN_OR_RETURN(std::vector<text::ScoredDoc> docs,
                      index_->Search(tokens, options.text_seeds));
  std::vector<std::pair<NodeId, double>> seeds;
  std::unordered_map<NodeId, double> text_scores;
  for (const text::ScoredDoc& doc : docs) {
    seeds.push_back({doc.doc, doc.score});
    text_scores[doc.doc] = doc.score;
  }

  // Stage 1b: matching search-term nodes are seeds too — the query the
  // user once typed is in the lineage of what it produced.
  for (const std::string& token : tokens) {
    auto term = store_.TermForQuery(token);
    if (term.ok()) {
      seeds.push_back({*term, 1.0});
    } else if (!term.status().IsNotFound()) {
      return term.status();
    }
  }
  // Multi-token queries may exist as full term nodes ("plane tickets").
  if (tokens.size() > 1) {
    auto term = store_.TermForQuery(query);
    if (term.ok()) {
      seeds.push_back({*term, 1.5});
    } else if (!term.status().IsNotFound()) {
      return term.status();
    }
  }

  // Stage 2: spread relevance through the provenance neighborhood.
  graph::EdgeFilter filter;
  if (options.unify_automatic_edges) {
    filter = [](const graph::EdgeRef& edge) {
      return !prov::IsAutomaticEdge(static_cast<EdgeKind>(edge.kind()));
    };
  }
  BP_ASSIGN_OR_RETURN(
      graph::DecayExpansion expansion,
      graph::ExpandWithDecay(store_.graph(), seeds, options.expand_depth,
                             options.decay, filter, options.budget));

  ContextualSearchResult result;
  result.truncated = expansion.truncated;
  result.stats = expansion.stats;

  // Stage 3: fold weights onto canonical pages and blend. Lazy node refs
  // keep this cheap: only the kind is decoded unless the node is a page
  // we actually rank.
  std::unordered_map<NodeId, double> page_prov;
  for (const auto& [node_id, weight] : expansion.weights) {
    BP_ASSIGN_OR_RETURN(graph::NodeRef node,
                        store_.graph().GetNodeRef(node_id, &result.stats));
    NodeId page = 0;
    if (node.kind() == static_cast<uint32_t>(NodeKind::kPage)) {
      page = node_id;
    } else if (node.kind() == static_cast<uint32_t>(NodeKind::kVisit)) {
      auto canonical = store_.PageOfView(node_id, &result.stats);
      if (canonical.ok()) page = *canonical;
    }
    if (page != 0) page_prov[page] += weight;
  }

  for (const auto& [page_id, prov_score] : page_prov) {
    BP_ASSIGN_OR_RETURN(RankedPage page,
                        MakeRankedPage(page_id, &result.stats));
    auto text_it = text_scores.find(page_id);
    page.text_score = text_it == text_scores.end() ? 0.0 : text_it->second;
    page.prov_score = prov_score;
    page.total = page.text_score + options.prov_weight * page.prov_score;
    result.pages.push_back(std::move(page));
  }
  std::sort(result.pages.begin(), result.pages.end(),
            [](const RankedPage& a, const RankedPage& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.page < b.page;
            });
  if (result.pages.size() > options.k) result.pages.resize(options.k);
  return result;
}

}  // namespace bp::search
