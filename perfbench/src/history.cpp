#include <variant>

#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

// The simulator starts a new session at least five minutes after the
// previous one ended, and a dwell inside a session that long has
// probability e^-12, so an idle gap this long is a session boundary.
constexpr bp::util::TimeMs kSessionGap = bp::util::Minutes(5);

}  // namespace

std::vector<History> MakeHistories(uint64_t seed, uint32_t days,
                                   size_t users) {
  bp::util::Rng rng(seed);
  const bp::sim::Vocabulary vocab = bp::sim::Vocabulary::Create(rng, {});
  const bp::sim::WebGraph web = bp::sim::WebGraph::Generate(rng, {}, vocab);
  std::vector<History> histories(users);
  for (size_t u = 0; u < users; ++u) {
    bp::sim::UserConfig user;
    user.seed = seed + 1 + u;
    user.days = days;
    History& h = histories[u];
    h.out = bp::sim::BrowserSim(web, user).Run();
    const auto& events = h.out.events;
    h.bounds.push_back(0);
    for (size_t i = 1; i < events.size(); ++i) {
      if (bp::capture::EventTime(events[i]) -
              bp::capture::EventTime(events[i - 1]) >=
          kSessionGap) {
        h.bounds.push_back(i);
      }
    }
    h.bounds.push_back(events.size());
  }
  return histories;
}

History MakeHistory(uint64_t seed, uint32_t days) {
  return std::move(MakeHistories(seed, days, 1).front());
}

std::string History::SessionQuery(size_t session) const {
  const auto& events = out.events;
  std::string title;
  for (size_t i = bounds[session + 1]; i-- > 0;) {
    const auto* search = std::get_if<bp::capture::SearchEvent>(&events[i]);
    if (search != nullptr) return search->query;
    const auto* visit = std::get_if<bp::capture::VisitEvent>(&events[i]);
    if (visit != nullptr && title.empty() && i >= bounds[session]) {
      title = visit->title;
    }
  }
  return title;
}

uint32_t DaysFor(size_t sessions) {
  const double per_day = bp::sim::UserConfig{}.sessions_per_day;
  return static_cast<uint32_t>(static_cast<double>(sessions) / per_day * 1.2) +
         10;
}

bp::prov::ProvenanceDb::Options DbOptions(bool compress) {
  return DbOptions(compress, bp::prov::ProvenanceDb::Options().db.pool_bytes);
}

bp::prov::ProvenanceDb::Options DbOptions(bool compress, size_t pool_bytes) {
  bp::prov::ProvenanceDb::Options options;
  options.db.pool_bytes = pool_bytes;
  options.db.compression.mode =
      compress ? bp::storage::compress::CompressionOptions::Mode::kFast
               : bp::storage::compress::CompressionOptions::Mode::kOff;
  return options;
}

}  // namespace pb
