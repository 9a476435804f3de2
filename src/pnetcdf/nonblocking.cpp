#include "pnetcdf/nonblocking.hpp"

#include <algorithm>

#include "iostat/observe.hpp"

namespace pnetcdf {

pnc::Status NonblockingQueue::WaitAll(std::vector<pnc::Status>* per_request) {
  PNC_OBSERVE(kReqsCoalesced, .n = puts_.size() + gets_.size());
  // Collective on the dataset's communicator: every rank runs the combined
  // put phase and the combined get phase exactly once, pending or not.
  std::vector<Dataset::BatchItem> put_items;
  put_items.reserve(puts_.size());
  for (auto& r : puts_)
    put_items.push_back({r.varid, r.start, r.count, r.ext});
  const pnc::Status ws = ds_.BatchAccess(put_items, /*is_write=*/true);

  std::vector<Dataset::BatchItem> get_items;
  get_items.reserve(gets_.size());
  for (auto& r : gets_)
    get_items.push_back({r.varid, r.start, r.count, r.ext});
  const pnc::Status rs = ds_.BatchAccess(get_items, /*is_write=*/false);

  // Deliver reads (type conversion into the user buffers).
  std::vector<std::pair<RequestId, pnc::Status>> statuses;
  statuses.reserve(puts_.size() + gets_.size());
  for (const auto& r : puts_) statuses.emplace_back(r.id, ws);
  for (auto& r : gets_) {
    pnc::Status st = rs;
    if (st.ok() && r.deliver) st = r.deliver();
    statuses.emplace_back(r.id, st);
  }
  std::sort(statuses.begin(), statuses.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (per_request) {
    per_request->clear();
    for (auto& [id, st] : statuses) {
      (void)id;
      per_request->push_back(st);
    }
  }
  puts_.clear();
  gets_.clear();

  if (!ws.ok()) return ws;
  return rs;
}

}  // namespace pnetcdf
