#include "obs/query_log.h"

#include <algorithm>
#include <utility>

#include "common/json_writer.h"
#include "obs/metrics.h"

namespace opd::obs {

std::string QueryRecord::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("tenant").String(tenant);
  w.Key("ticket").UInt(ticket);
  w.Key("admission_epoch").UInt(admission_epoch);
  w.Key("publish_epoch").UInt(publish_epoch);
  w.Key("queue_wait_s").Double(queue_wait_s);
  w.Key("wall_time_s").Double(wall_time_s);
  w.Key("exec_time_s").Double(exec_time_s);
  w.Key("rows_in").UInt(rows_in);
  w.Key("rows_out").UInt(rows_out);
  w.Key("jobs").UInt(jobs);
  w.Key("views_used").UInt(views_used);
  w.Key("cross_tenant_views").UInt(cross_tenant_views);
  w.Key("views_published").UInt(views_published);
  w.Key("recycle_hits").UInt(recycle_hits);
  w.Key("recycle_misses").UInt(recycle_misses);
  w.Key("rewrite").BeginObject();
  w.Key("candidates").UInt(rw_candidates);
  w.Key("accepted").UInt(rw_accepted);
  w.Key("signature_mismatch").UInt(rw_signature_mismatch);
  w.Key("filter_not_implied").UInt(rw_filter_not_implied);
  w.Key("afk_containment").UInt(rw_afk_containment);
  w.Key("not_cost_improving").UInt(rw_not_cost_improving);
  w.Key("pruned_by_bound").UInt(rw_pruned_by_bound);
  w.EndObject();
  w.Key("max_residual_pct").Double(max_residual_pct);
  w.Key("status").String(status);
  if (!error.empty()) w.Key("error").String(error);
  w.Key("query").String(query);
  w.EndObject();
  return w.Take();
}

QueryLog::QueryLog(const Options& options)
    : options_(options), ring_(options.capacity > 0 ? options.capacity : 1) {
  if (!options_.jsonl_path.empty()) {
    sink_.open(options_.jsonl_path, std::ios::out | std::ios::app);
  }
}

void QueryLog::Append(QueryRecord record) {
  const std::string line =
      options_.jsonl_path.empty() ? std::string() : record.ToJson();
  std::shared_ptr<const QueryRecord> rec =
      std::make_shared<const QueryRecord>(std::move(record));
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // After the swap `rec` holds the overwritten record, freed unlocked.
    ring_[next_seq_++ % ring_.size()].swap(rec);
    overwrote = rec != nullptr;
    ++stats_.appended;
    if (overwrote) ++stats_.dropped;
    if (sink_.is_open()) sink_ << line << "\n" << std::flush;
  }
  if (options_.registry != nullptr) {
    options_.registry->counter("server.querylog.appended").Inc();
    if (overwrote) options_.registry->counter("server.querylog.dropped").Inc();
  }
}

void QueryLog::CaptureSlow(SlowQueryProfile profile) {
  const size_t bytes = profile.ByteSize();
  uint64_t evicted = 0;
  size_t bytes_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    profiles_.push_back(std::move(profile));
    stats_.capture_bytes += bytes;
    while (stats_.capture_bytes > options_.slow_capture_budget_bytes &&
           !profiles_.empty()) {
      stats_.capture_bytes -= profiles_.front().ByteSize();
      profiles_.pop_front();
      ++evicted;
    }
    ++stats_.slow_captured;
    stats_.slow_evicted += evicted;
    bytes_now = stats_.capture_bytes;
  }
  if (options_.registry != nullptr) {
    options_.registry->counter("server.querylog.slow_captured").Inc();
    if (evicted > 0) {
      options_.registry->counter("server.querylog.slow_evicted").Inc(evicted);
    }
    options_.registry->gauge("server.querylog.capture_bytes")
        .Set(static_cast<double>(bytes_now));
  }
}

std::vector<std::shared_ptr<const QueryRecord>> QueryLog::Snapshot() const {
  std::vector<std::shared_ptr<const QueryRecord>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(ring_.size());
    for (const auto& rec : ring_) {
      if (rec != nullptr) out.push_back(rec);
    }
  }
  // Slots wrap, so slot order is not age order; tickets are monotone in
  // append order per log (the server appends in completion order), but the
  // stable age key across overwrites is the publish epoch — sort by it,
  // breaking ties (failed queries share a publish epoch) by ticket.
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<const QueryRecord>& a,
               const std::shared_ptr<const QueryRecord>& b) {
              if (a->publish_epoch != b->publish_epoch) {
                return a->publish_epoch < b->publish_epoch;
              }
              return a->ticket < b->ticket;
            });
  return out;
}

std::shared_ptr<const QueryRecord> QueryLog::Find(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rec : ring_) {
    if (rec != nullptr && rec->ticket == ticket) return rec;
  }
  return nullptr;
}

std::optional<SlowQueryProfile> QueryLog::FindProfile(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Newest first: if a ticket somehow repeats, prefer the latest capture.
  for (auto it = profiles_.rbegin(); it != profiles_.rend(); ++it) {
    if (it->ticket == ticket) return *it;
  }
  return std::nullopt;
}

QueryLog::Stats QueryLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace opd::obs
