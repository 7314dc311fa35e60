#include "server/admission.h"

#include <algorithm>

namespace opd::server {

AdmissionController::AdmissionController(Options options)
    : options_([&] {
        options.max_concurrent = std::max(options.max_concurrent, 1);
        options.per_tenant_quota = std::max(options.per_tenant_quota, 0);
        return options;
      }()) {}

bool AdmissionController::QuotaAllowsLocked(const std::string& tenant) const {
  if (options_.per_tenant_quota <= 0) return true;
  auto it = running_by_tenant_.find(tenant);
  const int running = it == running_by_tenant_.end() ? 0 : it->second;
  return running < options_.per_tenant_quota;
}

bool AdmissionController::AdmitEligibleLocked() {
  bool any = false;
  while (running_ < options_.max_concurrent) {
    // Pick the next grant: among quota-eligible waiters, the one whose
    // tenant holds the fewest slots. Tie-break is arrival order, so the
    // choice is deterministic for a given arrival sequence.
    Waiter* pick = nullptr;
    size_t pick_pos = 0;
    int pick_running = 0;
    for (size_t i = 0; i < waiting_.size(); ++i) {
      Waiter* w = waiting_[i];
      if (!QuotaAllowsLocked(w->tenant)) continue;
      auto it = running_by_tenant_.find(w->tenant);
      const int running = it == running_by_tenant_.end() ? 0 : it->second;
      if (pick == nullptr || running < pick_running) {
        pick = w;
        pick_pos = i;
        pick_running = running;
      }
    }
    if (pick == nullptr) break;
    waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(pick_pos));
    pick->admitted = true;
    pick->ticket = ++next_ticket_;
    running_ += 1;
    running_by_tenant_[pick->tenant] += 1;
    log_.push_back(pick->tenant);
    any = true;
  }
  return any;
}

uint64_t AdmissionController::Admit(const std::string& tenant) {
  std::unique_lock<std::mutex> lock(mu_);
  Waiter self;
  self.tenant = tenant;
  self.seq = ++next_seq_;
  waiting_.push_back(&self);
  const bool immediate = AdmitEligibleLocked() && self.admitted;
  if (!immediate) {
    queued_total_ += 1;
    cv_.notify_all();
    cv_.wait(lock, [&] { return self.admitted; });
  } else {
    cv_.notify_all();
  }
  return self.ticket;
}

Result<uint64_t> AdmissionController::TryAdmit(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!waiting_.empty() || running_ >= options_.max_concurrent ||
      !QuotaAllowsLocked(tenant)) {
    return Status::OutOfRange("no free query slot for tenant " + tenant);
  }
  running_ += 1;
  running_by_tenant_[tenant] += 1;
  const uint64_t ticket = ++next_ticket_;
  log_.push_back(tenant);
  return ticket;
}

void AdmissionController::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  running_ = std::max(running_ - 1, 0);
  auto it = running_by_tenant_.find(tenant);
  if (it != running_by_tenant_.end() && --it->second <= 0) {
    running_by_tenant_.erase(it);
  }
  if (AdmitEligibleLocked()) cv_.notify_all();
}

AdmissionController::Stats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.admitted = next_ticket_;
  s.queued = queued_total_;
  s.running = running_;
  s.waiting = static_cast<int>(waiting_.size());
  return s;
}

std::vector<std::string> AdmissionController::admission_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

}  // namespace opd::server
