// Admission control for concurrent tenant queries (DESIGN.md §3).
//
// A fixed number of query slots is shared by all tenants. Admit() blocks
// until a slot is granted; the grant order is deterministic given the
// arrival order: free slots go to the waiting tenant with the fewest
// running queries (fair round-robin), and arrival order breaks ties. A
// per-tenant quota caps how many slots one tenant may hold, so a burst
// from one analyst cannot starve the others.

#ifndef OPD_SERVER_ADMISSION_H_
#define OPD_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace opd::server {

/// \brief Blocking fair-share admission gate. Thread-safe.
class AdmissionController {
 public:
  struct Options {
    /// Concurrent query slots; values < 1 are clamped to 1.
    int max_concurrent = 4;
    /// Max slots one tenant may hold (0 = unlimited).
    int per_tenant_quota = 0;
  };

  /// Aggregate gate statistics (consistent snapshot).
  struct Stats {
    uint64_t admitted = 0;   ///< total tickets granted
    uint64_t queued = 0;     ///< admissions that had to wait for a slot
    int running = 0;         ///< slots currently held
    int waiting = 0;         ///< queries currently queued
  };

  explicit AdmissionController(Options options);

  /// Blocks until a slot is granted to `tenant`; returns the admission
  /// ticket (1-based position in the global grant order).
  uint64_t Admit(const std::string& tenant);

  /// Non-blocking admit: grants a slot only if one is immediately
  /// available AND no earlier arrival is still queued; otherwise
  /// OutOfRange ("no free query slot").
  Result<uint64_t> TryAdmit(const std::string& tenant);

  /// Returns `tenant`'s slot, waking the next eligible waiter.
  void Release(const std::string& tenant);

  Stats stats() const;
  /// Tenants in ticket order, one entry per grant (the admission log the
  /// determinism tests replay against).
  std::vector<std::string> admission_log() const;

  const Options& options() const { return options_; }

 private:
  struct Waiter {
    std::string tenant;
    uint64_t seq = 0;        ///< arrival order
    bool admitted = false;
    uint64_t ticket = 0;
  };

  /// Grants free slots to eligible waiters, fewest-running tenant first;
  /// caller holds mu_.
  /// Returns true if anyone was admitted (caller must notify).
  bool AdmitEligibleLocked();
  bool QuotaAllowsLocked(const std::string& tenant) const;

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_seq_ = 0;                 // guarded by mu_
  uint64_t next_ticket_ = 0;              // guarded by mu_
  uint64_t queued_total_ = 0;             // guarded by mu_
  int running_ = 0;                       // guarded by mu_
  std::map<std::string, int> running_by_tenant_;  // guarded by mu_
  std::deque<Waiter*> waiting_;           // guarded by mu_ (arrival order)
  std::vector<std::string> log_;          // guarded by mu_ (ticket order)
};

}  // namespace opd::server

#endif  // OPD_SERVER_ADMISSION_H_
