// The materialized-view metadata store (paper Section 2.1): definitions,
// AFK annotations, plan fingerprints, and statistics of every opportunistic
// view currently retained in the system.
//
// Concurrency (serving layer, DESIGN.md §3): the store is shared by every
// tenant of an opd::Server and is thread-safe. View visibility is
// *snapshot-consistent* through a monotonically increasing publish epoch:
//
//   * `Publish`/`PublishBatch` insert fully-materialized views atomically
//     and advance the epoch — a batch (one completed query's views) becomes
//     visible all at once or not at all. In `src/`, `Server::RunAdmitted` is
//     the only publisher: every view is the output of an executed job.
//     `Publish` serves tests that build a store by hand.
//   * `Drop`/`DropAll` remove views from the live store (and from every
//     later snapshot); they never touch the DFS, whose files the caller
//     deletes.
//   * `SnapshotAt(e)` returns exactly the views published at epochs <= e.
//     A query admitted at epoch e rewrites only against that snapshot, so
//     it can never observe a half-published view.
//
// The published views form an immutable *version*: the views in id order
// plus a signature -> views index over their attributes. A change to the
// set of views (a batch that adds a view, or a drop) installs a new version
// copy-on-write; a batch that adds nothing only advances the epoch. Ids and
// publish epochs both grow in publish order, so the views of any epoch are
// a prefix of the current version, and a snapshot is that version plus the
// prefix length: taking one copies no view and touches no per-view
// refcount. A snapshot stays valid, with its index, after views are
// dropped from the live store.
//
// The access bookkeeping of a definition (RecordAccess) is the one
// mutable part; it is written under the store mutex on the definition that
// every version holding the view shares.

#ifndef OPD_CATALOG_VIEW_STORE_H_
#define OPD_CATALOG_VIEW_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "afk/afk.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/schema.h"

namespace opd::catalog {

using ViewId = int64_t;
/// Publish-batch counter; 0 = "before anything was published".
using Epoch = uint64_t;

/// \brief Metadata for one opportunistic materialized view.
struct ViewDefinition {
  ViewId id = -1;
  /// DFS location of the materialized data.
  std::string dfs_path;
  /// Semantic annotation of the view's content.
  afk::Afk afk;
  /// Attributes aligned 1:1 with the stored schema columns.
  std::vector<afk::Attribute> out_attrs;
  storage::Schema schema;
  /// Canonical fingerprint of the producing plan subtree (used by the
  /// syntactic-matching baseline, Section 8.3.4).
  std::string fingerprint;
  TableStats stats;
  uint64_t bytes = 0;
  /// Free-form description of the producing query, for debugging.
  std::string producer;
  /// Tenant whose query materialized this view ("" outside a Server). The
  /// cross-tenant reuse the paper is about is `scanning tenant != tenant`.
  std::string tenant;
  /// Epoch of the publish batch that made this view visible (assigned by
  /// the store; 0 only while the definition is still pending).
  Epoch publish_epoch = 0;

  // --- access bookkeeping (drives the retention policies, paper §10) ---
  // Only mutated under the store mutex (RecordAccess); read them through
  // the store (or from a single-threaded context) — never concurrently
  // with serving traffic.
  /// Number of times a rewrite has scanned this view.
  uint64_t access_count = 0;
  /// Logical clock of the most recent access (0 = never accessed).
  uint64_t last_access = 0;
  /// Total estimated execution-time savings attributed to this view.
  double cumulative_benefit_s = 0;
  /// Logical clock of creation.
  uint64_t created_at = 0;
};

/// One immutable published state of the store (defined in view_store.cc).
struct ViewVersion;

/// \brief An immutable, epoch-consistent view of the store.
///
/// Produced by ViewStore::SnapshotAt/Snapshot; contains exactly the views
/// published at epochs <= epoch(), in id order, and keeps them alive
/// independently of the live store. Copying a snapshot copies one pointer.
class ViewSnapshot {
 public:
  ViewSnapshot() = default;

  Epoch epoch() const { return epoch_; }
  size_t size() const { return size_; }

  /// Borrowed pointers, valid for the snapshot's lifetime, ordered by id.
  std::vector<const ViewDefinition*> All() const;

  /// The view at position `pos` (0 <= pos < size()) of the id order.
  const ViewDefinition& at(size_t pos) const;

  /// Ascending positions of the views of this snapshot whose annotation
  /// carries an attribute with signature `sig` (empty when none). Reads the
  /// version's signature index, which the first call builds.
  std::span<const uint32_t> Postings(const std::string& sig) const;

  /// Finds a view *within this snapshot* (NotFound for views published
  /// after the snapshot's epoch, even if they exist in the live store).
  /// Binary search over the id order.
  Result<const ViewDefinition*> Find(ViewId id) const;

 private:
  friend class ViewStore;
  Epoch epoch_ = 0;
  std::shared_ptr<const ViewVersion> version_;
  /// Length of the version's prefix this snapshot sees.
  size_t size_ = 0;
};

/// \brief The system's view metadata store.
///
/// Views are deduplicated by AFK annotation: materializing the same semantic
/// content twice keeps the first copy (the paper discards duplicate views,
/// Section 8.3.3). All methods are thread-safe.
class ViewStore {
 public:
  ViewStore();

  /// Outcome of publishing one definition.
  struct PublishResult {
    ViewId id = -1;
    /// False when an AFK-identical view already existed (dedup: `id` is
    /// the surviving original's).
    bool added = false;
  };

  /// Publishes a batch of fully-materialized views atomically: every view
  /// of the batch gets the same (new) epoch and becomes visible to
  /// snapshots taken at or after it, all at once. The epoch advances by
  /// exactly one per call — also for an empty or fully-deduplicated batch,
  /// so a completed query always accounts for one publish step (this is
  /// what makes serial replay line up epoch-for-epoch with a concurrent
  /// run). Returns one PublishResult per input definition, in order; the
  /// new epoch is stored in `*epoch_out` when non-null.
  std::vector<PublishResult> PublishBatch(std::vector<ViewDefinition> defs,
                                          Epoch* epoch_out = nullptr);

  /// Publishes a single view (one-element batch; one epoch bump).
  PublishResult Publish(ViewDefinition def);

  /// The epoch of the most recent publish batch (0 before the first).
  /// A query admitted now sees exactly SnapshotAt(epoch()).
  Epoch epoch() const;

  /// The views published at epochs <= `at`, in id order.
  ViewSnapshot SnapshotAt(Epoch at) const;
  /// SnapshotAt(epoch()): everything currently published.
  ViewSnapshot Snapshot() const;

  Result<const ViewDefinition*> Find(ViewId id) const;
  bool Has(ViewId id) const;

  /// All current views, ordered by id. Borrowed pointers into the live
  /// store: stable across inserts, invalidated by Drop*. Prefer Snapshot()
  /// wherever concurrent mutation is possible.
  std::vector<const ViewDefinition*> All() const;
  size_t size() const;

  /// Total bytes of all retained views.
  uint64_t TotalBytes() const;

  /// Remove views' metadata only; the caller deletes their DFS files.
  Status Drop(ViewId id);
  void DropAll();

  /// Records that a rewrite used view `id`, attributing `benefit_s` of
  /// estimated savings. Advances the logical access clock.
  Status RecordAccess(ViewId id, double benefit_s);

  /// Current value of the logical clock (accesses + additions).
  uint64_t clock() const;

 private:
  /// Position of view `id` in the current version, or -1; caller holds mu_.
  int64_t PositionLocked(ViewId id) const;
  /// Installs a version holding `views`; caller holds mu_.
  void InstallLocked(std::vector<std::shared_ptr<ViewDefinition>> views);

  mutable std::mutex mu_;
  ViewId next_id_ = 1;       // guarded by mu_
  uint64_t clock_ = 0;       // guarded by mu_
  Epoch epoch_ = 0;          // guarded by mu_
  /// The published views; never null. Guarded by mu_ (the pointer; the
  /// version itself is immutable).
  std::shared_ptr<const ViewVersion> version_;
  std::map<std::string, ViewId> by_canonical_;  // AFK canonical -> id
};

}  // namespace opd::catalog

#endif  // OPD_CATALOG_VIEW_STORE_H_
