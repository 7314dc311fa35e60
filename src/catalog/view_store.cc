#include "catalog/view_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace opd::catalog {

/// The published views at one point in the store's history. Immutable once
/// installed, except for the lazily built signature index.
struct ViewVersion {
  /// Published views in id order; ids and publish epochs both ascend.
  std::vector<std::shared_ptr<ViewDefinition>> views;

  /// Attribute signature -> ascending positions in `views` of the views
  /// carrying it. Built on first use: versions that are never rewritten
  /// against (a store grown with rewriting off, or replaced before the next
  /// rewrite) never pay for it.
  const std::unordered_map<std::string, std::vector<uint32_t>>& Index()
      const {
    std::call_once(index_once_, [this] {
      for (size_t pos = 0; pos < views.size(); ++pos) {
        for (const afk::Attribute& a : views[pos]->afk.attrs()) {
          index_[a.signature()].push_back(static_cast<uint32_t>(pos));
        }
      }
    });
    return index_;
  }

 private:
  mutable std::once_flag index_once_;
  mutable std::unordered_map<std::string, std::vector<uint32_t>> index_;
};

namespace {

/// Position of view `id` among the first `size` views of `version`, or -1.
int64_t FindPosition(const ViewVersion& version, size_t size, ViewId id) {
  auto end = version.views.begin() + static_cast<std::ptrdiff_t>(size);
  auto it = std::lower_bound(
      version.views.begin(), end, id,
      [](const std::shared_ptr<ViewDefinition>& def, ViewId v) {
        return def->id < v;
      });
  if (it == end || (*it)->id != id) return -1;
  return it - version.views.begin();
}

}  // namespace

std::vector<const ViewDefinition*> ViewSnapshot::All() const {
  std::vector<const ViewDefinition*> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.push_back(version_->views[i].get());
  return out;
}

const ViewDefinition& ViewSnapshot::at(size_t pos) const {
  return *version_->views[pos];
}

std::span<const uint32_t> ViewSnapshot::Postings(const std::string& sig) const {
  if (size_ == 0) return {};
  const auto& index = version_->Index();
  auto it = index.find(sig);
  if (it == index.end()) return {};
  const std::vector<uint32_t>& all = it->second;
  // Positions ascend, so this snapshot's postings are a prefix of the list.
  auto end = std::lower_bound(all.begin(), all.end(),
                              static_cast<uint32_t>(size_));
  return {all.data(), static_cast<size_t>(end - all.begin())};
}

Result<const ViewDefinition*> ViewSnapshot::Find(ViewId id) const {
  const int64_t pos =
      version_ == nullptr ? -1 : FindPosition(*version_, size_, id);
  if (pos < 0) {
    return Status::NotFound("no such view in snapshot: " + std::to_string(id));
  }
  return version_->views[static_cast<size_t>(pos)].get();
}

ViewStore::ViewStore() : version_(std::make_shared<const ViewVersion>()) {}

int64_t ViewStore::PositionLocked(ViewId id) const {
  return FindPosition(*version_, version_->views.size(), id);
}

void ViewStore::InstallLocked(
    std::vector<std::shared_ptr<ViewDefinition>> views) {
  auto version = std::make_shared<ViewVersion>();
  version->views = std::move(views);
  version_ = std::move(version);
}

std::vector<ViewStore::PublishResult> ViewStore::PublishBatch(
    std::vector<ViewDefinition> defs, Epoch* epoch_out) {
  auto& registry = obs::MetricRegistry::Global();
  std::lock_guard<std::mutex> lock(mu_);
  const Epoch epoch = ++epoch_;
  std::vector<PublishResult> out;
  out.reserve(defs.size());
  std::vector<std::shared_ptr<ViewDefinition>> added;
  for (ViewDefinition& def : defs) {
    const std::string canonical = def.afk.CanonicalString();
    auto it = by_canonical_.find(canonical);
    if (it != by_canonical_.end()) {
      // An equivalent view already exists — the new materialization is a
      // duplicate (a reuse opportunity the store deduplicates).
      registry.counter("viewstore.add.dedup").Inc();
      out.push_back(PublishResult{it->second, false});
      continue;
    }
    registry.counter("viewstore.add.new").Inc();
    def.id = next_id_++;
    def.created_at = ++clock_;
    def.publish_epoch = epoch;
    by_canonical_[canonical] = def.id;
    out.push_back(PublishResult{def.id, true});
    added.push_back(std::make_shared<ViewDefinition>(std::move(def)));
  }
  if (!added.empty()) {
    std::vector<std::shared_ptr<ViewDefinition>> views;
    views.reserve(version_->views.size() + added.size());
    views = version_->views;
    for (auto& def : added) views.push_back(std::move(def));
    InstallLocked(std::move(views));
  }
  if (epoch_out != nullptr) *epoch_out = epoch;
  return out;
}

ViewStore::PublishResult ViewStore::Publish(ViewDefinition def) {
  std::vector<ViewDefinition> batch;
  batch.push_back(std::move(def));
  return PublishBatch(std::move(batch))[0];
}

Epoch ViewStore::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

ViewSnapshot ViewStore::SnapshotAt(Epoch at) const {
  std::lock_guard<std::mutex> lock(mu_);
  ViewSnapshot snap;
  snap.epoch_ = at;
  snap.version_ = version_;
  const auto& views = version_->views;
  snap.size_ = static_cast<size_t>(
      std::upper_bound(views.begin(), views.end(), at,
                       [](Epoch e, const std::shared_ptr<ViewDefinition>& def) {
                         return e < def->publish_epoch;
                       }) -
      views.begin());
  return snap;
}

ViewSnapshot ViewStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ViewSnapshot snap;
  snap.epoch_ = epoch_;
  snap.version_ = version_;
  snap.size_ = version_->views.size();
  return snap;
}

Status ViewStore::RecordAccess(ViewId id, double benefit_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t pos = PositionLocked(id);
  if (pos < 0) return Status::NotFound("no such view: " + std::to_string(id));
  ViewDefinition& def = *version_->views[static_cast<size_t>(pos)];
  def.access_count += 1;
  def.last_access = ++clock_;
  def.cumulative_benefit_s += benefit_s;
  return Status::OK();
}

Result<const ViewDefinition*> ViewStore::Find(ViewId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t pos = PositionLocked(id);
  if (pos < 0) {
    obs::MetricRegistry::Global().counter("viewstore.find.miss").Inc();
    return Status::NotFound("no such view: " + std::to_string(id));
  }
  obs::MetricRegistry::Global().counter("viewstore.find.hit").Inc();
  return version_->views[static_cast<size_t>(pos)].get();
}

bool ViewStore::Has(ViewId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PositionLocked(id) >= 0;
}

std::vector<const ViewDefinition*> ViewStore::All() const {
  return Snapshot().All();
}

size_t ViewStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_->views.size();
}

uint64_t ViewStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& def : version_->views) total += def->bytes;
  return total;
}

uint64_t ViewStore::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

Status ViewStore::Drop(ViewId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t pos = PositionLocked(id);
  if (pos < 0) return Status::NotFound("no such view: " + std::to_string(id));
  std::vector<std::shared_ptr<ViewDefinition>> views = version_->views;
  by_canonical_.erase(views[static_cast<size_t>(pos)]->afk.CanonicalString());
  views.erase(views.begin() + pos);
  InstallLocked(std::move(views));
  return Status::OK();
}

void ViewStore::DropAll() {
  std::lock_guard<std::mutex> lock(mu_);
  InstallLocked({});
  by_canonical_.clear();
}

}  // namespace opd::catalog
