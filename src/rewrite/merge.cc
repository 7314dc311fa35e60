#include "rewrite/merge.h"

#include <algorithm>
#include <set>

namespace opd::rewrite {

std::optional<CandidateView> MergeCandidates(const CandidateView& a,
                                             const CandidateView& b,
                                             int max_parts) {
  if (static_cast<int>(a.parts.size() + b.parts.size()) > max_parts) {
    return std::nullopt;
  }
  // Parts must be disjoint.
  std::set<catalog::ViewId> seen(a.parts.begin(), a.parts.end());
  for (catalog::ViewId id : b.parts) {
    if (seen.count(id)) return std::nullopt;
  }
  // Join on every shared attribute — but only when the shared attributes
  // cover *both sides' grouping keys* (the model's multi-input rule joins
  // "on a common key", Section 3.1). Joining below the key would multiply
  // rows in ways the A/F/K state cannot certify as equivalent, and admitting
  // such merges explodes the candidate space with unusable combinations.
  std::vector<std::pair<afk::Attribute, afk::Attribute>> pairs;
  for (const afk::Attribute& attr : a.afk.attrs()) {
    if (b.afk.HasAttr(attr)) pairs.emplace_back(attr, attr);
  }
  if (pairs.empty()) return std::nullopt;
  if (a.afk.keys().keys().empty() || b.afk.keys().keys().empty()) {
    return std::nullopt;
  }
  auto shared = [&pairs](const afk::Attribute& key) {
    for (const auto& [l, _] : pairs) {
      if (l == key) return true;
    }
    return false;
  };
  for (const afk::Attribute& key : a.afk.keys().keys()) {
    if (!shared(key)) return std::nullopt;
  }
  for (const afk::Attribute& key : b.afk.keys().keys()) {
    if (!shared(key)) return std::nullopt;
  }

  auto joined = a.afk.Join(b.afk, pairs);
  if (!joined.ok()) return std::nullopt;

  // Reject merges whose output would carry two distinct attributes with the
  // same display name (e.g. TWTR.user_id and FSQ.user_id, joinable via some
  // third attribute): such a candidate has no plannable schema.
  {
    std::set<std::string> names;
    for (const afk::Attribute& attr : joined.value().attrs()) {
      if (!names.insert(attr.name()).second) return std::nullopt;
    }
  }

  CandidateView out;
  out.parts = a.parts;
  out.parts.insert(out.parts.end(), b.parts.begin(), b.parts.end());
  out.afk = std::move(joined).value();
  out.total_bytes = a.total_bytes + b.total_bytes;
  return out;
}

std::optional<CandidateView> MergeUseful(const CandidateView& a,
                                         const CandidateView& b,
                                         int max_parts) {
  Coverage combined = CoverageUnion(a.coverage, b.coverage);
  if (combined == a.coverage || combined == b.coverage) {
    return std::nullopt;  // one side subsumes the other's contribution
  }
  auto merged = MergeCandidates(a, b, max_parts);
  if (merged.has_value()) merged->coverage = std::move(combined);
  return merged;
}

}  // namespace opd::rewrite
