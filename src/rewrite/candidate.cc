#include "rewrite/candidate.h"

#include <algorithm>
#include <set>

#include "rewrite/decision_log.h"

namespace opd::rewrite {

CandidateView MakeBaseCandidate(const catalog::ViewDefinition& def) {
  CandidateView c;
  c.parts = {def.id};
  c.afk = def.afk;
  c.total_bytes = def.stats.TotalBytes();
  return c;
}

Result<plan::OpNodePtr> BuildCandidateScan(const CandidateView& candidate,
                                           const catalog::ViewSnapshot& views) {
  if (candidate.parts.empty()) {
    return Status::InvalidArgument("candidate has no parts");
  }
  OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* first,
                       views.Find(candidate.parts[0]));
  plan::OpNodePtr acc = plan::ScanView(first->id);
  afk::Afk acc_afk = first->afk;

  for (size_t i = 1; i < candidate.parts.size(); ++i) {
    OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* next,
                         views.Find(candidate.parts[i]));
    // Join on every attribute the two sides share (same signature implies
    // same name under our attribute construction).
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const afk::Attribute& a : acc_afk.attrs()) {
      if (next->afk.HasAttr(a)) pairs.emplace_back(a.name(), a.name());
    }
    if (pairs.empty()) {
      return Status::InvalidArgument(
          "candidate parts share no attributes: " +
          CandidateId(candidate.parts));
    }
    std::vector<std::pair<afk::Attribute, afk::Attribute>> attr_pairs;
    for (const auto& [l, r] : pairs) {
      attr_pairs.emplace_back(*acc_afk.FindByName(l), *next->afk.FindByName(r));
    }
    OPD_ASSIGN_OR_RETURN(acc_afk, acc_afk.Join(next->afk, attr_pairs));
    acc = plan::Join(std::move(acc), plan::ScanView(next->id), pairs);
  }
  return acc;
}

std::vector<std::string> UsefulSignatures(const afk::Afk& q) {
  std::set<std::string> sigs;
  // Output attributes and their transitive dependencies.
  std::vector<afk::Attribute> stack = q.attrs();
  while (!stack.empty()) {
    afk::Attribute a = stack.back();
    stack.pop_back();
    if (!sigs.insert(a.signature()).second) continue;
    for (const afk::Attribute& dep : a.inputs()) stack.push_back(dep);
  }
  for (const afk::Attribute& k : q.keys().keys()) sigs.insert(k.signature());
  for (const afk::Predicate& p : q.filters().preds()) {
    for (const afk::Attribute& a : p.args()) sigs.insert(a.signature());
  }
  return {sigs.begin(), sigs.end()};
}

bool IsRelevant(const afk::Afk& v,
                const std::vector<std::string>& useful_sigs) {
  for (const afk::Attribute& a : v.attrs()) {
    if (std::binary_search(useful_sigs.begin(), useful_sigs.end(),
                           a.signature())) {
      return true;
    }
  }
  return false;
}

Coverage ComputeCoverage(const afk::Afk& v,
                         const std::vector<std::string>& useful_sigs) {
  Coverage mask((useful_sigs.size() + 63) / 64, 0);
  for (const afk::Attribute& a : v.attrs()) {
    auto it = std::lower_bound(useful_sigs.begin(), useful_sigs.end(),
                               a.signature());
    if (it != useful_sigs.end() && *it == a.signature()) {
      size_t i = static_cast<size_t>(it - useful_sigs.begin());
      mask[i / 64] |= uint64_t{1} << (i % 64);
    }
  }
  return mask;
}

Coverage CoverageUnion(const Coverage& a, const Coverage& b) {
  Coverage out(std::max(a.size(), b.size()), 0);
  for (size_t i = 0; i < a.size(); ++i) out[i] |= a[i];
  for (size_t i = 0; i < b.size(); ++i) out[i] |= b[i];
  return out;
}

}  // namespace opd::rewrite
