#include "rewrite/decision_log.h"

#include <algorithm>
#include <cstdio>

#include "common/json_writer.h"

namespace opd::rewrite {

namespace {

std::string TargetOpName(const TargetDecision& t) {
  return t.target_op != nullptr ? t.target_op->DisplayName() : "";
}

/// Compact deterministic cost rendering ("12.5s"); doubles are %.6g, the
/// same convention JsonWriter uses.
std::string FormatCost(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6gs", seconds);
  return buf;
}

std::string DescribeCandidate(const CandidateDecision& c) {
  std::string out;
  switch (c.reject) {
    case RejectReason::kSignatureMismatch:
      out = "rejected: signature_mismatch (no useful attributes)";
      break;
    case RejectReason::kFilterNotImplied:
      out = "rejected: filter_not_implied (target does not imply its "
            "filters; never queued)";
      break;
    case RejectReason::kPrunedByBound:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rejected: pruned_by_bound (never refined)";
      break;
    case RejectReason::kAfkContainment:
      out = "optcost=" + FormatCost(c.opt_cost) +
            (c.guess_complete ? "  enum=no_equivalence"
                              : "  guess_complete=no") +
            "  rejected: afk_containment";
      break;
    case RejectReason::kNotCostImproving:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rewrite=" + FormatCost(c.rewrite_cost) +
            "  rejected: not_cost_improving";
      break;
    case RejectReason::kNone:
      out = "optcost=" + FormatCost(c.opt_cost) +
            "  rewrite=" + FormatCost(c.rewrite_cost) + "  accepted";
      break;
  }
  return out;
}

}  // namespace

std::string CandidateId(std::span<const catalog::ViewId> parts) {
  std::vector<catalog::ViewId> sorted(parts.begin(), parts.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += "+";
    out += std::to_string(sorted[i]);
  }
  return out;
}

const char* RejectReasonCode(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "accepted";
    case RejectReason::kSignatureMismatch:
      return "signature_mismatch";
    case RejectReason::kFilterNotImplied:
      return "filter_not_implied";
    case RejectReason::kAfkContainment:
      return "afk_containment";
    case RejectReason::kNotCostImproving:
      return "not_cost_improving";
    case RejectReason::kPrunedByBound:
      return "pruned_by_bound";
  }
  return "unknown";
}

std::string TargetDecision::ChosenId() const {
  if (chosen < 0) return "";
  return CandidateId(pops[static_cast<size_t>(chosen)].parts);
}

DecisionCounts DecisionLog::Counts() const {
  DecisionCounts counts;
  for (const TargetDecision& t : targets) {
    const size_t mismatched = views.size() - t.relevant.size();
    counts.candidates += mismatched + t.filter_not_implied.size() +
                         t.pops.size() + t.pruned.size();
    counts.signature_mismatch += mismatched;
    counts.filter_not_implied += t.filter_not_implied.size();
    counts.pruned_by_bound += t.pruned.size();
    for (const PoppedCandidate& c : t.pops) {
      switch (c.reject) {
        case RejectReason::kNone:
          counts.accepted += 1;
          break;
        case RejectReason::kAfkContainment:
          counts.afk_containment += 1;
          break;
        case RejectReason::kNotCostImproving:
          counts.not_cost_improving += 1;
          break;
        case RejectReason::kSignatureMismatch:
        case RejectReason::kFilterNotImplied:
        case RejectReason::kPrunedByBound:
          break;  // never the outcome of a refinement
      }
    }
  }
  return counts;
}

std::vector<CandidateDecision> DecisionLog::Candidates(size_t t) const {
  const TargetDecision& td = targets[t];
  std::vector<CandidateDecision> out;
  out.reserve(views.size() - td.relevant.size() +
              td.filter_not_implied.size() + td.pops.size() +
              td.pruned.size());
  size_t next_relevant = 0;
  size_t next_excluded = 0;
  for (uint32_t pos = 0; pos < views.size(); ++pos) {
    RejectReason reason = RejectReason::kSignatureMismatch;
    if (next_relevant < td.relevant.size() &&
        td.relevant[next_relevant] == pos) {
      ++next_relevant;
      if (next_excluded == td.filter_not_implied.size() ||
          td.filter_not_implied[next_excluded] != pos) {
        continue;  // queued
      }
      ++next_excluded;
      reason = RejectReason::kFilterNotImplied;
    }
    CandidateDecision cd;
    cd.candidate_id = std::to_string(views.at(pos).id);
    cd.reject = reason;
    out.push_back(std::move(cd));
  }
  for (const PoppedCandidate& c : td.pops) {
    CandidateDecision cd;
    cd.candidate_id = CandidateId(c.parts);
    cd.num_parts = static_cast<int>(c.parts.size());
    cd.opt_cost = c.opt_cost;
    cd.guess_complete = c.guess_complete;
    cd.rewrite_found = c.rewrite_found;
    cd.rewrite_cost = c.rewrite_cost;
    cd.reject = c.reject;
    out.push_back(std::move(cd));
  }
  auto parts = [&td](const QueuedCandidate& c) {
    return c.view_id >= 0 ? std::span<const catalog::ViewId>(&c.view_id, 1)
                          : std::span<const catalog::ViewId>(
                                td.merges[c.slot]);
  };
  std::vector<QueuedCandidate> pruned = td.pruned;
  std::sort(pruned.begin(), pruned.end(),
            [&parts](const QueuedCandidate& a, const QueuedCandidate& b) {
              if (a.opt_cost != b.opt_cost) return a.opt_cost < b.opt_cost;
              const auto pa = parts(a);
              const auto pb = parts(b);
              return std::lexicographical_compare(pa.begin(), pa.end(),
                                                  pb.begin(), pb.end());
            });
  for (const QueuedCandidate& c : pruned) {
    CandidateDecision cd;
    cd.candidate_id = CandidateId(parts(c));
    cd.num_parts = static_cast<int>(parts(c).size());
    cd.opt_cost = c.opt_cost;
    cd.reject = RejectReason::kPrunedByBound;
    out.push_back(std::move(cd));
  }
  return out;
}

std::string DecisionLog::ToText() const {
  std::string out;
  for (size_t i = 0; i < targets.size(); ++i) {
    const TargetDecision& t = targets[i];
    out += "[target " + std::to_string(t.target_index) + "] " +
           TargetOpName(t) + "\n";
    out += "  original " + FormatCost(t.original_cost) + " -> best " +
           FormatCost(t.best_cost) + "  chosen: ";
    if (t.chosen >= 0) {
      out += "view(" + t.ChosenId() + ")  predicted benefit " +
             FormatCost(t.predicted_benefit_s);
    } else if (t.best_cost + 1e-9 < t.original_cost) {
      out += "original operator over rewritten producers";
    } else {
      out += "original plan";
    }
    out += "\n";
    for (const CandidateDecision& c : Candidates(i)) {
      std::string id = c.candidate_id;
      if (id.size() < 12) id.append(12 - id.size(), ' ');
      out += "    " + id + "  " + DescribeCandidate(c) + "\n";
    }
  }
  const DecisionCounts counts = Counts();
  out += "candidates: " + std::to_string(counts.candidates) +
         "  accepted: " + std::to_string(counts.accepted) +
         "  signature_mismatch: " + std::to_string(counts.signature_mismatch) +
         "  filter_not_implied: " + std::to_string(counts.filter_not_implied) +
         "  afk_containment: " + std::to_string(counts.afk_containment) +
         "  not_cost_improving: " +
         std::to_string(counts.not_cost_improving) +
         "  pruned_by_bound: " + std::to_string(counts.pruned_by_bound) +
         "\n";
  return out;
}

std::string DecisionLog::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("targets").BeginArray();
  for (size_t i = 0; i < targets.size(); ++i) {
    const TargetDecision& t = targets[i];
    w.BeginObject();
    w.Key("index").Int(t.target_index);
    w.Key("op").String(TargetOpName(t));
    w.Key("original_cost_s").Double(t.original_cost);
    w.Key("best_cost_s").Double(t.best_cost);
    w.Key("chosen").String(t.ChosenId());
    w.Key("predicted_benefit_s").Double(t.predicted_benefit_s);
    w.Key("candidates").BeginArray();
    for (const CandidateDecision& c : Candidates(i)) {
      w.BeginObject();
      w.Key("id").String(c.candidate_id);
      w.Key("parts").Int(c.num_parts);
      w.Key("opt_cost_s").Double(c.opt_cost);
      w.Key("guess_complete").Bool(c.guess_complete);
      w.Key("rewrite_found").Bool(c.rewrite_found);
      if (c.rewrite_found) w.Key("rewrite_cost_s").Double(c.rewrite_cost);
      w.Key("decision").String(RejectReasonCode(c.reject));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  const DecisionCounts counts = Counts();
  w.Key("counts").BeginObject();
  w.Key("candidates").UInt(counts.candidates);
  w.Key("accepted").UInt(counts.accepted);
  w.Key("signature_mismatch").UInt(counts.signature_mismatch);
  w.Key("filter_not_implied").UInt(counts.filter_not_implied);
  w.Key("afk_containment").UInt(counts.afk_containment);
  w.Key("not_cost_improving").UInt(counts.not_cost_improving);
  w.Key("pruned_by_bound").UInt(counts.pruned_by_bound);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace opd::rewrite
