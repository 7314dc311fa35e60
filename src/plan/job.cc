#include "plan/job.h"

#include <algorithm>
#include <map>
#include <set>

namespace opd::plan {

namespace {
constexpr double kEps = 1e-9;
}

Result<JobDag> JobDag::Build(const Plan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  JobDag dag;
  std::map<const OpNode*, int> index;
  for (const OpNodePtr& node : plan.TopoOrder()) {
    if (node->kind == OpKind::kScan) continue;
    if (!node->annotated) {
      return Status::InvalidArgument("plan must be annotated before Build");
    }
    Job job;
    job.op = node;
    for (const OpNodePtr& child : node->children) {
      if (child->kind == OpKind::kScan) continue;
      auto it = index.find(child.get());
      if (it == index.end()) {
        return Status::Internal("topological order violated in JobDag::Build");
      }
      job.producers.push_back(it->second);
    }
    int id = static_cast<int>(dag.jobs_.size());
    index[node.get()] = id;
    for (int p : job.producers) dag.jobs_[p].consumers.push_back(id);
    dag.jobs_.push_back(std::move(job));
  }
  if (dag.jobs_.empty()) {
    return Status::InvalidArgument("plan contains only scans");
  }
  return dag;
}

double JobDag::TargetCost(size_t i) const {
  // Collect job i and all upstream producers.
  std::set<int> in_target;
  std::vector<int> stack = {static_cast<int>(i)};
  while (!stack.empty()) {
    int j = stack.back();
    stack.pop_back();
    if (!in_target.insert(j).second) continue;
    for (int p : jobs_[j].producers) stack.push_back(p);
  }
  double total = 0;
  for (int j : in_target) total += jobs_[j].op->cost.total_s;
  return total;
}

OpNodePtr JobDag::Compose(size_t i, std::span<const OpNodePtr> plans) const {
  const Job& job = jobs_[i];
  OpNodePtr node = CopyOperator(*job.op);
  size_t producer_idx = 0;
  for (const OpNodePtr& child : job.op->children) {
    if (child->kind == OpKind::kScan) {
      node->children.push_back(child);
    } else {
      node->children.push_back(plans[job.producers[producer_idx++]]);
    }
  }
  return node;
}

double JobDag::ComposedCost(size_t i, std::span<const double> costs) const {
  double cost = jobs_[i].op->cost.total_s;
  for (int p : jobs_[i].producers) cost += costs[p];
  return cost;
}

CostedPlan JobDag::BestComposition(
    std::span<const std::optional<CostedPlan>> direct) const {
  std::vector<OpNodePtr> plans(jobs_.size());
  std::vector<double> costs(jobs_.size());
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const Job& job = jobs_[i];
    const double composed = ComposedCost(i, costs);
    const double original = TargetCost(i);
    const bool producer_rewritten =
        std::any_of(job.producers.begin(), job.producers.end(),
                    [&](int p) { return plans[p] != jobs_[p].op; });
    if (direct[i].has_value() && direct[i]->cost <= composed) {
      plans[i] = direct[i]->root;
      costs[i] = direct[i]->cost;
    } else if (producer_rewritten && composed + kEps < original) {
      plans[i] = Compose(i, plans);
      costs[i] = composed;
    } else {
      plans[i] = job.op;
      costs[i] = std::min(composed, original);
    }
  }
  return {plans.back(), costs.back()};
}

}  // namespace opd::plan
