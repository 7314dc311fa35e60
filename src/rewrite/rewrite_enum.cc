#include "rewrite/rewrite_enum.h"

#include <set>

#include "plan/annotate.h"

namespace opd::rewrite {

using afk::Afk;
using afk::Attribute;
using plan::OpKind;
using plan::OpNode;
using plan::OpNodePtr;

namespace {

std::string CompOpId(const CompOp& op) {
  switch (op.kind) {
    case CompOp::Kind::kFilter: {
      const plan::FilterCond& f = op.cond;
      if (f.kind == plan::FilterCond::Kind::kCompare) {
        return "F:" + f.column + afk::CmpOpName(f.op) + f.literal.ToString();
      }
      std::string id = "F:" + f.fn_name + "(";
      for (const auto& a : f.arg_columns) id += a + ",";
      return id + ")" + f.params;
    }
    case CompOp::Kind::kGroupBy: {
      std::string id = "G:";
      for (const auto& k : op.group.keys) id += k + ",";
      id += "|";
      for (const auto& a : op.group.aggs) {
        id += std::string(plan::AggFnName(a.fn)) + "(" + a.input + ")" +
              a.output + ",";
      }
      return id;
    }
    case CompOp::Kind::kUdf: {
      std::string id = "U:" + op.udf_name + "{";
      for (const auto& [k, v] : op.udf_params) id += k + "=" + v.ToString() + ",";
      return id + "}";
    }
  }
  return "?";
}

void CollectOps(const OpNodePtr& node, std::set<std::string>* seen,
                std::vector<CompOp>* out) {
  if (node == nullptr) return;
  for (const OpNodePtr& child : node->children) {
    CollectOps(child, seen, out);
  }
  CompOp op;
  bool usable = false;
  switch (node->kind) {
    case OpKind::kFilter:
      op.kind = CompOp::Kind::kFilter;
      op.cond = node->filter;
      usable = true;
      break;
    case OpKind::kGroupByAgg:
      op.kind = CompOp::Kind::kGroupBy;
      op.group = node->group;
      usable = true;
      break;
    case OpKind::kUdf:
      op.kind = CompOp::Kind::kUdf;
      op.udf_name = node->udf.udf_name;
      op.udf_params = node->udf.params;
      usable = true;
      break;
    default:
      break;  // scans/projects/joins are handled by MERGE + final projection
  }
  if (!usable) return;
  op.id = CompOpId(op);
  if (seen->insert(op.id).second) out->push_back(std::move(op));
}

}  // namespace

TargetContext MakeTargetContext(const plan::OpNodePtr& target_root) {
  TargetContext ctx;
  ctx.afk = target_root->afk;
  ctx.out_attrs = target_root->out_attrs;
  std::set<std::string> seen;
  CollectOps(target_root, &seen, &ctx.ops);
  return ctx;
}

Result<afk::Afk> ApplyCompOp(const afk::Afk& state, const CompOp& op,
                             const udf::UdfRegistry& udfs) {
  switch (op.kind) {
    case CompOp::Kind::kFilter: {
      OPD_ASSIGN_OR_RETURN(afk::Predicate pred,
                           plan::ResolveFilter(op.cond, state));
      return state.ApplyFilter(pred);
    }
    case CompOp::Kind::kGroupBy: {
      std::vector<Attribute> keys;
      for (const std::string& name : op.group.keys) {
        auto attr = state.FindByName(name);
        if (!attr) return Status::NotFound("group key absent: " + name);
        keys.push_back(*attr);
      }
      const std::string context = state.ContextString();
      std::vector<Attribute> aggs;
      for (const plan::AggSpec& spec : op.group.aggs) {
        std::optional<Attribute> input;
        if (!spec.input.empty()) {
          input = state.FindByName(spec.input);
          if (!input) {
            return Status::NotFound("aggregate input absent: " + spec.input);
          }
        }
        aggs.push_back(plan::MakeAggAttribute(spec.fn, input, spec.output,
                                              keys, context));
      }
      return state.GroupBy(keys, aggs);
    }
    case CompOp::Kind::kUdf: {
      OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                           udfs.Find(op.udf_name));
      return udf::ApplyUdfModel(*def, state, op.udf_params);
    }
  }
  return Status::Internal("unknown compensation op kind");
}

namespace {

// Checks whether `state` (projected onto the target's attributes) is exactly
// equivalent to the target annotation.
bool IsEquivalent(const Afk& state, const TargetContext& target) {
  for (const Attribute& a : target.afk.attrs()) {
    if (!state.HasAttr(a)) return false;
  }
  auto projected = state.Project(target.afk.attrs());
  if (!projected.ok()) return false;
  return projected.value() == target.afk;
}

// Builds the executable plan for a compensation sequence: candidate scan,
// the ops in order, and a final projection to the target's column order.
Result<plan::Plan> BuildRewritePlan(const CandidateView& candidate,
                                    const std::vector<const CompOp*>& seq,
                                    const TargetContext& target,
                                    const EnumDeps& deps) {
  OPD_ASSIGN_OR_RETURN(OpNodePtr node,
                       BuildCandidateScan(candidate, *deps.views));
  for (const CompOp* op : seq) {
    switch (op->kind) {
      case CompOp::Kind::kFilter:
        node = plan::Filter(std::move(node), op->cond);
        break;
      case CompOp::Kind::kGroupBy:
        node = plan::GroupBy(std::move(node), op->group.keys, op->group.aggs);
        break;
      case CompOp::Kind::kUdf:
        node = plan::Udf(std::move(node), op->udf_name, op->udf_params);
        break;
    }
  }
  // Final projection to the target's natural output order — skipped when a
  // bare single-view scan already has the exact schema.
  std::vector<std::string> names;
  names.reserve(target.out_attrs.size());
  for (const Attribute& a : target.out_attrs) names.push_back(a.name());
  bool needs_project = true;
  if (seq.empty() && candidate.NumParts() == 1) {
    OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                         deps.views->Find(candidate.parts[0]));
    if (def->schema.num_columns() == names.size()) {
      needs_project = false;
      for (size_t i = 0; i < names.size(); ++i) {
        if (def->schema.column(i).name != names[i]) {
          needs_project = true;
          break;
        }
      }
    }
  }
  if (needs_project) node = plan::Project(std::move(node), names);
  return plan::Plan(std::move(node), "rewrite");
}

struct DfsEnv {
  const TargetContext* target;
  const CandidateView* candidate;
  const EnumDeps* deps;
  /// Signatures a state may contain: the target's useful closure plus the
  /// candidate's own attributes. Any op application minting an attribute
  /// outside this set happened "out of context" (e.g. a UDF replayed after
  /// filters the target never applied at that point) and can never lead to
  /// exact equivalence — pruning these is what keeps the brute-force
  /// enumeration tractable.
  std::set<std::string> allowed;
  int max_depth = 0;  // target aggregation depth: states cannot exceed it
  std::set<std::string> visited;
  std::vector<const CompOp*> seq;
  std::vector<int> remaining;
  std::optional<EnumResult> best;
  Status error = Status::OK();
  size_t found = 0;
  size_t nodes = 0;  // safety valve against pathological spaces
  static constexpr size_t kNodeBudget = 200000;

  bool StateAdmissible(const Afk& state) const {
    if (state.keys().agg_depth() > max_depth) return false;
    for (const Attribute& a : state.attrs()) {
      if (!allowed.count(a.signature())) return false;
    }
    return true;
  }
};

std::string StateKey(const Afk& state, const std::vector<int>& remaining) {
  std::string key = state.CanonicalString();
  key += "#";
  for (int r : remaining) key += std::to_string(r) + ",";
  return key;
}

void Dfs(DfsEnv* env, const Afk& state) {
  if (!env->error.ok()) return;
  if (IsEquivalent(state, *env->target)) {
    // A sequence the symbolic state accepts but that cannot be planned or
    // costed (schema-representability edge cases) is simply not a rewrite;
    // prune it rather than aborting the search.
    auto plan_result =
        BuildRewritePlan(*env->candidate, env->seq, *env->target, *env->deps);
    if (!plan_result.ok()) return;
    plan::Plan plan = std::move(plan_result).value();
    auto cost = env->deps->optimizer->PlanCost(&plan, env->deps->views);
    if (!cost.ok()) return;
    env->found += 1;
    if (!env->best.has_value() || *cost < env->best->cost) {
      env->best = EnumResult{std::move(plan), *cost, 0};
    }
    // A valid state needs no further compensation on this branch.
    return;
  }
  if (++env->nodes > DfsEnv::kNodeBudget) return;
  for (size_t i = 0; i < env->target->ops.size(); ++i) {
    if (env->remaining[i] <= 0) continue;
    auto next = ApplyCompOp(state, env->target->ops[i], *env->deps->udfs);
    if (!next.ok()) continue;  // inapplicable in this state
    if (!env->StateAdmissible(next.value())) continue;  // out of context
    env->remaining[i] -= 1;
    std::string key = StateKey(next.value(), env->remaining);
    if (env->visited.insert(key).second) {
      env->seq.push_back(&env->target->ops[i]);
      Dfs(env, next.value());
      env->seq.pop_back();
    }
    env->remaining[i] += 1;
    if (!env->error.ok()) return;
  }
}

}  // namespace

namespace {

// Converts a fix predicate into a standalone filter compensation. Needed
// because a threshold filter applied *inside* a UDF (its model's F' entry)
// has no corresponding Filter node in the target plan; when a query revision
// tightens such a threshold, the compensation is exactly this predicate.
std::optional<CompOp> FixFilterOp(const afk::Predicate& pred) {
  CompOp op;
  op.kind = CompOp::Kind::kFilter;
  switch (pred.kind()) {
    case afk::Predicate::Kind::kCompare:
      op.cond = plan::FilterCond::Compare(pred.attr().name(), pred.op(),
                                          pred.literal());
      break;
    case afk::Predicate::Kind::kOpaque: {
      std::vector<std::string> args;
      for (const Attribute& a : pred.args()) args.push_back(a.name());
      op.cond = plan::FilterCond::Opaque(pred.fn_name(), std::move(args),
                                         pred.literal().ToString());
      break;
    }
    default:
      return std::nullopt;  // join-equality fixes come from MERGE, not here
  }
  op.id = CompOpId(op);
  return op;
}

}  // namespace

Result<std::optional<EnumResult>> RewriteEnum(const TargetContext& target,
                                              const CandidateView& candidate,
                                              const EnumDeps& deps) {
  // Per-candidate operator set: the target's ops plus the fix filters
  // (predicates of q not implied by the candidate).
  TargetContext local = target;
  std::set<std::string> ids;
  for (const CompOp& op : local.ops) ids.insert(op.id);
  const afk::Fix fix = ComputeFix(target.afk, candidate.afk);
  for (const afk::Predicate& pred : fix.missing_filters) {
    auto op = FixFilterOp(pred);
    if (op.has_value() && ids.insert(op->id).second) {
      local.ops.push_back(std::move(*op));
    }
  }

  DfsEnv env;
  env.target = &local;
  env.candidate = &candidate;
  env.deps = &deps;
  env.max_depth = target.afk.keys().agg_depth();
  for (const std::string& sig : UsefulSignatures(target.afk)) {
    env.allowed.insert(sig);
  }
  for (const Attribute& a : candidate.afk.attrs()) {
    env.allowed.insert(a.signature());
  }
  env.remaining.assign(local.ops.size(), deps.options.max_op_repetition);
  Dfs(&env, candidate.afk);
  OPD_RETURN_NOT_OK(env.error);
  if (!env.best.has_value()) return std::optional<EnumResult>{};
  env.best->rewrites_found = env.found;
  return std::optional<EnumResult>(std::move(*env.best));
}

}  // namespace opd::rewrite
