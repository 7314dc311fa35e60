#include "rewrite/rewrite_enum.h"

#include <iterator>
#include <set>

#include "obs/metrics.h"
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

std::shared_ptr<const TargetSetup> MakeTargetSetup(
    const plan::OpNodePtr& target_root) {
  auto setup = std::make_shared<TargetSetup>();
  setup->target = MakeTargetContext(target_root);
  setup->useful_sigs = UsefulSignatures(setup->target.afk);
  return setup;
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

/// What REWRITEENUM's DFS found for one candidate AFK.
struct EnumOutcome {
  /// The candidate's compensation ops beyond the target's own: the fix
  /// filters (predicates of q not implied by the candidate) the target's
  /// ops lack. Op i of the candidate is target.ops[i], or fix_ops[i - n]
  /// past the target's n ops.
  std::vector<CompOp> fix_ops;
  /// Every op sequence (candidate op indices) that reached a state
  /// equivalent to the target, in DFS order.
  std::vector<std::vector<uint32_t>> sequences;
};

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
  /// The candidate's ops: the target's, then its fix filters.
  const std::vector<CompOp>* ops;
  const udf::UdfRegistry* udfs;
  /// Signatures a state may contain: the target's useful closure plus the
  /// candidate's own attributes. Any op application minting an attribute
  /// outside this set happened "out of context" (e.g. a UDF replayed after
  /// filters the target never applied at that point) and can never lead to
  /// exact equivalence — pruning these is what keeps the brute-force
  /// enumeration tractable.
  std::set<std::string> allowed;
  int max_depth = 0;  // target aggregation depth: states cannot exceed it
  std::set<std::string> visited;
  std::vector<uint32_t> seq;
  std::vector<int> remaining;
  /// Where the sequences reaching an equivalent state go, in DFS order.
  std::vector<std::vector<uint32_t>>* sequences;
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
  if (IsEquivalent(state, *env->target)) {
    // A valid state needs no further compensation on this branch, whether
    // or not its plan turns out to build and cost.
    env->sequences->push_back(env->seq);
    return;
  }
  if (++env->nodes > DfsEnv::kNodeBudget) return;
  const std::vector<CompOp>& ops = *env->ops;
  for (uint32_t i = 0; i < ops.size(); ++i) {
    if (env->remaining[i] <= 0) continue;
    auto next = ApplyCompOp(state, ops[i], *env->udfs);
    if (!next.ok()) continue;  // inapplicable in this state
    if (!env->StateAdmissible(next.value())) continue;  // out of context
    env->remaining[i] -= 1;
    std::string key = StateKey(next.value(), env->remaining);
    if (env->visited.insert(key).second) {
      env->seq.push_back(i);
      Dfs(env, next.value());
      env->seq.pop_back();
    }
    env->remaining[i] += 1;
  }
}

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

/// The outcome memo's counters, resolved once like BfRewriter's.
obs::Counter& EnumMemoCounter(bool hit) {
  static obs::Counter& hits =
      obs::MetricRegistry::Global().counter("rewrite.enum.memo_hit");
  static obs::Counter& misses =
      obs::MetricRegistry::Global().counter("rewrite.enum.memo_miss");
  return hit ? hits : misses;
}

std::shared_ptr<const EnumOutcome> Enumerate(const TargetSetup& setup,
                                             const afk::Afk& candidate,
                                             const EnumDeps& deps) {
  const size_t n = setup.target.ops.size();
  std::vector<CompOp> ops = setup.target.ops;
  std::set<std::string> ids;
  for (const CompOp& op : ops) ids.insert(op.id);
  const afk::Fix fix = ComputeFix(setup.target.afk, candidate);
  for (const afk::Predicate& pred : fix.missing_filters) {
    auto op = FixFilterOp(pred);
    if (op.has_value() && ids.insert(op->id).second) {
      ops.push_back(std::move(*op));
    }
  }

  auto outcome = std::make_shared<EnumOutcome>();
  DfsEnv env;
  env.target = &setup.target;
  env.ops = &ops;
  env.udfs = deps.udfs;
  env.max_depth = setup.target.afk.keys().agg_depth();
  env.allowed.insert(setup.useful_sigs.begin(), setup.useful_sigs.end());
  for (const Attribute& a : candidate.attrs()) {
    env.allowed.insert(a.signature());
  }
  env.remaining.assign(ops.size(), deps.options.max_op_repetition);
  env.sequences = &outcome->sequences;
  Dfs(&env, candidate);
  outcome->fix_ops.assign(std::make_move_iterator(ops.begin() + n),
                          std::make_move_iterator(ops.end()));
  return outcome;
}

}  // namespace

std::optional<EnumResult> RewriteEnum(const TargetSetup& setup,
                                      const CandidateView& candidate,
                                      const EnumDeps& deps) {
  std::string key = candidate.afk.CanonicalString();
  std::shared_ptr<const EnumOutcome> outcome;
  {
    std::lock_guard<std::mutex> lock(setup.enum_memo_mu);
    auto it = setup.enum_memo.find(key);
    if (it != setup.enum_memo.end()) outcome = it->second;
  }
  EnumMemoCounter(outcome != nullptr).Inc();
  if (outcome == nullptr) {
    outcome = Enumerate(setup, candidate.afk, deps);
    std::lock_guard<std::mutex> lock(setup.enum_memo_mu);
    if (setup.enum_memo.size() >= TargetSetup::kMaxEnumMemo &&
        setup.enum_memo.count(key) == 0) {
      setup.enum_memo.clear();
    }
    setup.enum_memo.emplace(std::move(key), outcome);
  }

  // Build and cost every sequence over the candidate's own views. One that
  // the symbolic state accepts but that cannot be planned or costed
  // (schema-representability edge cases) is simply not a rewrite.
  const std::vector<CompOp>& target_ops = setup.target.ops;
  std::optional<EnumResult> best;
  size_t found = 0;
  std::vector<const CompOp*> seq;
  for (const std::vector<uint32_t>& indices : outcome->sequences) {
    seq.clear();
    for (uint32_t i : indices) {
      seq.push_back(i < target_ops.size()
                        ? &target_ops[i]
                        : &outcome->fix_ops[i - target_ops.size()]);
    }
    auto plan_result = BuildRewritePlan(candidate, seq, setup.target, deps);
    if (!plan_result.ok()) continue;
    plan::Plan plan = std::move(plan_result).value();
    auto cost = deps.optimizer->PlanCost(&plan, deps.views);
    if (!cost.ok()) continue;
    found += 1;
    if (!best.has_value() || *cost < best->cost) {
      best = EnumResult{std::move(plan), *cost, 0};
    }
  }
  if (best.has_value()) best->rewrites_found = found;
  return best;
}

}  // namespace opd::rewrite
