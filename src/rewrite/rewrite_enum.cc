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

/// What REWRITEENUM's DFS found for one candidate AFK. It holds only op
/// indices, never plan nodes (which annotation mutates), because setups
/// and their memos are shared across tenants.
struct EnumOutcome {
  /// The candidate's compensation ops beyond the target's own: the fix
  /// filters (predicates of q not implied by the candidate) the target's
  /// ops lack. Op i of the candidate is target.ops[i], or fix_ops[i - n]
  /// past the target's n ops.
  std::vector<CompOp> fix_ops;
  /// One prefix of the DFS: its parent's prefix followed by candidate op
  /// `op` (unused at the root, the empty prefix).
  struct Node {
    uint32_t op = 0;
    /// One past the last node of this node's subtree in `tree`. Its first
    /// child, if any, is the next node, and each child's `end` is its next
    /// sibling.
    uint32_t end = 0;
  };
  /// The DFS's prefix tree in preorder (DFS order), pruned to the paths
  /// that reach a state equivalent to the target: a node is such a state
  /// exactly when it has no children, and the op sequences along the paths
  /// to those leaves are the rewrites to cost, in DFS order. Empty when no
  /// sequence reached equivalence.
  std::vector<Node> tree;
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
  std::vector<int> remaining;
  /// The outcome's prefix tree; its last node is the current prefix.
  std::vector<EnumOutcome::Node>* tree;
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

// Explores the current prefix (the tree's last node), in `state`. Returns
// whether some path from it reached an equivalent state; if none did, the
// prefix is popped off the tree again, its subtree with it.
bool Dfs(DfsEnv* env, const Afk& state) {
  std::vector<EnumOutcome::Node>& tree = *env->tree;
  const size_t self = tree.size() - 1;
  // A valid state needs no further compensation on this branch, whether
  // or not its plan turns out to build and cost.
  bool reached = IsEquivalent(state, *env->target);
  if (!reached && ++env->nodes <= DfsEnv::kNodeBudget) {
    const std::vector<CompOp>& ops = *env->ops;
    for (uint32_t i = 0; i < ops.size(); ++i) {
      if (env->remaining[i] <= 0) continue;
      auto next = ApplyCompOp(state, ops[i], *env->udfs);
      if (!next.ok()) continue;  // inapplicable in this state
      if (!env->StateAdmissible(next.value())) continue;  // out of context
      env->remaining[i] -= 1;
      std::string key = StateKey(next.value(), env->remaining);
      if (env->visited.insert(key).second) {
        tree.push_back(EnumOutcome::Node{i, 0});
        reached |= Dfs(env, next.value());
      }
      env->remaining[i] += 1;
    }
  }
  if (!reached) {
    tree.pop_back();  // every child that reached nothing is popped already
    return false;
  }
  tree[self].end = static_cast<uint32_t>(tree.size());
  return true;
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
  env.tree = &outcome->tree;
  outcome->tree.push_back(EnumOutcome::Node{});
  Dfs(&env, candidate);
  outcome->fix_ops.assign(std::make_move_iterator(ops.begin() + n),
                          std::make_move_iterator(ops.end()));
  return outcome;
}

// Appends `op` to the chain ending in `child`.
OpNodePtr ApplyToPlan(const CompOp& op, OpNodePtr child) {
  switch (op.kind) {
    case CompOp::Kind::kFilter:
      return plan::Filter(std::move(child), op.cond);
    case CompOp::Kind::kGroupBy:
      return plan::GroupBy(std::move(child), op.group.keys, op.group.aggs);
    case CompOp::Kind::kUdf:
      return plan::Udf(std::move(child), op.udf_name, op.udf_params);
  }
  return nullptr;
}

/// Builds and costs an outcome's rewrites over one candidate's views by
/// walking its prefix tree depth-first. A rewrite plan is a chain: the
/// candidate scan, the sequence's ops, and a final projection to the
/// target's column order. Each prefix's node is made once, as the child of
/// its parent prefix's node, and prepared once; the cost of its chain so
/// far is carried down, summed in the order `Plan::TopoOrder` lists the
/// chain, so every total is the double `Optimizer::PlanCost` gives the
/// finished plan.
///
/// Node costs are never negative, so a prefix whose partial cost is not
/// below the best total so far has no completion that replaces the best
/// (only a strictly cheaper one does). Its subtree is only annotated: that
/// still counts the rewrites that build and cost, because past the
/// candidate scan a chain node fails to estimate or cost only where it
/// fails to annotate (an unknown UDF).
struct Replay {
  const EnumOutcome* outcome;
  const std::vector<CompOp>* target_ops;
  const EnumDeps* deps;
  plan::AnnotationContext annotate;
  /// The final projection's columns.
  std::vector<std::string> names;
  /// Whether the empty sequence, a bare single-view scan with exactly the
  /// target's schema, skips the final projection.
  bool bare_scan = false;

  std::optional<EnumResult> best;
  size_t found = 0;
  uint64_t nodes_costed = 0;

  const CompOp& Op(uint32_t i) const {
    const size_t n = target_ops->size();
    return i < n ? (*target_ops)[i] : outcome->fix_ops[i - n];
  }

  // Whether a completion of a prefix costing `sum` could replace the best.
  bool Open(double sum) const {
    return !best.has_value() || sum < best->cost;
  }

  // Prepares `node`, or only annotates it when its prefix is not open;
  // false when it fails either way.
  bool Step(plan::OpNode* node, bool open) {
    if (!open) return plan::AnnotateNode(node, annotate).ok();
    if (!deps->optimizer->PrepareNode(node, deps->views).ok()) return false;
    nodes_costed += 1;
    return true;
  }

  // Visits tree node `i`, whose prefix ends in `node` and costs `sum`. Past
  // a prefix that is not open, `sum` stays that prefix's, so its subtree
  // stays closed: no leaf in it can change the best.
  void Visit(uint32_t i, const OpNodePtr& node, double sum) {
    const std::vector<EnumOutcome::Node>& tree = outcome->tree;
    if (tree[i].end == i + 1) {
      Finish(i == 0, node, sum);
      return;
    }
    for (uint32_t c = i + 1; c < tree[i].end; c = tree[c].end) {
      const bool open = Open(sum);
      OpNodePtr child = ApplyToPlan(Op(tree[c].op), node);
      if (!Step(child.get(), open)) continue;
      Visit(c, child, open ? sum + child->cost.total_s : sum);
    }
  }

  // Completes an equivalent prefix into a rewrite plan.
  void Finish(bool empty_sequence, const OpNodePtr& node, double sum) {
    const bool open = Open(sum);
    OpNodePtr root = node;
    if (!(empty_sequence && bare_scan)) {
      root = plan::Project(node, names);
      if (!Step(root.get(), open)) return;
      if (open) sum += root->cost.total_s;
    }
    found += 1;
    if (open && Open(sum)) {
      best = EnumResult{plan::Plan(root, "rewrite"), sum, 0};
    }
  }
};

/// `rewrite.enum.nodes_costed`: the plan nodes REWRITEENUM prepares
/// (estimates and costs), resolved once like the memo counters.
obs::Counter& NodesCostedCounter() {
  static obs::Counter& costed =
      obs::MetricRegistry::Global().counter("rewrite.enum.nodes_costed");
  return costed;
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
  if (outcome->tree.empty()) return std::nullopt;

  // Every rewrite starts with the candidate scan, so it is built and
  // prepared once. A sequence the symbolic state accepts but that cannot
  // be planned or costed (schema-representability edge cases) is simply not
  // a rewrite; when the scan itself fails, none is.
  auto scan = BuildCandidateScan(candidate, *deps.views);
  if (!scan.ok()) return std::nullopt;
  Replay replay;
  replay.outcome = outcome.get();
  replay.target_ops = &setup.target.ops;
  replay.deps = &deps;
  replay.annotate = deps.optimizer->context();
  replay.annotate.snapshot = deps.views;
  double scan_cost = 0;
  for (const OpNodePtr& node : plan::Plan(*scan).TopoOrder()) {
    if (!replay.Step(node.get(), true)) {
      NodesCostedCounter().Inc(replay.nodes_costed);
      return std::nullopt;
    }
    scan_cost += node->cost.total_s;
  }

  const TargetContext& target = setup.target;
  replay.names.reserve(target.out_attrs.size());
  for (const Attribute& a : target.out_attrs) replay.names.push_back(a.name());
  if (candidate.NumParts() == 1) {
    const storage::Schema& schema = (*scan)->out_schema;
    replay.bare_scan = schema.num_columns() == replay.names.size();
    for (size_t i = 0; replay.bare_scan && i < replay.names.size(); ++i) {
      replay.bare_scan = schema.column(i).name == replay.names[i];
    }
  }
  replay.Visit(0, *scan, scan_cost);
  NodesCostedCounter().Inc(replay.nodes_costed);
  if (replay.best.has_value()) replay.best->rewrites_found = replay.found;
  return std::move(replay.best);
}

}  // namespace opd::rewrite
