#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

namespace opd::optimizer {

using plan::OpKind;
using plan::OpNode;

namespace {

double SumWidths(const OpNode& node) {
  double total = 0;
  for (const auto& col : node.out_schema.columns()) {
    auto it = node.est_col_bytes.find(col.name);
    total += it == node.est_col_bytes.end() ? 8.0 : it->second;
  }
  return total;
}

void FinishBytes(OpNode* node) {
  node->est_out_bytes = node->est_rows * SumWidths(*node);
}

// Caps every distinct estimate at the row count.
void CapDistinct(OpNode* node) {
  for (auto& [_, d] : node->est_distinct) {
    d = std::min(d, std::max(node->est_rows, 1.0));
  }
}

}  // namespace

Status Optimizer::EstimateNode(plan::OpNode* node,
                               const plan::AnnotationContext& ctx) const {
  node->est_col_bytes.clear();
  node->est_distinct.clear();
  switch (node->kind) {
    case OpKind::kScan: {
      const catalog::TableStats* stats = nullptr;
      if (node->view_id >= 0) {
        OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                             ctx.FindView(node->view_id));
        stats = &def->stats;
      } else {
        OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                             ctx_.catalog->Find(node->table));
        stats = &entry->stats;
      }
      node->est_rows = stats->rows;
      for (const auto& col : node->out_schema.columns()) {
        node->est_col_bytes[col.name] =
            stats->ColBytesOr(col.name, options_.default_col_bytes);
        node->est_distinct[col.name] = stats->DistinctOr(col.name, stats->rows);
      }
      break;
    }
    case OpKind::kProject: {
      const OpNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      for (const std::string& name : node->project) {
        auto wb = child.est_col_bytes.find(name);
        node->est_col_bytes[name] =
            wb == child.est_col_bytes.end() ? options_.default_col_bytes
                                            : wb->second;
        auto d = child.est_distinct.find(name);
        node->est_distinct[name] =
            d == child.est_distinct.end() ? child.est_rows : d->second;
      }
      break;
    }
    case OpKind::kFilter: {
      const OpNode& child = *node->children[0];
      double sel = options_.opaque_selectivity;
      if (node->filter.kind == plan::FilterCond::Kind::kCompare) {
        sel = node->filter.op == afk::CmpOp::kEq ? options_.eq_selectivity
                                                 : options_.cmp_selectivity;
      }
      node->est_rows = child.est_rows * sel;
      node->est_col_bytes = child.est_col_bytes;
      node->est_distinct = child.est_distinct;
      break;
    }
    case OpKind::kJoin: {
      const OpNode& left = *node->children[0];
      const OpNode& right = *node->children[1];
      double denom = 1.0;
      for (const auto& [lname, rname] : node->join.pairs) {
        auto ld = left.est_distinct.count(lname)
                      ? left.est_distinct.at(lname)
                      : std::max(left.est_rows, 1.0);
        auto rd = right.est_distinct.count(rname)
                      ? right.est_distinct.at(rname)
                      : std::max(right.est_rows, 1.0);
        denom = std::max(denom, std::max(ld, rd));
      }
      node->est_rows = left.est_rows * right.est_rows / std::max(denom, 1.0);
      node->est_col_bytes = left.est_col_bytes;
      node->est_distinct = left.est_distinct;
      // Right columns that survived the join (they are in out_schema).
      for (const auto& col : node->out_schema.columns()) {
        if (!node->est_col_bytes.count(col.name)) {
          auto wb = right.est_col_bytes.find(col.name);
          node->est_col_bytes[col.name] =
              wb == right.est_col_bytes.end() ? options_.default_col_bytes
                                              : wb->second;
          auto d = right.est_distinct.find(col.name);
          node->est_distinct[col.name] =
              d == right.est_distinct.end() ? right.est_rows : d->second;
        }
      }
      break;
    }
    case OpKind::kGroupByAgg: {
      const OpNode& child = *node->children[0];
      double groups = 1.0;
      for (const std::string& key : node->group.keys) {
        auto d = child.est_distinct.find(key);
        groups *= d == child.est_distinct.end() ? std::max(child.est_rows, 1.0)
                                                : std::max(d->second, 1.0);
      }
      node->est_rows = std::min(groups, std::max(child.est_rows, 0.0));
      for (const std::string& key : node->group.keys) {
        auto wb = child.est_col_bytes.find(key);
        node->est_col_bytes[key] = wb == child.est_col_bytes.end()
                                       ? options_.default_col_bytes
                                       : wb->second;
        auto d = child.est_distinct.find(key);
        node->est_distinct[key] =
            d == child.est_distinct.end() ? node->est_rows : d->second;
      }
      for (const auto& agg : node->group.aggs) {
        node->est_col_bytes[agg.output] = 8.0;
        node->est_distinct[agg.output] = node->est_rows;
      }
      break;
    }
    case OpKind::kUdf: {
      const OpNode& child = *node->children[0];
      OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                           ctx_.udfs->Find(node->udf.udf_name));
      node->est_rows = std::max(child.est_rows * def->expansion(), 0.0);
      for (const auto& col : node->out_schema.columns()) {
        auto wb = child.est_col_bytes.find(col.name);
        if (wb != child.est_col_bytes.end()) {
          node->est_col_bytes[col.name] = wb->second;
        } else {
          node->est_col_bytes[col.name] =
              col.type == storage::DataType::kString
                  ? 2 * options_.default_col_bytes
                  : options_.default_col_bytes;
        }
        auto d = child.est_distinct.find(col.name);
        node->est_distinct[col.name] =
            d == child.est_distinct.end() ? node->est_rows : d->second;
      }
      break;
    }
  }
  CapDistinct(node);
  FinishBytes(node);
  return Status::OK();
}

Status Optimizer::CostNode(plan::OpNode* node) const {
  if (node->kind == OpKind::kScan) {
    // Scans are folded into the consuming job's read phase.
    node->cost = plan::JobCostInfo{};
    return Status::OK();
  }
  double in_bytes = 0;
  for (const auto& child : node->children) in_bytes += child->est_out_bytes;

  bool has_shuffle = false;
  double map_scalar = 1.0, reduce_scalar = 1.0;
  switch (node->kind) {
    case OpKind::kJoin:
    case OpKind::kGroupByAgg:
      has_shuffle = true;
      break;
    case OpKind::kUdf: {
      OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                           ctx_.udfs->Find(node->udf.udf_name));
      has_shuffle = def->HasShuffle();
      map_scalar = def->map_scalar;
      reduce_scalar = def->reduce_scalar;
      break;
    }
    default:
      break;
  }
  const double shuffle_bytes = has_shuffle ? in_bytes : 0.0;
  node->cost = model_.JobCost(in_bytes, shuffle_bytes, node->est_out_bytes,
                              map_scalar, reduce_scalar, has_shuffle);
  return Status::OK();
}

Status Optimizer::PrepareNode(plan::OpNode* node,
                              const catalog::ViewSnapshot* views) const {
  if (ctx_.catalog == nullptr || ctx_.views == nullptr ||
      ctx_.udfs == nullptr) {
    return Status::InvalidArgument("annotation context incomplete");
  }
  plan::AnnotationContext ctx = ctx_;
  ctx.snapshot = views;
  OPD_RETURN_NOT_OK(plan::AnnotateNode(node, ctx));
  OPD_RETURN_NOT_OK(EstimateNode(node, ctx));
  return CostNode(node);
}

Status Optimizer::Prepare(plan::Plan* plan,
                          const catalog::ViewSnapshot* views) const {
  return PlanCost(plan, views).status();
}

Result<double> Optimizer::PlanCost(plan::Plan* plan,
                                   const catalog::ViewSnapshot* views) const {
  if (plan->empty()) return Status::InvalidArgument("empty plan");
  double total = 0;
  for (const plan::OpNodePtr& node : plan->TopoOrder()) {
    OPD_RETURN_NOT_OK(PrepareNode(node.get(), views));
    total += node->cost.total_s;
  }
  return total;
}

}  // namespace opd::optimizer
