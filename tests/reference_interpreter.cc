#include "reference_interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "afk/predicate.h"
#include "catalog/catalog.h"
#include "udf/udf_registry.h"

namespace opd::reference {

using plan::AggFn;
using plan::OpKind;
using plan::OpNode;
using storage::DataType;
using storage::Row;
using storage::Schema;
using storage::Value;

namespace {

// A materialized intermediate result.
struct Rel {
  Schema schema;
  std::vector<Row> rows;
};

bool IsNumeric(DataType t) {
  return t == DataType::kBool || t == DataType::kInt64 ||
         t == DataType::kDouble;
}

// Total order on key cells whose equivalence classes are the key equality of
// the file comment: null < numeric < string; numerics by double value with
// every NaN equal to every other NaN and above all numbers.
int CompareKeyCell(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    return IsNumeric(v.type()) ? 1 : 2;
  };
  const int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 2) return a.as_string().compare(b.as_string());
  const double x = a.ToDouble(), y = b.ToDouble();
  if (std::isnan(x) || std::isnan(y)) {
    return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
  }
  return x < y ? -1 : (y < x ? 1 : 0);
}

struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      const int c = CompareKeyCell(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

Result<size_t> Col(const Schema& schema, const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx) return Status::NotFound("reference: no column " + name);
  return *idx;
}

Row KeyOf(const Row& row, const std::vector<size_t>& cols) {
  Row key;
  for (size_t c : cols) key.push_back(row[c]);
  return key;
}

// Groups `rows` by the cells at `cols`: first-seen key row plus the member
// rows in input order, groups in key order.
std::map<Row, std::vector<const Row*>, KeyLess> GroupRows(
    const std::vector<Row>& rows, const std::vector<size_t>& cols) {
  std::map<Row, std::vector<const Row*>, KeyLess> groups;
  for (const Row& row : rows) {
    groups.try_emplace(KeyOf(row, cols)).first->second.push_back(&row);
  }
  return groups;
}

Value Aggregate(AggFn fn, DataType out_type,
                const std::vector<const Row*>& rows,
                const std::optional<size_t>& col) {
  auto at = [&](const Row* r) { return col ? (*r)[*col] : Value(int64_t{1}); };
  switch (fn) {
    case AggFn::kCount:
      return Value(static_cast<int64_t>(rows.size()));
    case AggFn::kSum:
    case AggFn::kAvg: {
      if (fn == AggFn::kSum && out_type == DataType::kInt64) {
        uint64_t sum = 0;  // unsigned: wrapping overflow is defined
        for (const Row* r : rows) {
          const Value v = at(r);
          if (v.type() == DataType::kInt64) {
            sum += static_cast<uint64_t>(v.as_int64());
          }
        }
        return Value(static_cast<int64_t>(sum));
      }
      double sum = 0;
      for (const Row* r : rows) sum += at(r).ToDouble();
      return fn == AggFn::kSum
                 ? Value(sum)
                 : Value(sum / static_cast<double>(rows.size()));
    }
    case AggFn::kMin:
    case AggFn::kMax: {
      Value best = at(rows.front());
      for (const Row* r : rows) {
        const Value v = at(r);
        if (fn == AggFn::kMin ? v < best : best < v) best = v;
      }
      return best;
    }
  }
  return Value::Null();
}

class Interpreter {
 public:
  Interpreter(const plan::AnnotationContext& ctx, storage::Dfs* dfs)
      : ctx_(ctx), dfs_(dfs) {}

  Result<const Rel*> Eval(const OpNode* node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) return it->second.get();
    std::vector<const Rel*> in;
    for (const auto& child : node->children) {
      OPD_ASSIGN_OR_RETURN(const Rel* r, Eval(child.get()));
      in.push_back(r);
    }
    auto out = std::make_unique<Rel>();
    out->schema = node->out_schema;
    OPD_RETURN_NOT_OK(EvalNode(*node, in, &out->rows));
    const Rel* result = out.get();
    memo_[node] = std::move(out);
    return result;
  }

 private:
  Status EvalNode(const OpNode& node, const std::vector<const Rel*>& in,
                  std::vector<Row>* out) {
    switch (node.kind) {
      case OpKind::kScan: {
        // Original plans only: a view scan would take the engine's word.
        if (node.view_id >= 0) {
          return Status::InvalidArgument("reference: plan scans a view");
        }
        OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                             ctx_.catalog->Find(node.table));
        OPD_ASSIGN_OR_RETURN(storage::TablePtr table,
                             dfs_->Read(entry->dfs_path));
        *out = table->ToRows();
        return Status::OK();
      }
      case OpKind::kProject: {
        std::vector<size_t> cols;
        for (const std::string& name : node.project) {
          OPD_ASSIGN_OR_RETURN(size_t c, Col(in[0]->schema, name));
          cols.push_back(c);
        }
        for (const Row& row : in[0]->rows) out->push_back(KeyOf(row, cols));
        return Status::OK();
      }
      case OpKind::kFilter:
        return EvalFilter(node.filter, *in[0], out);
      case OpKind::kJoin:
        return EvalJoin(node, *in[0], *in[1], out);
      case OpKind::kGroupByAgg:
        return EvalGroupBy(node, *in[0], out);
      case OpKind::kUdf: {
        OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                             ctx_.udfs->Find(node.udf.udf_name));
        OPD_ASSIGN_OR_RETURN(auto stages,
                             RunUdfStages(*def, in[0]->schema, in[0]->rows,
                                          node.udf.params));
        *out = std::move(stages.back());
        return Status::OK();
      }
    }
    return Status::Internal("reference: unknown operator");
  }

  Status EvalFilter(const plan::FilterCond& cond, const Rel& in,
                    std::vector<Row>* out) {
    if (cond.kind == plan::FilterCond::Kind::kCompare) {
      OPD_ASSIGN_OR_RETURN(size_t c, Col(in.schema, cond.column));
      for (const Row& row : in.rows) {
        if (afk::EvalCmp(row[c], cond.op, cond.literal)) out->push_back(row);
      }
      return Status::OK();
    }
    OPD_ASSIGN_OR_RETURN(const udf::PredicateFn* fn,
                         ctx_.udfs->FindPredicate(cond.fn_name));
    std::vector<size_t> cols;
    for (const std::string& name : cond.arg_columns) {
      OPD_ASSIGN_OR_RETURN(size_t c, Col(in.schema, name));
      cols.push_back(c);
    }
    udf::Params params;
    if (!cond.params.empty()) params["params"] = Value(cond.params);
    for (const Row& row : in.rows) {
      if ((*fn)(KeyOf(row, cols), params)) out->push_back(row);
    }
    return Status::OK();
  }

  Status EvalJoin(const OpNode& node, const Rel& left, const Rel& right,
                  std::vector<Row>* out) {
    std::vector<size_t> lkeys, rkeys;
    for (const auto& [l, r] : node.join.pairs) {
      OPD_ASSIGN_OR_RETURN(size_t lc, Col(left.schema, l));
      OPD_ASSIGN_OR_RETURN(size_t rc, Col(right.schema, r));
      lkeys.push_back(lc);
      rkeys.push_back(rc);
    }
    // Each output column comes from the left side when it has that name,
    // otherwise from the right.
    std::vector<std::pair<bool, size_t>> from;
    for (const auto& col : node.out_schema.columns()) {
      if (auto lc = left.schema.IndexOf(col.name)) {
        from.emplace_back(true, *lc);
      } else {
        OPD_ASSIGN_OR_RETURN(size_t rc, Col(right.schema, col.name));
        from.emplace_back(false, rc);
      }
    }
    for (const Row& l : left.rows) {
      for (const Row& r : right.rows) {
        bool match = true;
        for (size_t k = 0; k < lkeys.size() && match; ++k) {
          match = CompareKeyCell(l[lkeys[k]], r[rkeys[k]]) == 0;
        }
        if (!match) continue;
        Row row;
        for (const auto& [is_left, c] : from) {
          row.push_back(is_left ? l[c] : r[c]);
        }
        out->push_back(std::move(row));
      }
    }
    return Status::OK();
  }

  Status EvalGroupBy(const OpNode& node, const Rel& in,
                     std::vector<Row>* out) {
    std::vector<size_t> keys;
    for (const std::string& name : node.group.keys) {
      OPD_ASSIGN_OR_RETURN(size_t c, Col(in.schema, name));
      keys.push_back(c);
    }
    std::vector<std::optional<size_t>> inputs;
    for (const plan::AggSpec& spec : node.group.aggs) {
      if (spec.input.empty()) {
        inputs.push_back(std::nullopt);
      } else {
        OPD_ASSIGN_OR_RETURN(size_t c, Col(in.schema, spec.input));
        inputs.push_back(c);
      }
    }
    const auto& out_cols = node.out_schema.columns();
    for (const auto& [key, rows] : GroupRows(in.rows, keys)) {
      Row row = KeyOf(*rows.front(), keys);  // first-seen key cells
      for (size_t a = 0; a < node.group.aggs.size(); ++a) {
        row.push_back(Aggregate(node.group.aggs[a].fn,
                                out_cols[keys.size() + a].type, rows,
                                inputs[a]));
      }
      out->push_back(std::move(row));
    }
    return Status::OK();
  }

  const plan::AnnotationContext& ctx_;
  storage::Dfs* dfs_;
  std::map<const OpNode*, std::unique_ptr<Rel>> memo_;
};

// Canonical, type-tagged rendering of one cell.
std::string CellString(const Value& v) {
  char buf[64];
  switch (v.type()) {
    case DataType::kNull:
      return "N";
    case DataType::kBool:
      return v.as_bool() ? "B1" : "B0";
    case DataType::kInt64:
      return "I" + std::to_string(v.as_int64());
    case DataType::kDouble: {
      const double d = v.as_double();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      std::snprintf(buf, sizeof(buf), "D%016llx(%.17g)",
                    static_cast<unsigned long long>(bits), d);
      return buf;
    }
    case DataType::kString:
      return "S" + std::to_string(v.as_string().size()) + ":" +
             v.as_string();
  }
  return "?";
}

}  // namespace

Result<std::vector<Row>> Evaluate(const plan::Plan& plan,
                                  const plan::AnnotationContext& ctx,
                                  storage::Dfs* dfs) {
  OPD_RETURN_NOT_OK(plan::AnnotatePlan(plan, ctx));
  Interpreter interp(ctx, dfs);
  OPD_ASSIGN_OR_RETURN(const Rel* sink, interp.Eval(plan.root().get()));
  return sink->rows;
}

Result<std::vector<std::vector<Row>>> RunUdfStages(
    const udf::UdfDefinition& udf, const Schema& schema, std::vector<Row> rows,
    const udf::Params& params) {
  std::vector<std::vector<Row>> stages;
  Schema in_schema = schema;
  for (const udf::LocalFunction& lf : udf.local_functions) {
    OPD_ASSIGN_OR_RETURN(Schema out_schema, lf.out_schema(in_schema, params));
    udf::LfContext ctx;
    ctx.in_schema = &in_schema;
    ctx.out_schema = &out_schema;
    ctx.params = &params;
    std::vector<Row> next;
    if (lf.kind == udf::LfKind::kMap) {
      // One-row batches: the engine calls the same function on split-sized
      // slices, so agreeing with it also shows that the output does not
      // depend on where batches are cut.
      for (size_t r = 0; r < rows.size(); ++r) {
        const storage::RowBatch out =
            lf.map_fn(storage::RowBatch::FromRows(in_schema, rows, r, r + 1),
                      ctx);
        for (size_t i = 0; i < out.num_rows(); ++i) {
          next.push_back(out.RowAt(i));
        }
      }
    } else {
      std::vector<size_t> keys;
      for (const std::string& name : lf.group_keys) {
        OPD_ASSIGN_OR_RETURN(size_t c, Col(in_schema, name));
        keys.push_back(c);
      }
      // Each group runs over one batch of its own rows.
      for (const auto& [key, members] : GroupRows(rows, keys)) {
        std::vector<Row> group;
        for (const Row* r : members) group.push_back(*r);
        const std::vector<storage::RowBatch> batches = {
            storage::RowBatch::FromRows(in_schema, group, 0, group.size())};
        std::vector<storage::RowRef> refs(group.size());
        for (uint32_t i = 0; i < refs.size(); ++i) refs[i] = {0, i};
        storage::BatchBuilder out(out_schema);
        lf.reduce_fn(udf::GroupView(batches, refs.data(), refs.size()), ctx,
                     &out);
        const storage::RowBatch emitted = out.Finish();
        for (size_t i = 0; i < emitted.num_rows(); ++i) {
          next.push_back(emitted.RowAt(i));
        }
      }
    }
    stages.push_back(next);
    rows = std::move(next);
    in_schema = std::move(out_schema);
  }
  if (stages.empty()) {
    return Status::InvalidArgument("UDF has no local functions: " + udf.name);
  }
  return stages;
}

std::vector<std::string> Multiset(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) s += CellString(v) + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace opd::reference
