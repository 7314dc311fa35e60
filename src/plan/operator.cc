#include "plan/operator.h"

namespace opd::plan {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kScan:
      return "SCAN";
    case OpKind::kProject:
      return "PROJECT";
    case OpKind::kFilter:
      return "FILTER";
    case OpKind::kJoin:
      return "JOIN";
    case OpKind::kGroupByAgg:
      return "GROUPBY";
    case OpKind::kUdf:
      return "UDF";
  }
  return "?";
}

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
  }
  return "?";
}

FilterCond FilterCond::Compare(std::string column, afk::CmpOp op,
                               storage::Value literal) {
  FilterCond c;
  c.kind = Kind::kCompare;
  c.column = std::move(column);
  c.op = op;
  c.literal = std::move(literal);
  return c;
}

FilterCond FilterCond::Opaque(std::string fn_name,
                              std::vector<std::string> arg_columns,
                              std::string params) {
  FilterCond c;
  c.kind = Kind::kOpaque;
  c.fn_name = std::move(fn_name);
  c.arg_columns = std::move(arg_columns);
  c.params = std::move(params);
  return c;
}

std::string FilterCond::ToDisplayString() const {
  if (kind == Kind::kCompare) {
    return column + std::string(afk::CmpOpName(op)) + literal.ToString();
  }
  std::string out = fn_name + "(";
  for (size_t i = 0; i < arg_columns.size(); ++i) {
    if (i > 0) out += ",";
    out += arg_columns[i];
  }
  return out + ")";
}

std::string OpNode::DisplayName() const {
  std::string out = OpKindName(kind);
  switch (kind) {
    case OpKind::kScan:
      out += view_id >= 0 ? "(view:" + std::to_string(view_id) + ")"
                          : "(" + table + ")";
      break;
    case OpKind::kFilter:
      out += '(';
      out += filter.ToDisplayString();
      out += ')';
      break;
    case OpKind::kUdf:
      out += "(" + udf.udf_name + ")";
      break;
    case OpKind::kGroupByAgg: {
      out += "(";
      for (size_t i = 0; i < group.keys.size(); ++i) {
        if (i > 0) out += ",";
        out += group.keys[i];
      }
      out += ")";
      break;
    }
    default:
      break;
  }
  return out;
}

OpNodePtr CopyOperator(const OpNode& node) {
  auto copy = std::make_shared<OpNode>();
  copy->kind = node.kind;
  copy->table = node.table;
  copy->view_id = node.view_id;
  copy->project = node.project;
  copy->filter = node.filter;
  copy->join = node.join;
  copy->group = node.group;
  copy->udf = node.udf;
  return copy;
}

OpNodePtr CloneTree(const OpNodePtr& node) {
  if (node == nullptr) return nullptr;
  OpNodePtr copy = CopyOperator(*node);
  for (const OpNodePtr& child : node->children) {
    copy->children.push_back(CloneTree(child));
  }
  return copy;
}

}  // namespace opd::plan
