#include "plan/fingerprint.h"

namespace opd::plan {

namespace {

std::string PayloadString(const OpNode& node) {
  switch (node.kind) {
    case OpKind::kScan:
      return node.view_id >= 0 ? "view:" + std::to_string(node.view_id)
                               : node.table;
    case OpKind::kProject: {
      std::string out;
      for (const auto& c : node.project) out += c + ",";
      return out;
    }
    case OpKind::kFilter: {
      const FilterCond& f = node.filter;
      if (f.kind == FilterCond::Kind::kCompare) {
        return f.column + std::string(afk::CmpOpName(f.op)) +
               f.literal.ToString();
      }
      std::string out = f.fn_name + "[";
      for (const auto& a : f.arg_columns) out += a + ",";
      return out + "]" + f.params;
    }
    case OpKind::kJoin: {
      std::string out;
      for (const auto& [l, r] : node.join.pairs) out += l + "=" + r + ",";
      return out;
    }
    case OpKind::kGroupByAgg: {
      std::string out = "keys:";
      for (const auto& k : node.group.keys) out += k + ",";
      out += "aggs:";
      for (const auto& a : node.group.aggs) {
        out += std::string(AggFnName(a.fn)) + "(" + a.input + ")as" + a.output +
               ",";
      }
      return out;
    }
    case OpKind::kUdf: {
      std::string out = node.udf.udf_name + "{";
      for (const auto& [k, v] : node.udf.params) {
        out += k + "=" + v.ToString() + ",";
      }
      return out + "}";
    }
  }
  return "";
}

}  // namespace

std::string Fingerprint(const OpNodePtr& node) {
  if (node == nullptr) return "<null>";
  std::string out = OpKindName(node->kind);
  out += '(';
  out += PayloadString(*node);
  for (const OpNodePtr& child : node->children) {
    out += ';';
    out += Fingerprint(child);
  }
  out += ")";
  return out;
}

}  // namespace opd::plan
