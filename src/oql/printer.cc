#include "oql/printer.h"

#include <map>
#include <set>
#include <sstream>

namespace opd::oql {

namespace {

using plan::OpKind;
using plan::OpNode;
using plan::OpNodePtr;

struct Printer {
  std::ostringstream out;
  std::map<const OpNode*, std::string> names;
  std::set<const OpNode*> multi_parent;
  int counter = 0;
  Status error = Status::OK();

  std::string Literal(const storage::Value& v) {
    if (v.type() == storage::DataType::kString) {
      return "\"" + v.as_string() + "\"";
    }
    return v.ToString();
  }

  const char* AggName(plan::AggFn fn) {
    switch (fn) {
      case plan::AggFn::kCount:
        return "count";
      case plan::AggFn::kSum:
        return "sum";
      case plan::AggFn::kAvg:
        return "avg";
      case plan::AggFn::kMin:
        return "min";
      case plan::AggFn::kMax:
        return "max";
    }
    return "?";
  }

  // Renders the pipeline expression for `node`, emitting bindings for shared
  // subtrees first. Returns the inline expression text.
  std::string Expr(const OpNodePtr& node, bool as_source) {
    auto it = names.find(node.get());
    if (it != names.end()) return it->second;

    std::string text;
    switch (node->kind) {
      case OpKind::kScan:
        text = node->view_id >= 0
                   ? "view " + std::to_string(node->view_id)
                   : "scan " + node->table;
        break;
      case OpKind::kJoin: {
        // join must be a source: bind both inputs.
        std::string left = Bind(node->children[0]);
        std::string right = Bind(node->children[1]);
        text = "join " + left + " " + right + " on ";
        for (size_t i = 0; i < node->join.pairs.size(); ++i) {
          if (i > 0) text += ", ";
          text += node->join.pairs[i].first + " = " +
                  node->join.pairs[i].second;
        }
        break;
      }
      case OpKind::kProject: {
        text = Expr(node->children[0], true) + "\n  | project ";
        for (size_t i = 0; i < node->project.size(); ++i) {
          if (i > 0) text += ", ";
          text += node->project[i];
        }
        break;
      }
      case OpKind::kFilter: {
        text = Expr(node->children[0], true) + "\n  | filter ";
        const plan::FilterCond& f = node->filter;
        if (f.kind == plan::FilterCond::Kind::kCompare) {
          const char* op = afk::CmpOpName(f.op);
          std::string spelled = std::string(op) == "=" ? "==" : op;
          text += f.column + " " + spelled + " " + Literal(f.literal);
        } else {
          text += f.fn_name + "(";
          for (size_t i = 0; i < f.arg_columns.size(); ++i) {
            if (i > 0) text += ", ";
            text += f.arg_columns[i];
          }
          text += ")";
        }
        break;
      }
      case OpKind::kGroupByAgg: {
        text = Expr(node->children[0], true) + "\n  | groupby ";
        for (size_t i = 0; i < node->group.keys.size(); ++i) {
          if (i > 0) text += ", ";
          text += node->group.keys[i];
        }
        text += " ";
        for (size_t i = 0; i < node->group.aggs.size(); ++i) {
          const auto& agg = node->group.aggs[i];
          if (i > 0) text += ", ";
          text += std::string(AggName(agg.fn)) + "(" +
                  (agg.input.empty() ? "*" : agg.input) + ") as " +
                  agg.output;
        }
        break;
      }
      case OpKind::kUdf: {
        text = Expr(node->children[0], true) + "\n  | udf " +
               node->udf.udf_name;
        if (!node->udf.params.empty()) {
          text += "(";
          bool first = true;
          for (const auto& [key, value] : node->udf.params) {
            if (!first) text += ", ";
            first = false;
            text += key + " = " + Literal(value);
          }
          text += ")";
        }
        break;
      }
    }

    // Shared subtrees (or join sources) become their own bindings.
    if (multi_parent.count(node.get()) && !as_source) {
      return BindText(node.get(), text);
    }
    if (multi_parent.count(node.get())) {
      return BindText(node.get(), text);
    }
    return text;
  }

  std::string Bind(const OpNodePtr& node) {
    auto it = names.find(node.get());
    if (it != names.end()) return it->second;
    return BindText(node.get(), Expr(node, true));
  }

  std::string BindText(const OpNode* node, const std::string& text) {
    auto it = names.find(node);
    if (it != names.end()) return it->second;
    std::string name = "t";
    name += std::to_string(counter++);
    out << name << " = " << text << ";\n";
    names[node] = name;
    return name;
  }
};

void CountParents(const OpNodePtr& node, std::map<const OpNode*, int>* counts,
                  std::set<const OpNode*>* seen) {
  for (const OpNodePtr& child : node->children) {
    (*counts)[child.get()] += 1;
    if (seen->insert(child.get()).second) {
      CountParents(child, counts, seen);
    }
  }
}

}  // namespace

Result<std::string> Print(const plan::Plan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  Printer printer;
  std::map<const OpNode*, int> counts;
  std::set<const OpNode*> seen;
  CountParents(plan.root(), &counts, &seen);
  for (const auto& [node, count] : counts) {
    if (count > 1) printer.multi_parent.insert(node);
  }
  std::string final_expr = printer.Expr(plan.root(), false);
  OPD_RETURN_NOT_OK(printer.error);
  printer.out << "result = " << final_expr << ";\n";
  return printer.out.str();
}

}  // namespace opd::oql
