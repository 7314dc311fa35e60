#include "plan/annotate.h"

#include <algorithm>
#include <set>

namespace opd::plan {

using afk::Afk;
using afk::Attribute;
using afk::Predicate;
using storage::Column;
using storage::DataType;
using storage::Schema;

storage::DataType AggOutputType(AggFn fn, storage::DataType input_type) {
  switch (fn) {
    case AggFn::kCount:
      return DataType::kInt64;
    case AggFn::kSum:
      return input_type == DataType::kInt64 ? DataType::kInt64
                                            : DataType::kDouble;
    case AggFn::kAvg:
      return DataType::kDouble;
    case AggFn::kMin:
    case AggFn::kMax:
      return input_type;
  }
  return DataType::kDouble;
}

afk::Attribute MakeAggAttribute(AggFn fn,
                                const std::optional<afk::Attribute>& input,
                                const std::string& out_name,
                                const std::vector<afk::Attribute>& group_keys,
                                const std::string& context) {
  std::vector<Attribute> deps;
  DataType in_type = DataType::kInt64;
  if (input.has_value()) {
    deps.push_back(*input);
    in_type = input->type();
  }
  // The grouping keys enter the signature via params: the same aggregate over
  // different keys is a different attribute.
  std::string params = "keys=";
  std::vector<std::string> key_sigs;
  for (const Attribute& k : group_keys) key_sigs.push_back(k.signature());
  std::sort(key_sigs.begin(), key_sigs.end());
  for (size_t i = 0; i < key_sigs.size(); ++i) {
    if (i > 0) params += "|";
    params += key_sigs[i];
  }
  return Attribute::Derived(out_name, std::string("agg:") + AggFnName(fn),
                            std::move(deps), context, params,
                            AggOutputType(fn, in_type));
}

Result<afk::Predicate> ResolveFilter(const FilterCond& cond,
                                     const afk::Afk& input) {
  if (cond.kind == FilterCond::Kind::kCompare) {
    auto attr = input.FindByName(cond.column);
    if (!attr) {
      return Status::NotFound("filter column not found: " + cond.column);
    }
    return Predicate::Compare(*attr, cond.op, cond.literal);
  }
  std::vector<Attribute> args;
  for (const std::string& name : cond.arg_columns) {
    auto attr = input.FindByName(name);
    if (!attr) {
      return Status::NotFound("filter argument not found: " + name);
    }
    args.push_back(*attr);
  }
  return Predicate::Opaque(cond.fn_name, std::move(args), cond.params);
}

Result<storage::Schema> UdfOutputSchema(const udf::UdfDefinition& udf,
                                        const storage::Schema& in_schema,
                                        const udf::Params& params) {
  Schema current = in_schema;
  for (const udf::LocalFunction& lf : udf.local_functions) {
    OPD_ASSIGN_OR_RETURN(current, lf.out_schema(current, params));
  }
  return current;
}

namespace {

Status CheckUniqueNames(const std::vector<Attribute>& attrs,
                        const std::string& where) {
  std::set<std::string> names;
  for (const Attribute& a : attrs) {
    if (!names.insert(a.name()).second) {
      return Status::InvalidArgument("duplicate output name '" + a.name() +
                                     "' in " + where);
    }
  }
  return Status::OK();
}

Schema SchemaFromAttrs(const std::vector<Attribute>& attrs) {
  std::vector<Column> cols;
  cols.reserve(attrs.size());
  for (const Attribute& a : attrs) cols.push_back(Column{a.name(), a.type()});
  return Schema(std::move(cols));
}

}  // namespace

Status AnnotateNode(OpNode* node, const AnnotationContext& ctx) {
  if (node->annotated) return Status::OK();
  switch (node->kind) {
    case OpKind::kScan: {
      if (node->view_id >= 0) {
        OPD_ASSIGN_OR_RETURN(const catalog::ViewDefinition* def,
                             ctx.FindView(node->view_id));
        node->afk = def->afk;
        node->out_attrs = def->out_attrs;
        node->out_schema = def->schema;
      } else {
        OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* entry,
                             ctx.catalog->Find(node->table));
        node->afk = entry->afk;
        node->out_attrs = entry->attrs;
        node->out_schema = entry->schema;
      }
      break;
    }
    case OpKind::kProject: {
      const OpNode& child = *node->children[0];
      std::vector<Attribute> keep;
      for (const std::string& name : node->project) {
        auto attr = child.afk.FindByName(name);
        if (!attr) {
          return Status::NotFound("project column not found: " + name);
        }
        keep.push_back(*attr);
      }
      OPD_ASSIGN_OR_RETURN(node->afk, child.afk.Project(keep));
      node->out_attrs = std::move(keep);
      node->out_schema = SchemaFromAttrs(node->out_attrs);
      break;
    }
    case OpKind::kFilter: {
      const OpNode& child = *node->children[0];
      OPD_ASSIGN_OR_RETURN(node->resolved_filter,
                           ResolveFilter(node->filter, child.afk));
      OPD_ASSIGN_OR_RETURN(node->afk,
                           child.afk.ApplyFilter(node->resolved_filter));
      node->out_attrs = child.out_attrs;
      node->out_schema = child.out_schema;
      break;
    }
    case OpKind::kJoin: {
      const OpNode& left = *node->children[0];
      const OpNode& right = *node->children[1];
      std::vector<std::pair<Attribute, Attribute>> pairs;
      for (const auto& [lname, rname] : node->join.pairs) {
        auto l = left.afk.FindByName(lname);
        if (!l) return Status::NotFound("left join column not found: " + lname);
        auto r = right.afk.FindByName(rname);
        if (!r) {
          return Status::NotFound("right join column not found: " + rname);
        }
        pairs.emplace_back(*l, *r);
      }
      OPD_ASSIGN_OR_RETURN(node->afk, left.afk.Join(right.afk, pairs));
      // Natural output order: left columns, then right columns that are
      // neither duplicates (same signature) nor coalesced join columns.
      std::set<std::string> sigs;
      std::set<std::string> coalesced;
      for (const auto& [l, r] : pairs) {
        if (!(l == r)) coalesced.insert(r.signature());
      }
      node->out_attrs.clear();
      for (const Attribute& a : left.out_attrs) {
        node->out_attrs.push_back(a);
        sigs.insert(a.signature());
      }
      for (const Attribute& a : right.out_attrs) {
        if (!sigs.count(a.signature()) && !coalesced.count(a.signature())) {
          node->out_attrs.push_back(a);
          sigs.insert(a.signature());
        }
      }
      OPD_RETURN_NOT_OK(CheckUniqueNames(node->out_attrs, "JOIN output"));
      node->out_schema = SchemaFromAttrs(node->out_attrs);
      break;
    }
    case OpKind::kGroupByAgg: {
      const OpNode& child = *node->children[0];
      std::vector<Attribute> keys;
      for (const std::string& name : node->group.keys) {
        auto attr = child.afk.FindByName(name);
        if (!attr) return Status::NotFound("group key not found: " + name);
        keys.push_back(*attr);
      }
      const std::string context = child.afk.ContextString();
      std::vector<Attribute> aggs;
      for (const AggSpec& spec : node->group.aggs) {
        std::optional<Attribute> input;
        if (!spec.input.empty()) {
          input = child.afk.FindByName(spec.input);
          if (!input) {
            return Status::NotFound("aggregate input not found: " + spec.input);
          }
        } else if (spec.fn != AggFn::kCount) {
          return Status::InvalidArgument(
              "only COUNT may omit an input column");
        }
        aggs.push_back(
            MakeAggAttribute(spec.fn, input, spec.output, keys, context));
      }
      OPD_ASSIGN_OR_RETURN(node->afk, child.afk.GroupBy(keys, aggs));
      node->out_attrs = keys;
      node->out_attrs.insert(node->out_attrs.end(), aggs.begin(), aggs.end());
      OPD_RETURN_NOT_OK(CheckUniqueNames(node->out_attrs, "GROUPBY output"));
      node->out_schema = SchemaFromAttrs(node->out_attrs);
      break;
    }
    case OpKind::kUdf: {
      const OpNode& child = *node->children[0];
      OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* def,
                           ctx.udfs->Find(node->udf.udf_name));
      OPD_ASSIGN_OR_RETURN(
          node->afk, udf::ApplyUdfModel(*def, child.afk, node->udf.params));
      // Aligned attribute order: kept inputs (in child order for "*"), then
      // the model's outputs.
      node->out_attrs.clear();
      if (def->model.kept.size() == 1 && def->model.kept[0] == "*") {
        node->out_attrs = child.out_attrs;
      } else {
        for (const std::string& name : def->model.kept) {
          auto attr = child.afk.FindByName(name);
          if (!attr) {
            return Status::NotFound("UDF kept attribute not found: " + name);
          }
          node->out_attrs.push_back(*attr);
        }
      }
      for (const udf::UdfOutputSpec& out : def->model.outputs) {
        auto attr = node->afk.FindByName(out.name);
        if (!attr) {
          return Status::Internal("UDF model output missing after apply: " +
                                  out.name);
        }
        node->out_attrs.push_back(*attr);
      }
      OPD_RETURN_NOT_OK(CheckUniqueNames(node->out_attrs, "UDF output"));
      node->out_schema = SchemaFromAttrs(node->out_attrs);
      // Cross-check the model against the executable local functions.
      OPD_ASSIGN_OR_RETURN(
          Schema physical,
          UdfOutputSchema(*def, child.out_schema, node->udf.params));
      if (!(physical == node->out_schema)) {
        return Status::Internal(
            "UDF " + def->name + " model/implementation schema mismatch: " +
            node->out_schema.ToString() + " vs " + physical.ToString());
      }
      break;
    }
  }
  node->annotated = true;
  return Status::OK();
}

Status AnnotatePlan(const Plan& plan, const AnnotationContext& ctx) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  if (ctx.catalog == nullptr || ctx.views == nullptr || ctx.udfs == nullptr) {
    return Status::InvalidArgument("annotation context incomplete");
  }
  for (const OpNodePtr& node : plan.TopoOrder()) {
    OPD_RETURN_NOT_OK(AnnotateNode(node.get(), ctx));
  }
  return Status::OK();
}

}  // namespace opd::plan
