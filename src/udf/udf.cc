#include "udf/udf.h"

#include <algorithm>

namespace opd::udf {

bool UdfDefinition::HasShuffle() const {
  for (const LocalFunction& lf : local_functions) {
    if (lf.kind == LfKind::kReduce) return true;
  }
  return false;
}

namespace {

std::string ParamsStringForKeys(const std::vector<std::string>& keys,
                                const Params& params) {
  std::vector<std::string> sorted_keys = keys;
  std::sort(sorted_keys.begin(), sorted_keys.end());
  std::string out;
  for (const std::string& k : sorted_keys) {
    if (!out.empty()) out += ",";
    auto it = params.find(k);
    out += k + "=" + (it == params.end() ? "?" : it->second.ToString());
  }
  return out;
}

}  // namespace

Result<afk::Afk> ApplyUdfModel(const UdfDefinition& udf, const afk::Afk& in,
                               const Params& params) {
  const UdfModelSpec& m = udf.model;

  // Resolve consumed inputs.
  std::vector<afk::Attribute> consumed;
  for (const std::string& name : m.consumed) {
    auto a = in.FindByName(name);
    if (!a) {
      return Status::InvalidArgument("UDF " + udf.name +
                                     " requires absent input: " + name);
    }
    consumed.push_back(*a);
  }

  // Resolve pass-through attributes.
  std::vector<afk::Attribute> kept;
  if (m.kept.size() == 1 && m.kept[0] == "*") {
    kept = in.attrs();
  } else {
    for (const std::string& name : m.kept) {
      auto a = in.FindByName(name);
      if (!a) {
        return Status::InvalidArgument("UDF " + udf.name +
                                       " keeps absent attribute: " + name);
      }
      kept.push_back(*a);
    }
  }

  // The creation context recorded in output signatures: the input's (F, K).
  const std::string context = in.ContextString();

  // Build the derived output attributes.
  std::vector<afk::Attribute> outputs;
  for (const UdfOutputSpec& spec : m.outputs) {
    std::vector<afk::Attribute> deps;
    for (const std::string& dep_name : spec.deps) {
      auto a = in.FindByName(dep_name);
      if (!a) {
        return Status::InvalidArgument("UDF " + udf.name + " output " +
                                       spec.name +
                                       " depends on absent input: " + dep_name);
      }
      deps.push_back(*a);
    }
    outputs.push_back(afk::Attribute::Derived(
        spec.name, udf.name, std::move(deps), context,
        ParamsStringForKeys(spec.value_param_keys, params), spec.type));
  }

  // Assemble output attribute set: kept then outputs. An output whose name
  // collides with a kept attribute (e.g. re-applying a kept="*" UDF to its
  // own output) is invalid — the physical schema could not represent it.
  std::vector<afk::Attribute> out_attrs = kept;
  for (const afk::Attribute& out : outputs) {
    for (const afk::Attribute& existing : out_attrs) {
      if (existing.name() == out.name()) {
        return Status::InvalidArgument("UDF " + udf.name +
                                       " output name already present: " +
                                       out.name());
      }
    }
    out_attrs.push_back(out);
  }

  auto find_out = [&](const std::string& name) -> std::optional<afk::Attribute> {
    for (const afk::Attribute& a : out_attrs) {
      if (a.name() == name) return a;
    }
    return std::nullopt;
  };

  // Filters added by the UDF (thresholds etc.).
  afk::FilterSet filters = in.filters();
  for (const UdfFilterSpec& f : m.filters) {
    auto attr = find_out(f.attr);
    if (!attr) {
      return Status::InvalidArgument("UDF " + udf.name +
                                     " filters absent attribute: " + f.attr);
    }
    if (f.opaque) {
      filters.Add(afk::Predicate::Opaque(f.opaque_fn, {*attr}, ""));
    } else {
      double lit = ParamDouble(params, f.param_key, f.default_literal);
      filters.Add(afk::Predicate::Compare(*attr, f.op, storage::Value(lit)));
    }
  }

  // Keying of the output.
  afk::KeySet keys = in.keys();
  if (m.rekey.has_value()) {
    std::vector<afk::Attribute> key_attrs;
    for (const std::string& name : *m.rekey) {
      auto attr = find_out(name);
      if (!attr) {
        return Status::InvalidArgument("UDF " + udf.name +
                                       " rekeys on absent attribute: " + name);
      }
      key_attrs.push_back(*attr);
    }
    int depth = in.keys().agg_depth() + (m.rekey_groups ? 1 : 0);
    keys = afk::KeySet(std::move(key_attrs), depth);
  }

  return afk::Afk(std::move(out_attrs), std::move(filters), std::move(keys));
}

}  // namespace opd::udf
