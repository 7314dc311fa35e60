#include "plan/explain.h"

#include <cstdio>
#include <set>

namespace opd::plan {

namespace {

void Render(const OpNodePtr& node, int depth, const ExplainOptions& options,
            std::set<const OpNode*>* shared_printed, std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += node->DisplayName();
  // Pad the operator column.
  if (line.size() < 44) line.append(44 - line.size(), ' ');

  char buf[160];
  if (node->kind == OpKind::kScan) {
    std::snprintf(buf, sizeof(buf), " rows=%-10.0f %10s", node->est_rows,
                  "-");
    line += buf;
  } else {
    std::snprintf(buf, sizeof(buf), " rows=%-10.0f %9.1fs", node->est_rows,
                  node->cost.total_s);
    line += buf;
    std::snprintf(buf, sizeof(buf),
                  "  (read %.1f  cpu %.1f  shuffle %.1f  write %.1f)",
                  node->cost.read_s, node->cost.cpu_s, node->cost.shuffle_s,
                  node->cost.write_s);
    line += buf;
  }
  out->append(line);
  out->push_back('\n');
  if (options.show_afk) {
    std::string indent(static_cast<size_t>(depth) * 2 + 2, ' ');
    out->append(indent + "A,F,K: " + node->afk.ToString() + "\n");
  }
  // A shared subtree (a DAG materialization point) is expanded once.
  if (!shared_printed->insert(node.get()).second) return;
  for (const OpNodePtr& child : node->children) {
    if (shared_printed->count(child.get())) {
      std::string indent(static_cast<size_t>(depth + 1) * 2, ' ');
      out->append(indent + "(shared) " + child->DisplayName() + "\n");
      continue;
    }
    Render(child, depth + 1, options, shared_printed, out);
  }
}

}  // namespace

std::string Explain(const Plan& plan, const ExplainOptions& options) {
  if (plan.empty()) return "<empty plan>\n";
  std::string out;
  std::set<const OpNode*> shared_printed;
  Render(plan.root(), 0, options, &shared_printed, &out);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "total estimated cost: %.1fs\n",
                TotalCost(plan));
  out += buf;
  return out;
}

double TotalCost(const Plan& plan) {
  double total = 0;
  for (const OpNodePtr& node : plan.TopoOrder()) {
    total += node->cost.total_s;
  }
  return total;
}

}  // namespace opd::plan
