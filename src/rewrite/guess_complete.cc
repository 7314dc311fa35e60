#include "rewrite/guess_complete.h"

#include <set>

namespace opd::rewrite {

bool GuessComplete(const afk::Afk& q, const afk::Afk& v) {
  // (iii) depth: v must not be more aggregated than q.
  if (v.keys().agg_depth() > q.keys().agg_depth()) return false;

  // (ii) every filter of v must be implied by q's filters.
  if (!q.filters().ImpliesAll(v.filters())) return false;

  // (i) attribute producibility closure.
  std::set<std::string> closure;
  for (const afk::Attribute& a : ProducibleClosure(q, v)) {
    closure.insert(a.signature());
  }
  for (const afk::Attribute& a : q.attrs()) {
    if (!closure.count(a.signature())) return false;
  }
  // (iii) continued: when the keying differs, the compensation must re-key
  // — a group-by, or at the same depth a re-keying UDF that does not group
  // (UDF_TOKENIZE clears K) — so the attributes q is keyed on must be
  // obtainable. When K_v == K_q, the key may be a projected-out column (K
  // survives projection) and need not be producible.
  if (!(v.keys() == q.keys())) {
    for (const afk::Attribute& k : q.keys().keys()) {
      if (!closure.count(k.signature())) return false;
    }
  }
  return true;
}

}  // namespace opd::rewrite
