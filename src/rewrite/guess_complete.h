// GUESSCOMPLETE (Section 4.1): a quick, conservative containment guess. May
// return false positives (REWRITEENUM does the exact check) but never false
// negatives for rewrites expressible in the model.

#ifndef OPD_REWRITE_GUESS_COMPLETE_H_
#define OPD_REWRITE_GUESS_COMPLETE_H_

#include "afk/afk.h"

namespace opd::rewrite {

/// \brief Returns true if `v` might produce a complete rewrite of `q`:
///  (i)   v contains all attributes of q, or the attributes needed to
///        produce them (producibility closure);
///  (ii)  v has weaker-or-equal selection predicates than q;
///  (iii) v is no more aggregated than q, and when v is keyed differently,
///        q's keys are obtainable (the compensation must re-key).
bool GuessComplete(const afk::Afk& q, const afk::Afk& v);

}  // namespace opd::rewrite

#endif  // OPD_REWRITE_GUESS_COMPLETE_H_
