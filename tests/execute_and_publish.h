// Test helper for fixtures that drive a bare exec::Engine. The engine never
// publishes the views it materializes; on the serving path
// Server::RunAdmitted does. This helper publishes a run's pending views the
// same way — one ViewStore::PublishBatch per run, views_created counting
// the views the store actually added — so engine-level tests see the store
// a served query would leave behind.

#ifndef OPD_TESTS_EXECUTE_AND_PUBLISH_H_
#define OPD_TESTS_EXECUTE_AND_PUBLISH_H_

#include <utility>

#include "catalog/view_store.h"
#include "common/status.h"
#include "exec/engine.h"
#include "plan/plan.h"

namespace opd::testing_exec {

inline Result<exec::ExecResult> ExecuteAndPublish(exec::Engine& engine,
                                                  catalog::ViewStore& views,
                                                  plan::Plan* plan) {
  OPD_ASSIGN_OR_RETURN(exec::ExecResult result, engine.Execute(plan));
  for (const auto& pub : views.PublishBatch(std::move(result.pending_views))) {
    if (pub.added) ++result.metrics.views_created;
  }
  result.pending_views.clear();
  return result;
}

}  // namespace opd::testing_exec

#endif  // OPD_TESTS_EXECUTE_AND_PUBLISH_H_
