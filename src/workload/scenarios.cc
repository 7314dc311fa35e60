#include "workload/scenarios.h"

#include <algorithm>
#include <cstdlib>

#include "catalog/eviction.h"
#include "exec/udf_exec.h"
#include "plan/job.h"
#include "udf/builtin_udfs.h"

namespace opd::workload {

namespace {

constexpr double kGB = 1024.0 * 1024.0 * 1024.0;
/// Modeled size of the TWTR log (the paper's 800 GB Twitter log).
constexpr double kModeledTwtrGb = 800.0;

}  // namespace

Result<std::unique_ptr<TestBed>> TestBed::Create(TestBedConfig config) {
  auto bed = std::unique_ptr<TestBed>(new TestBed());
  bed->config_ = config;

  storage::TablePtr twtr = GenerateTwitterLog(config.data);
  storage::TablePtr fsq = GenerateFoursquareLog(config.data);
  storage::TablePtr land = GenerateLandmarks(config.data);

  // Derive the byte scale so the synthetic TWTR log models the paper's
  // 800 GB Twitter log.
  SessionOptions sopts = config.session;
  const double twtr_bytes = static_cast<double>(twtr->ByteSize());
  if (twtr_bytes > 0) {
    sopts.cost.data_scale = kModeledTwtrGb * kGB / twtr_bytes;
  }
  if (std::getenv("OPD_TRACE") != nullptr) sopts.obs.tracing = true;

  OPD_ASSIGN_OR_RETURN(bed->server_, Server::Create(sopts));
  bed->session_ = bed->server_->Connect("default");
  OPD_RETURN_NOT_OK(udf::RegisterBuiltinUdfs(&bed->udfs()));
  OPD_RETURN_NOT_OK(bed->server_->RegisterTable(twtr, {"tweet_id"}));
  OPD_RETURN_NOT_OK(bed->server_->RegisterTable(fsq, {"checkin_id"}));
  OPD_RETURN_NOT_OK(bed->server_->RegisterTable(land, {"location_id"}));

  // The comparison rewriters (ablations) share the server's optimizer and
  // view store.
  bed->dp_ = std::make_unique<rewrite::DpRewriter>(
      &bed->optimizer(), &bed->views(), config.session.rewrite);
  bed->syntactic_ = std::make_unique<rewrite::SyntacticRewriter>(
      &bed->optimizer(), &bed->views());

  if (config.calibrate_udfs) {
    OPD_RETURN_NOT_OK(bed->Calibrate());
  }
  return bed;
}

Status TestBed::Calibrate() {
  OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* twtr_entry,
                       catalog().Find("TWTR"));
  OPD_ASSIGN_OR_RETURN(const catalog::BaseTableEntry* land_entry,
                       catalog().Find("LAND"));
  OPD_ASSIGN_OR_RETURN(storage::TablePtr twtr,
                       dfs().Peek(twtr_entry->dfs_path));
  OPD_ASSIGN_OR_RETURN(storage::TablePtr land,
                       dfs().Peek(land_entry->dfs_path));

  optimizer::CalibrationOptions copts;
  auto calibrate = [&](const std::string& name, const storage::Table& input,
                       const udf::Params& params) -> Status {
    OPD_ASSIGN_OR_RETURN(udf::UdfDefinition * def,
                         udfs().FindMutable(name));
    return optimizer::CalibrateUdf(def, input, params, copts);
  };

  // UDFs calibrated directly on the raw logs.
  OPD_RETURN_NOT_OK(calibrate("UDF_CLASSIFY_WINE_SCORE", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDF_CLASSIFY_FOOD_SCORE", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDAF_CLASSIFY_AFFLUENT", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDF_FRIENDSHIP_STRENGTH", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDF_EXTRACT_LATLON", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDF_TOKENIZE", *twtr, {}));
  OPD_RETURN_NOT_OK(calibrate("UDF_PARSE_LOG", *twtr, {}));
  udf::Params menu_params = {
      {"ref_menu", storage::Value(ReferenceMenu())},
      {"min_sim", storage::Value(0.1)}};
  OPD_RETURN_NOT_OK(calibrate("UDF_MENU_SIMILARITY", *land, menu_params));

  // UDFs whose inputs are other UDFs' outputs: chain the sampled stages.
  storage::Table sample = optimizer::SampleTable(*twtr, 0.05, copts.seed);
  OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* latlon,
                       udfs().Find("UDF_EXTRACT_LATLON"));
  storage::Table with_latlon;
  OPD_RETURN_NOT_OK(
      exec::RunLocalFunctions(*latlon, sample, {}, &with_latlon));
  OPD_RETURN_NOT_OK(calibrate("UDF_GEO_TILE", with_latlon,
                              {{"tile_size", storage::Value(1.0)}}));

  OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* tokenize,
                       udfs().Find("UDF_TOKENIZE"));
  storage::Table tokens;
  OPD_RETURN_NOT_OK(exec::RunLocalFunctions(*tokenize, sample, {}, &tokens));
  OPD_RETURN_NOT_OK(calibrate("UDF_WORD_COUNT", tokens, {}));

  OPD_ASSIGN_OR_RETURN(const udf::UdfDefinition* friendship,
                       udfs().Find("UDF_FRIENDSHIP_STRENGTH"));
  storage::Table pairs;
  OPD_RETURN_NOT_OK(exec::RunLocalFunctions(
      *friendship, *twtr, {{"min_strength", storage::Value(1.0)}}, &pairs));
  OPD_RETURN_NOT_OK(calibrate("UDF_NETWORK_INFLUENCE", pairs, {}));
  return Status::OK();
}

void TestBed::DropAllViews() {
  views().DropAll();
  dfs().DeletePrefix("views/");
}

Result<exec::ExecResult> TestBed::RunOriginal(int analyst, int version) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, BuildQuery(analyst, version));
  RunOptions off;
  off.rewrite = false;
  OPD_ASSIGN_OR_RETURN(RunResult run, session_.Run(std::move(plan), off));
  exec::ExecResult exec;
  exec.table = std::move(run.table);
  exec.metrics = run.metrics;
  exec.jobs = std::move(run.jobs);
  return exec;
}

Result<TestBed::RewrittenRun> TestBed::RunRewritten(int analyst,
                                                    int version) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, BuildQuery(analyst, version));
  OPD_ASSIGN_OR_RETURN(RunResult run, session_.Run(std::move(plan)));
  exec::ExecResult exec;
  exec.table = std::move(run.table);
  exec.metrics = run.metrics;
  exec.jobs = std::move(run.jobs);
  return RewrittenRun{std::move(exec), std::move(run.rewrite)};
}

// --- Scenario drivers -------------------------------------------------------

namespace {

/// Drops every view of the current store that `drop` selects, with its DFS
/// file.
template <typename Pred>
Status DropViewsWhere(TestBed* bed, Pred drop) {
  // The snapshot keeps each definition alive across its own Drop.
  const catalog::ViewSnapshot snapshot = bed->views().Snapshot();
  for (const catalog::ViewDefinition* view : snapshot.All()) {
    if (!drop(*view)) continue;
    OPD_RETURN_NOT_OK(bed->views().Drop(view->id));
    OPD_RETURN_NOT_OK(bed->dfs().Delete(view->dfs_path));
  }
  return Status::OK();
}

ComparisonRow MakeRow(int analyst, int version,
                      const exec::ExecResult& orig,
                      const TestBed::RewrittenRun& rewr, double data_scale) {
  ComparisonRow row;
  row.analyst = analyst;
  row.version = version;
  row.orig_time_s = orig.metrics.sim_time_s;
  row.rewr_time_s = rewr.TotalTime();
  row.orig_gb = static_cast<double>(orig.metrics.BytesManipulated()) *
                data_scale / kGB;
  row.rewr_gb = static_cast<double>(rewr.exec.metrics.BytesManipulated()) *
                data_scale / kGB;
  row.stats = rewr.outcome.stats;
  return row;
}

}  // namespace

Result<std::vector<ComparisonRow>> RunQueryEvolution(TestBed* bed) {
  std::vector<ComparisonRow> rows;
  const double scale = bed->optimizer().cost_model().params().data_scale;
  for (int analyst = 1; analyst <= kNumAnalysts; ++analyst) {
    bed->DropAllViews();
    for (int version = 1; version <= kNumVersions; ++version) {
      // Rewrite before this version's own original run creates its views.
      OPD_ASSIGN_OR_RETURN(TestBed::RewrittenRun rewr,
                           bed->RunRewritten(analyst, version));
      OPD_ASSIGN_OR_RETURN(exec::ExecResult orig,
                           bed->RunOriginal(analyst, version));
      rows.push_back(MakeRow(analyst, version, orig, rewr, scale));
    }
  }
  return rows;
}

Result<std::vector<ComparisonRow>> RunUserEvolution(
    TestBed* bed, bool drop_identical_views) {
  std::vector<ComparisonRow> rows;
  const double scale = bed->optimizer().cost_model().params().data_scale;
  for (int holdout = 1; holdout <= kNumAnalysts; ++holdout) {
    bed->DropAllViews();
    for (int analyst = 1; analyst <= kNumAnalysts; ++analyst) {
      if (analyst == holdout) continue;
      OPD_ASSIGN_OR_RETURN(exec::ExecResult ignored,
                           bed->RunOriginal(analyst, 1));
      (void)ignored;
    }
    if (drop_identical_views) {
      OPD_RETURN_NOT_OK(DropIdenticalViews(bed, holdout, 1));
    }
    OPD_ASSIGN_OR_RETURN(TestBed::RewrittenRun rewr,
                         bed->RunRewritten(holdout, 1));
    OPD_ASSIGN_OR_RETURN(exec::ExecResult orig,
                         bed->RunOriginal(holdout, 1));
    rows.push_back(MakeRow(holdout, 1, orig, rewr, scale));
  }
  return rows;
}

Result<std::vector<double>> RunAnalystAccumulation(TestBed* bed) {
  bed->DropAllViews();
  OPD_ASSIGN_OR_RETURN(exec::ExecResult baseline, bed->RunOriginal(5, 3));
  const double baseline_time = baseline.metrics.sim_time_s;
  // Remove the baseline run's own views: the re-executions may only benefit
  // from *other analysts'* views.
  bed->DropAllViews();

  std::vector<double> improvements = {0.0};  // 1 analyst: A5 alone
  const int order[] = {1, 2, 3, 4, 6, 7, 8};
  for (int analyst : order) {
    for (int version = 1; version <= kNumVersions; ++version) {
      OPD_ASSIGN_OR_RETURN(exec::ExecResult ignored,
                           bed->RunOriginal(analyst, version));
      (void)ignored;
    }
    // Measure, then roll back the measurement run's own views: drop every
    // view it published, with its DFS file.
    const catalog::Epoch before = bed->views().epoch();
    OPD_ASSIGN_OR_RETURN(TestBed::RewrittenRun rewr, bed->RunRewritten(5, 3));
    OPD_RETURN_NOT_OK(DropViewsWhere(
        bed, [before](const catalog::ViewDefinition& view) {
          return view.publish_epoch > before;
        }));
    double improvement =
        baseline_time <= 0
            ? 0
            : 100.0 * (baseline_time - rewr.TotalTime()) / baseline_time;
    improvements.push_back(improvement);
  }
  return improvements;
}

Result<plan::Plan> BuildVariantQuery(TestBed* bed, int analyst, int version,
                                     int round) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, BuildQuery(analyst, version));
  if (round == 0) return plan;
  // Annotate to learn the root's first column.
  OPD_RETURN_NOT_OK(bed->optimizer().Prepare(&plan));
  const std::string column = plan.root()->out_schema.column(0).name;
  return plan::Plan(
      plan::Filter(plan.root(),
                   plan::FilterCond::Compare(
                       column, afk::CmpOp::kNe,
                       storage::Value(-1000.0 - round))),
      plan.name() + "_r" + std::to_string(round));
}

Result<std::vector<afk::Afk>> TargetAnnotations(TestBed* bed, int analyst,
                                                int version) {
  OPD_ASSIGN_OR_RETURN(plan::Plan plan, BuildQuery(analyst, version));
  // Annotation is enough; no costing needed to compare AFK annotations.
  plan::AnnotationContext ctx = bed->optimizer().context();
  OPD_RETURN_NOT_OK(plan::AnnotatePlan(plan, ctx));
  std::vector<afk::Afk> targets;
  for (const plan::OpNodePtr& node : plan.TopoOrder()) {
    if (node->kind != plan::OpKind::kScan) targets.push_back(node->afk);
  }
  return targets;
}

Status DropIdenticalViews(TestBed* bed, int analyst, int version) {
  OPD_ASSIGN_OR_RETURN(const std::vector<afk::Afk> targets,
                       TargetAnnotations(bed, analyst, version));
  return DropViewsWhere(bed, [&targets](const catalog::ViewDefinition& view) {
    return std::find(targets.begin(), targets.end(), view.afk) !=
           targets.end();
  });
}

}  // namespace opd::workload
