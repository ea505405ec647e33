// optimize_fig1: the paper's Figure 1 capacity-planning OPTIMIZE (the
// script of examples/capacity_planning.cpp), sent by one closed-loop
// client to a fresh ScriptRunner per request, so every request starts
// from a cold basis store as a batch user's does.

#include <map>
#include <string>

#include "core/optimizer.h"
#include "core/sim_runner.h"
#include "harness.h"
#include "models/cloud_models.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/script_runner.h"

namespace perfbench {

namespace {

constexpr const char* kScript = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (12,36,44);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature_release, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
)";

// Set-ups timed as one batch, one batch after each timed request.
constexpr int kSetupBatch = 50;

// The basis count, and with it a request's work, depends on the draws:
// from 19 to 46 bases over seeds 0-4. Request i of a run therefore uses
// master seed (kSeedsPerRun * seed + i % kSeedsPerRun), so every run
// averages over the same number of analysts' seed namespaces.
constexpr std::uint64_t kSeedsPerRun = 8;

jigsaw::RunConfig Config(const Options& opt, std::size_t request) {
  jigsaw::RunConfig cfg;
  cfg.num_samples = 1000;
  cfg.fingerprint_size = 10;
  cfg.num_threads = 1;
  cfg.master_seed =
      MasterSeed(kSeedsPerRun * opt.seed + request % kSeedsPerRun);
  return cfg;
}

/// The three checked facts of one OPTIMIZE result.
struct Answer {
  std::string plan;      ///< "feature_release=36,purchase1=48,purchase2=32"
  std::string feasible;  ///< "436/588"
  std::string checksum;  ///< over every group's valuation, lhs, verdict

  bool operator==(const Answer&) const = default;
};

Answer Summarize(const jigsaw::OptimizeResult& r) {
  Answer a;
  for (std::size_t i = 0; i < r.best_valuation.size(); ++i) {
    if (i) a.plan += ",";
    a.plan += (i < r.group_param_names.size() ? r.group_param_names[i]
                                              : "?") +
              "=" + std::to_string(static_cast<long long>(r.best_valuation[i]));
  }
  if (!r.found) a.plan = "none";
  std::size_t feasible = 0;
  for (const auto& g : r.groups) feasible += g.feasible ? 1 : 0;
  Checksum sum;
  sum.FoldOptimize(r);
  a.feasible = std::to_string(feasible) + "/" + std::to_string(r.groups.size());
  a.checksum = sum.Hex();
  return a;
}

/// Checks each request's outcome against the stored answer for its seed
/// namespace ("plan.3", "feasible.3", "checksum.3" for request seed 3 of
/// the run), or the run's first answer there when none is stored.
class AnswerCheck {
 public:
  explicit AnswerCheck(const Options& opt) : opt_(opt) {}

  /// Returns the answer, or nullopt (counted as failed) on a mismatch.
  std::optional<Answer> Check(
      std::size_t request,
      const jigsaw::Result<jigsaw::sql::ScriptOutcome>& outcome,
      RunResult* out) {
    if (!outcome.ok()) {
      out->Fail("request failed: " + outcome.status().ToString());
      return std::nullopt;
    }
    if (!outcome.value().optimize) {
      out->Fail("request returned no OPTIMIZE result");
      return std::nullopt;
    }
    const Answer a = Summarize(*outcome.value().optimize);
    const std::string j = "." + std::to_string(request % kSeedsPerRun);
    First& first = first_[j];
    if (!CheckExpected(opt_, "plan" + j, a.plan, &first.plan) ||
        !CheckExpected(opt_, "feasible" + j, a.feasible, &first.feasible) ||
        !CheckExpected(opt_, "checksum" + j, a.checksum, &first.checksum)) {
      out->Fail("answer mismatch at request seed " +
                std::to_string(kSeedsPerRun * opt_.seed +
                               request % kSeedsPerRun) +
                ": plan " + a.plan + ", feasible " + a.feasible +
                ", checksum " + a.checksum);
      return std::nullopt;
    }
    out->notes["plan" + j] = a.plan;
    out->notes["feasible" + j] = a.feasible;
    out->notes["checksum" + j] = a.checksum;
    return a;
  }

 private:
  struct First {
    std::optional<std::string> plan, feasible, checksum;
  };
  const Options& opt_;
  std::map<std::string, First> first_;
};

}  // namespace

void RunOptimizeFig1(const Options& opt, RunResult* out) {
  NoteRequestSeeds(kSeedsPerRun * opt.seed, kSeedsPerRun, out);
  // Set-up: the model registry and one parse+bind of the script. This
  // first one, untimed, builds the registry the requests use; the timed
  // ones come in batches between requests.
  jigsaw::ModelRegistry registry;
  {
    jigsaw::Status registered = jigsaw::RegisterCloudModels(&registry);
    auto bound = jigsaw::sql::ParseAndBind(kScript, registry);
    if (!registered.ok() || !bound.ok()) {
      out->Error("set-up failed: " + (registered.ok()
                                          ? bound.status().ToString()
                                          : registered.ToString()));
      return;
    }
  }
  auto setup = [] {
    jigsaw::ModelRegistry fresh;
    return jigsaw::RegisterCloudModels(&fresh).ok() &&
           jigsaw::sql::ParseAndBind(kScript, fresh).ok();
  };

  AnswerCheck check(opt);
  std::size_t requests = 0;
  auto request = [&]() {
    PinToCpu(requests);
    jigsaw::sql::ScriptRunner runner(&registry, Config(opt, requests));
    const double t0 = Now();
    auto outcome = runner.Run(kScript);
    const double latency = Now() - t0;
    ++out->attempted;
    check.Check(requests++, outcome, out);
    return latency;
  };

  if (!opt.trace) {
    std::vector<double> latencies, setups;
    double setup_total = 0.0;
    const double start = Now();
    while (Now() - start - setup_total < opt.seconds) {
      latencies.push_back(request());
      // On the CPU the request just ran on (request() pins it).
      const double t0 = Now();
      setups.push_back(TimeSetupBatch(setup, kSetupBatch));
      setup_total += Now() - t0;
      if (setups.back() < 0) {
        out->Error("set-up failed in a timed batch");
        return;
      }
    }
    const double elapsed = Now() - start - setup_total;
    out->EndToEnd(setups, latencies, elapsed, PeakRssMib());

    // One more request per seed namespace with every model call counted
    // (outside the timed loop): the black-box samples a request draws,
    // the paper's Figure 8 quantity. Each is checked like the others.
    ModelCounters counters;
    jigsaw::ModelRegistry counted;
    if (auto s = RegisterCountedCloudModels(&counted, &counters, false);
        !s.ok()) {
      out->Error("counted registry: " + s.ToString());
      return;
    }
    std::uint64_t invocations = 0, bases = 0;
    for (std::size_t j = 0; j < kSeedsPerRun; ++j) {
      jigsaw::sql::ScriptRunner runner(&counted, Config(opt, j));
      auto outcome = runner.Run(kScript);
      ++out->attempted;
      if (!check.Check(j, outcome, out)) continue;
      invocations += outcome.value().runner_stats.blackbox_invocations;
      bases += outcome.value().basis_count;
    }
    const double n = static_cast<double>(kSeedsPerRun);
    out->details["blackbox_samples_per_request"] =
        static_cast<double>(counters.samples.load()) / n;
    out->details["blackbox_calls_per_request"] =
        static_cast<double>(counters.calls.load()) / n;
    out->details["runner_blackbox_invocations_per_request"] =
        static_cast<double>(invocations) / n;
    out->details["bases_per_request"] = static_cast<double>(bases) / n;
    return;
  }

  // Traced run: untraced requests alternate with traced ones. A traced
  // request is the same ScriptRunner request split into its public calls
  // (ParseScript, Binder::Bind, ScriptRunner::RunBound) over a registry of
  // timed model decorators, followed by Optimizer::Run driven directly
  // from the bound scenario, which must return the same OptimizeResult.
  out->InitLayers();
  ModelCounters counters;
  jigsaw::ModelRegistry timed;
  if (auto s = RegisterCountedCloudModels(&timed, &counters, true); !s.ok()) {
    out->Error("timed registry: " + s.ToString());
    return;
  }
  std::vector<double> untraced, traced, parse_s, bind_s, run_s, optimize_s,
      eval_s, self_s;
  // Per-request counts, summed over traced requests.
  std::map<std::string, double> sums;
  const double start = Now();
  while (Now() - start < opt.seconds || traced.empty()) {
    untraced.push_back(request());

    // The traced twin of the request just made: same seed namespace.
    const std::size_t index = requests - 1;
    const jigsaw::RunConfig cfg = Config(opt, index);
    const double t0 = Now();
    auto script = jigsaw::sql::ParseScript(kScript);
    const double t1 = Now();
    if (!script.ok()) {
      out->Error("parse: " + script.status().ToString());
      return;
    }
    auto bound = jigsaw::sql::Binder(&timed).Bind(script.value());
    const double t2 = Now();
    if (!bound.ok()) {
      out->Error("bind: " + bound.status().ToString());
      return;
    }
    counters.Reset();
    jigsaw::sql::ScriptRunner runner(&timed, cfg);
    auto outcome = runner.RunBound(jigsaw::sql::BoundScript(bound.value()), {});
    const double t3 = Now();
    ++out->attempted;
    const std::optional<Answer> answer = check.Check(index, outcome, out);
    if (!answer) continue;
    const std::uint64_t run_samples = counters.samples.load();

    counters.Reset();
    jigsaw::SimulationRunner sim(cfg);
    jigsaw::Optimizer optimizer(&sim);
    const double t4 = Now();
    auto direct =
        optimizer.Run(bound.value().scenario, *bound.value().optimize);
    const double t5 = Now();
    if (!direct.ok()) {
      out->Error("Optimizer::Run: " + direct.status().ToString());
      return;
    }
    if (!(Summarize(direct.value()) == *answer)) {
      out->Error("traced Optimizer::Run differs from ScriptRunner at "
                 "request " + std::to_string(index));
      return;
    }
    if (counters.samples.load() != run_samples) {
      out->Error("model samples differ between ScriptRunner and "
                 "Optimizer::Run");
      return;
    }
    parse_s.push_back(t1 - t0);
    bind_s.push_back(t2 - t1);
    run_s.push_back(t3 - t2);
    traced.push_back(t3 - t0);
    optimize_s.push_back(t5 - t4);
    eval_s.push_back(counters.seconds());
    self_s.push_back((t5 - t4) - counters.seconds());
    const jigsaw::RunnerStats& stats = sim.stats();
    const jigsaw::BasisStoreStats store = sim.basis_store().stats();
    sums["models.calls"] += static_cast<double>(counters.calls.load());
    sums["models.samples"] += static_cast<double>(counters.samples.load());
    sums["core.points_evaluated"] +=
        static_cast<double>(stats.points_evaluated);
    sums["core.points_reused"] += static_cast<double>(stats.points_reused);
    sums["core.bases"] += static_cast<double>(sim.basis_store().size());
    sums["core.column_samples"] +=
        static_cast<double>(stats.blackbox_invocations);
    sums["core.basis_lookups"] += static_cast<double>(store.lookups);
    sums["candidates"] += static_cast<double>(store.candidates_tested);
    sums["false_positives"] +=
        static_cast<double>(store.false_positive_candidates);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double n = static_cast<double>(traced.size());
  for (const char* name :
       {"models.calls", "models.samples", "core.points_evaluated",
        "core.points_reused", "core.bases", "core.column_samples",
        "core.basis_lookups"}) {
    out->Layer(name, ratio(sums[name], n));
  }
  out->Layer("sql.parse_s", Median(parse_s));
  out->Layer("sql.bind_s", Median(bind_s));
  out->Layer("sql.run_s", Median(run_s));
  out->Layer("models.eval_s", Median(eval_s));
  out->Layer("models.samples_per_call",
             ratio(sums["models.samples"], sums["models.calls"]));
  out->Layer("core.optimize_s", Median(optimize_s));
  out->Layer("core.optimize_self_s", Median(self_s));
  out->Layer("core.reuse_rate", ratio(sums["core.points_reused"],
                                      sums["core.points_evaluated"]));
  out->Layer("core.candidates_per_lookup",
             ratio(sums["candidates"], sums["core.basis_lookups"]));
  out->Layer("core.false_positive_rate",
             ratio(sums["false_positives"], sums["candidates"]));
  out->Layer("trace.overhead_ratio",
             ratio(Median(traced), Median(untraced)));
  out->details["traced_requests"] = n;
  out->details["untraced_requests"] = static_cast<double>(untraced.size());
}

}  // namespace perfbench
