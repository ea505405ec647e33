// Quickstart: the smallest useful Jigsaw program.
//
// Sweeps the Demand model over a year of weeks with the
// fingerprint-accelerated runner and shows how much Monte Carlo work the
// basis reuse saved compared to generate-everything.
//
//   $ ./quickstart

#include <cstdio>

#include "core/sim_runner.h"
#include "models/cloud_models.h"

int main() {
  using namespace jigsaw;

  // 1. A stochastic black-box model (Algorithm 1 of the paper).
  CloudModelConfig model_cfg;
  BlackBoxSimFunction demand(MakeDemandModel(model_cfg));

  // 2. The parameter space: one year of weeks with a mid-year feature
  //    release. Demand is gaussian at every point with (mean, stddev)
  //    depending on the parameters, so every week maps linearly onto the
  //    very first one — a single basis distribution serves the whole
  //    sweep.
  ParameterSpace space;
  if (!space.Add({"current_week", RangeDomain{1, 52, 1}}).ok() ||
      !space.Add({"feature_release", SetDomain{{26.0}}}).ok()) {
    std::fprintf(stderr, "failed to build parameter space\n");
    return 1;
  }

  // 3. Monte Carlo with fingerprint reuse (n=1000 samples, m=10).
  RunConfig cfg;
  cfg.num_samples = 1000;
  cfg.fingerprint_size = 10;
  SimulationRunner runner(cfg);

  std::printf("week | E[demand] | stddev | served-by\n");
  std::printf("-----+-----------+--------+----------\n");
  const auto results = runner.RunSweep(demand, space);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto valuation = space.ValuationAt(i);
    const auto& r = results[i];
    std::printf("%4.0f | %9.3f | %6.3f | %s basis #%u\n", valuation[0],
                r.Metric(MetricSelector::kExpect),
                r.Metric(MetricSelector::kStdDev),
                r.reused ? "mapped " : "new    ", r.basis_id);
  }

  const auto& stats = runner.stats();
  std::printf(
      "\n%llu points, %llu reused, %zu basis distribution(s), "
      "%llu black-box invocations (naive would need %llu)\n",
      static_cast<unsigned long long>(stats.points_evaluated),
      static_cast<unsigned long long>(stats.points_reused),
      runner.basis_store().size(),
      static_cast<unsigned long long>(stats.blackbox_invocations),
      static_cast<unsigned long long>(stats.points_evaluated *
                                      cfg.num_samples));
  return 0;
}
