#include "interactive/auto_prime.h"

#include <utility>
#include <vector>

#include "util/string_util.h"

namespace jigsaw {

namespace {

/// Maps a full valuation back to its row-major enumeration index (last
/// parameter varies fastest, matching ParameterSpace::ValuationAt).
/// Values are compared exactly: on-grid sweep points are the domain's own
/// doubles (the binder materializes OVER-less sweeps from Values()), so
/// equality is the right test and anything off-grid is a caller error.
/// Chain parameters contribute a factor of 1 and their value is not
/// checked (they are not enumerated; ValuationAt pins them to INITIAL).
Result<std::size_t> EnumIndexOf(const ParameterSpace& space,
                                const std::vector<double>& valuation) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const ParameterDef& def = space.def(i);
    if (def.is_chain()) continue;
    const std::size_t card = def.cardinality();
    std::size_t pos = card;
    for (std::size_t v = 0; v < card; ++v) {
      if (def.ValueAt(v) == valuation[i]) {
        pos = v;
        break;
      }
    }
    if (pos == card) {
      return Status::InvalidArgument(StrFormat(
          "sweep valuation pins @%s to %s, which is not in its declared "
          "domain; off-grid points have no session point to prime",
          def.name.c_str(), DoubleToString(valuation[i]).c_str()));
    }
    idx = idx * card + pos;
  }
  return idx;
}

}  // namespace

Result<std::unique_ptr<InteractiveSession>> MakeSessionFromOutcome(
    const sql::ScriptOutcome& outcome, const std::string& column,
    const InteractiveConfig& config) {
  if (!outcome.montecarlo) {
    return Status::InvalidArgument(
        "script produced no MONTECARLO result to prime from");
  }
  const sql::MonteCarloOutcome& mc = *outcome.montecarlo;
  if (mc.master_seed != config.run.master_seed) {
    return Status::InvalidArgument(StrFormat(
        "seed namespace mismatch: the sweep drew its worlds under master "
        "seed %llu but the session would sample under %llu; world ids are "
        "only this session's sample ids when both match",
        static_cast<unsigned long long>(mc.master_seed),
        static_cast<unsigned long long>(config.run.master_seed)));
  }
  JIGSAW_ASSIGN_OR_RETURN(const ScenarioColumn* col,
                          outcome.bound.scenario.FindColumn(column));
  const ParameterSpace& space = outcome.bound.scenario.params;

  // Resolve every (enumeration index, metrics) pair before constructing
  // the session: a bad point must not leave a half-primed session behind.
  struct Prime {
    std::size_t point_index;
    const OutputMetrics* metrics;
  };
  std::vector<Prime> primes;
  if (mc.sweep_param_index) {
    std::vector<double> valuation = mc.base_valuation;
    primes.reserve(mc.points.size());
    for (const sql::MonteCarloPoint& point : mc.points) {
      valuation[*mc.sweep_param_index] = point.value;
      JIGSAW_ASSIGN_OR_RETURN(std::size_t idx,
                              EnumIndexOf(space, valuation));
      auto it = point.columns.find(column);
      if (it == point.columns.end()) {
        return Status::InvalidArgument(
            "column '" + column + "' is not in the MONTECARLO result");
      }
      primes.push_back(Prime{idx, &it->second});
    }
  } else {
    JIGSAW_ASSIGN_OR_RETURN(std::size_t idx,
                            EnumIndexOf(space, mc.base_valuation));
    auto it = mc.columns.find(column);
    if (it == mc.columns.end()) {
      return Status::InvalidArgument(
          "column '" + column + "' is not in the MONTECARLO result");
    }
    primes.push_back(Prime{idx, &it->second});
  }

  auto session =
      std::make_unique<InteractiveSession>(col->fn, space, config);
  for (const Prime& p : primes) {
    JIGSAW_RETURN_IF_ERROR(session->PrimeFromSweep(p.point_index,
                                                   *p.metrics));
  }
  return session;
}

}  // namespace jigsaw
