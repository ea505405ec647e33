// montecarlo_join: the tuple-level possible-worlds path. A MONTECARLO
// over the world-partitioned equi-join of two uncertain relations, with
// no black boxes and no basis store, run back to back on one worker pool.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "models/cloud_models.h"
#include "pdb/join.h"
#include "pdb/monte_carlo.h"
#include "pdb/vg_table.h"
#include "random/seed_vector.h"
#include "sql/binder.h"
#include "sql/script_runner.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

// sim_depth 1 keeps user realization from dominating the request, so
// realization, join, fold and finalize each hold a sizeable share.
constexpr const char* kScript = R"(
SELECT 1 AS one INTO r;
MONTECARLO FROM users(100000, 0.8, 5.0, 2.0, 1) AS u
           JOIN items(100000) AS i ON u.user_id = i.item_id;
)";

constexpr std::size_t kWorlds = 32;
// Set-ups timed as one batch; after each timed request, one batch on each
// CPU in turn.
constexpr int kSetupBatch = 50;

/// Layer times and counts of one traced request.
struct TracedRequest {
  double realize_s = 0, join_s = 0, fold_s = 0, finalize_s = 0;
  std::uint64_t rows_realized = 0, left_rows = 0, join_pairs = 0;
  std::map<std::string, jigsaw::OutputMetrics> columns;
  std::string error;

  double total() const { return realize_s + join_s + fold_s + finalize_s; }
};

/// The request rebuilt from public pdb calls, phase by phase, with the
/// same world fan-out as the library (one pool task per world): realize
/// both sides (WorldExtent::AppendWorld), join (JoinWorlds), fold every
/// numeric joined column in world order through the library's column
/// fold kernel (pdb::internal::FoldChunkColumn, which feeds
/// Estimator::AddSpan), finalize (Estimator::Finalize).
TracedRequest TraceRequest(const jigsaw::sql::MonteCarloJoinSpec& join,
                           const std::vector<std::string>& names,
                           const std::vector<std::size_t>& slots,
                           const jigsaw::RunConfig& cfg,
                           jigsaw::ThreadPool* pool) {
  using jigsaw::pdb::WorldExtent;
  TracedRequest t;
  const jigsaw::SeedVector seeds(cfg.master_seed, kWorlds, cfg.seed_schema);
  auto for_each_world = [&](const std::function<void(std::size_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(kWorlds, fn);
    } else {
      for (std::size_t w = 0; w < kWorlds; ++w) fn(w);
    }
  };
  std::vector<WorldExtent> left(kWorlds), right(kWorlds), joined(kWorlds);
  std::vector<jigsaw::Status> status(kWorlds, jigsaw::Status::OK());

  double t0 = Now();
  for_each_world([&](std::size_t w) {
    left[w].world_begin = w;
    right[w].world_begin = w;
    status[w] = left[w].AppendWorld(*join.left, w, seeds);
    if (status[w].ok()) status[w] = right[w].AppendWorld(*join.right, w, seeds);
  });
  t.realize_s = Now() - t0;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    if (!status[w].ok()) {
      t.error = "realize: " + status[w].ToString();
      return t;
    }
    t.left_rows += left[w].data.num_rows();
    t.rows_realized += left[w].data.num_rows() + right[w].data.num_rows();
  }

  t0 = Now();
  for_each_world([&](std::size_t w) {
    status[w] = jigsaw::pdb::JoinWorlds(left[w], right[w], join.resolved,
                                        cfg.join_algorithm, &joined[w]);
    left[w] = WorldExtent{};
    right[w] = WorldExtent{};
  });
  t.join_s = Now() - t0;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    if (!status[w].ok()) {
      t.error = "join: " + status[w].ToString();
      return t;
    }
    t.join_pairs += joined[w].data.num_rows();
  }

  t0 = Now();
  std::vector<jigsaw::Estimator> estimators(
      slots.size(), jigsaw::Estimator(cfg.keep_samples, cfg.histogram_bins));
  for (std::size_t w = 0; w < kWorlds; ++w) {
    for (std::size_t k = 0; k < joined[w].row_offsets.size(); ++k) {
      const auto [first, last] = joined[w].WorldRows(k);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (jigsaw::Status st = jigsaw::pdb::internal::FoldChunkColumn(
                joined[w].data.column(slots[s]), first, last, names[s],
                &estimators[s]);
            !st.ok()) {
          t.error = "fold: " + st.ToString();
          return t;
        }
      }
    }
    joined[w] = WorldExtent{};
  }
  t.fold_s = Now() - t0;

  t0 = Now();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    t.columns[names[s]] = estimators[s].Finalize();
  }
  t.finalize_s = Now() - t0;
  return t;
}

}  // namespace

void RunMonteCarloJoin(const Options& opt, RunResult* out) {
  NoteRequestSeeds(opt.seed, 1, out);
  // One client thread plus the pool stays within the machine's threads.
  const std::size_t workers = HardwareThreads() > 1 ? HardwareThreads() - 1 : 1;
  std::unique_ptr<jigsaw::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<jigsaw::ThreadPool>(workers);

  jigsaw::RunConfig cfg;
  cfg.num_samples = kWorlds;
  cfg.master_seed = MasterSeed(opt.seed);
  cfg.num_threads = workers;
  cfg.shared_pool = pool.get();
  // One world per pool task, so 32 worlds balance over the workers.
  cfg.batch_size = 1;

  // Set-up: the model registry and one parse+bind of the script. This
  // first one, untimed, is what the requests use; the timed ones come in
  // batches between requests.
  jigsaw::ModelRegistry registry;
  std::optional<jigsaw::sql::BoundScript> bound;
  {
    jigsaw::Status registered = jigsaw::RegisterCloudModels(&registry);
    auto b = jigsaw::sql::ParseAndBind(kScript, registry);
    if (!registered.ok() || !b.ok()) {
      out->Error("set-up failed: " + (registered.ok() ? b.status().ToString()
                                                      : registered.ToString()));
      return;
    }
    bound = std::move(b).value();
  }
  auto setup = [] {
    jigsaw::ModelRegistry fresh;
    return jigsaw::RegisterCloudModels(&fresh).ok() &&
           jigsaw::sql::ParseAndBind(kScript, fresh).ok();
  };
  if (!bound->montecarlo || !bound->montecarlo->join) {
    out->Error("script did not bind to a joined MONTECARLO");
    return;
  }

  std::optional<std::string> first_checksum;
  std::uint64_t tuples = 0;
  auto request = [&]() {
    jigsaw::sql::ScriptRunner runner(&registry, cfg);
    const double t0 = Now();
    auto outcome = runner.RunBound(jigsaw::sql::BoundScript(*bound), {});
    const double latency = Now() - t0;
    ++out->attempted;
    if (!outcome.ok() || !outcome.value().montecarlo ||
        outcome.value().montecarlo->columns.empty()) {
      out->Fail("request failed: " +
                (outcome.ok() ? std::string("no MONTECARLO columns")
                              : outcome.status().ToString()));
      return latency;
    }
    const auto& columns = outcome.value().montecarlo->columns;
    Checksum sum;
    sum.FoldColumns(columns);
    if (!CheckExpected(opt, "checksum", sum.Hex(), &first_checksum)) {
      out->Fail("checksum mismatch: " + sum.Hex());
    }
    tuples = static_cast<std::uint64_t>(columns.begin()->second.count);
    out->notes["checksum"] = sum.Hex();
    return latency;
  };

  if (!opt.trace) {
    std::vector<double> latencies, setups;
    double setup_total = 0.0;
    const double start = Now();
    while (Now() - start - setup_total < opt.seconds) {
      latencies.push_back(request());
      const double t0 = Now();
      for (std::size_t cpu = 0; cpu < HardwareThreads(); ++cpu) {
        PinToCpu(cpu);
        setups.push_back(TimeSetupBatch(setup, kSetupBatch));
        if (setups.back() < 0) {
          out->Error("set-up failed in a timed batch");
          return;
        }
      }
      Unpin();
      setup_total += Now() - t0;
    }
    const double elapsed = Now() - start - setup_total;
    out->EndToEnd(setups, latencies, elapsed, PeakRssMib());
    out->details["tuples_per_request"] = static_cast<double>(tuples);
    out->details["tuples_per_s"] =
        elapsed > 0 ? static_cast<double>(tuples * latencies.size()) / elapsed
                    : 0.0;
    out->details["pool_workers"] = static_cast<double>(workers);
    return;
  }

  // Traced run: untraced requests alternate with the request rebuilt
  // from public calls, which must reproduce the untraced checksum.
  out->InitLayers();
  const jigsaw::sql::MonteCarloJoinSpec& join = *bound->montecarlo->join;
  std::vector<std::string> names;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < join.resolved.output.num_columns(); ++i) {
    const auto& col = join.resolved.output.column(i);
    if (col.type == jigsaw::pdb::ValueType::kString) continue;
    names.push_back(col.name);
    slots.push_back(i);
  }
  std::vector<double> untraced, traced, realize, join_s, fold, finalize;
  TracedRequest last;
  const double start = Now();
  while (Now() - start < opt.seconds || traced.empty()) {
    untraced.push_back(request());
    TracedRequest t = TraceRequest(join, names, slots, cfg, pool.get());
    if (!t.error.empty()) {
      out->Error("traced request: " + t.error);
      return;
    }
    Checksum sum;
    sum.FoldColumns(t.columns);
    if (sum.Hex() != out->notes["checksum"]) {
      out->Error("traced pipeline checksum " + sum.Hex() +
                 " differs from the untraced " + out->notes["checksum"]);
      return;
    }
    traced.push_back(t.total());
    realize.push_back(t.realize_s);
    join_s.push_back(t.join_s);
    fold.push_back(t.fold_s);
    finalize.push_back(t.finalize_s);
    last = std::move(t);
  }
  out->Layer("sql.run_s", Median(untraced));
  out->Layer("pdb.realize_s", Median(realize));
  out->Layer("pdb.rows_realized", static_cast<double>(last.rows_realized));
  out->Layer("pdb.join_s", Median(join_s));
  out->Layer("pdb.join_pairs", static_cast<double>(last.join_pairs));
  out->Layer("pdb.join_pairs_per_left_row",
             last.left_rows ? static_cast<double>(last.join_pairs) /
                                  static_cast<double>(last.left_rows)
                            : 0.0);
  out->Layer("pdb.tuples_folded", static_cast<double>(last.join_pairs));
  out->Layer("core.fold_s", Median(fold));
  out->Layer("core.finalize_s", Median(finalize));
  const double overhead = Median(traced) / Median(untraced);
  out->Layer("trace.overhead_ratio", overhead);
  out->details["folded_columns"] = static_cast<double>(slots.size());
  out->details["traced_requests"] = static_cast<double>(traced.size());
  out->notes["layer_coverage"] =
      overhead > 0.9 && overhead < 1.1 ? "within a tenth of the request"
                                       : "NOT within a tenth of the request";
}

}  // namespace perfbench
