// serve_mixed: one SessionServer with a 2-worker shared pool and two
// closed-loop clients, one in the server's shared seed namespace and one
// in a private namespace. Each client cycles through four request kinds,
// sweep, tick, join, tick, optimize:
//
//   sweep     MONTECARLO OVER @w, 1000 worlds per point;
//   tick      an interactive session primed from the last sweep, then
//             ticked (twice per cycle, so the median request falls inside
//             one kind's latencies rather than in the gap between two);
//   join      a USING LAYERED uncertain join (through the snapshot's
//             WorldCache);
//   optimize  a reduced Figure 1 OPTIMIZE (consults the warmed BasisStore).
//
// Every kPublishEvery of its requests the shared client re-publishes the
// catalog with warm_basis_store: a write beside the reads, which
// cold-starts the snapshot caches. After the timed loop each client's
// requests are replayed by its standalone serial twin; every request's
// checksum must match its twin's.

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "interactive/auto_prime.h"
#include "models/cloud_models.h"
#include "serve/session_server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/script_runner.h"

namespace perfbench {

namespace {

using jigsaw::Result;
using jigsaw::sql::ScriptOutcome;

constexpr const char* kSweepScript = R"(
DECLARE PARAMETER @w AS RANGE 10 TO 50 STEP BY 10;
SELECT DemandModel(@w, 36) AS demand,
       CapacityModel(@w, 8, 8) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO r;
MONTECARLO OVER @w;
)";

constexpr const char* kJoinScript = R"(
SELECT 1 AS one INTO r;
MONTECARLO FROM users(50, 0.8, 5.0, 2.0, 1) AS u
           JOIN items(50) AS i ON u.user_id = i.item_id USING LAYERED;
)";

// Figure 1 on a coarser grid: 14 weeks x 7 x 7 purchase dates x 3.
constexpr const char* kOptimizeScript = R"(
DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 8;
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

constexpr std::size_t kWorlds = 1000;
constexpr std::size_t kTicks = 100;
constexpr std::size_t kPublishEvery = 64;
constexpr std::size_t kPoolWorkers = 2;
constexpr int kSetupRepeats = 5;
// The warmed store's basis count, and with it publish and optimize work,
// depends on the draws. A run therefore serves kSeedsPerRun servers in
// turn, server j under master seed (kSeedsPerRun * seed + j).
constexpr std::uint64_t kSeedsPerRun = 8;

enum Kind { kSweep, kTick, kJoin, kOptimize, kPublish, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"sweep", "tick", "join",
                                               "optimize", "publish"};
constexpr Kind kCycle[] = {kSweep, kTick, kJoin, kTick, kOptimize};
constexpr std::size_t kCycleLength = sizeof kCycle / sizeof kCycle[0];

struct Script {
  const char* name;
  const char* text;
};
constexpr Script kScripts[] = {{"sweep", kSweepScript},
                               {"join", kJoinScript},
                               {"optimize", kOptimizeScript}};

/// One completed request of a client.
struct Request {
  Kind kind = kSweep;
  double latency_s = 0.0;
  std::uint64_t checksum = 0;
  double prime_s = 0.0;  ///< tick requests: PrimeInteractive
  double tick_s = 0.0;   ///< tick requests: InteractiveSession::Run
  std::uint64_t ticks = 0;
  jigsaw::RunnerStats runner_stats;  ///< optimize requests
  std::size_t bases = 0;             ///< optimize requests
};

/// How a client executes its requests: through a server session, or as
/// the session's standalone serial twin.
struct Backend {
  std::function<Result<ScriptOutcome>(Kind)> run;
  std::function<Result<std::unique_ptr<jigsaw::InteractiveSession>>(
      const ScriptOutcome&)>
      prime;
};

/// Executes one non-publish request, the `step`-th of its client.
/// `last_sweep` carries the client's latest sweep outcome, which its tick
/// requests prime from. Returns an error text, empty on success.
std::string Execute(Kind kind, std::size_t step, Backend& backend,
                    std::optional<ScriptOutcome>* last_sweep, Request* r) {
  r->kind = kind;
  Checksum sum;
  const double t0 = Now();
  if (kind == kTick) {
    if (!last_sweep->has_value()) return "tick without a preceding sweep";
    auto session = backend.prime(**last_sweep);
    const double t1 = Now();
    if (!session.ok()) return "prime: " + session.status().ToString();
    jigsaw::InteractiveSession& s = *session.value();
    if (auto st = s.SetFocus(step % s.num_points()); !st.ok()) {
      return "focus: " + st.ToString();
    }
    s.Run(kTicks);
    r->latency_s = Now() - t0;
    r->prime_s = t1 - t0;
    r->tick_s = r->latency_s - r->prime_s;
    r->ticks = s.stats().ticks;
    for (std::size_t p = 0; p < s.num_points(); ++p) {
      const jigsaw::DisplayEstimate e = s.EstimateFor(p);
      sum.Fold(e.mean);
      sum.Fold(e.std_error);
      sum.Fold(static_cast<double>(e.support));
    }
    r->checksum = sum.value();
    return "";
  }
  auto outcome = backend.run(kind);
  r->latency_s = Now() - t0;
  if (!outcome.ok()) {
    return std::string(kKindNames[kind]) + ": " + outcome.status().ToString();
  }
  const ScriptOutcome& o = outcome.value();
  if (kind == kOptimize) {
    if (!o.optimize) return "optimize: no OPTIMIZE result";
    sum.FoldOptimize(*o.optimize);
    r->runner_stats = o.runner_stats;
    r->bases = o.basis_count;
  } else {
    if (!o.montecarlo) return "no MONTECARLO result";
    if (kind == kSweep) {
      for (const auto& point : o.montecarlo->points) {
        sum.FoldColumns(point.columns);
      }
    } else {
      sum.FoldColumns(o.montecarlo->columns);
    }
  }
  r->checksum = sum.value();
  if (kind == kSweep) *last_sweep = std::move(outcome).value();
  return "";
}

/// The catalog publisher: re-publishes every script (the optimize script
/// with a warmed basis store) and accounts the world-cache generations of
/// each retired join snapshot once no request can still be using it.
class Publisher {
 public:
  Publisher(jigsaw::serve::SessionServer* server,
            const std::atomic<std::uint64_t>* other_completed)
      : server_(server), other_completed_(other_completed) {}

  jigsaw::Status PublishAll() {
    auto catalog = server_->catalog();
    if (auto it = catalog->find("join"); it != catalog->end()) {
      // A request the other client has in flight may still read the old
      // snapshot; it is done once that client completes one more request.
      retired_.push_back({it->second, other_completed_->load() + 1});
    }
    for (const Script& s : kScripts) {
      jigsaw::serve::PublishOptions options;
      options.warm_basis_store = std::string(s.name) == "optimize";
      auto published = server_->Publish(s.name, s.text, options);
      if (!published.ok()) return published.status();
    }
    Release(false);
    return jigsaw::Status::OK();
  }

  /// Accounts retired snapshots no request can still use (all of them
  /// once the clients have stopped).
  void Release(bool all) {
    while (!retired_.empty() &&
           (all || retired_.front().done_after <= other_completed_->load())) {
      generations_ +=
          retired_.front().snapshot->world_cache->generation_count();
      retired_.pop_front();
    }
  }

  /// Generations of every join snapshot published, the current one too.
  std::uint64_t Generations() {
    Release(true);
    auto catalog = server_->catalog();
    auto it = catalog->find("join");
    return generations_ +
           (it != catalog->end() ? it->second->world_cache->generation_count()
                                 : 0);
  }

 private:
  struct Retired {
    std::shared_ptr<const jigsaw::serve::ScriptSnapshot> snapshot;
    std::uint64_t done_after;
  };
  jigsaw::serve::SessionServer* server_;
  const std::atomic<std::uint64_t>* other_completed_;
  std::deque<Retired> retired_;
  std::uint64_t generations_ = 0;
};

/// What one client did in the timed loop.
struct ClientLog {
  std::vector<Request> requests;
  std::vector<std::size_t> steps;  ///< step index of each request
  std::string error;
};

/// One phase: set-up, the concurrent closed loop, then the twin replay.
struct Phase {
  std::vector<double> setups;
  double elapsed_s = 0.0;
  ClientLog clients[2];  ///< [0] shared namespace, [1] private
  std::vector<double> contention_s;
  std::uint64_t warm_hits[2] = {0, 0};
  std::uint64_t warm_lookups[2] = {0, 0};
  std::uint64_t cache_generations = 0;
  std::uint64_t world_reads = 0;
  std::vector<double> parse_s, bind_s;
  std::uint64_t model_calls = 0, model_samples = 0;
  double model_s = 0.0;
  double peak_rss_mib = 0.0;  ///< set-up and loop, before the twin replay
};

/// Every request of `phases`, or only those of `kind`.
std::vector<const Request*> Requests(const std::vector<Phase>& phases,
                                     int kind = -1) {
  std::vector<const Request*> out;
  for (const Phase& p : phases) {
    for (const ClientLog& c : p.clients) {
      for (const Request& r : c.requests) {
        if (kind < 0 || r.kind == kind) out.push_back(&r);
      }
    }
  }
  return out;
}

std::vector<double> Latencies(const std::vector<Phase>& phases,
                              int kind = -1) {
  std::vector<double> out;
  for (const Request* r : Requests(phases, kind)) out.push_back(r->latency_s);
  return out;
}

/// Sum of `field` over the phases.
template <typename F>
double Sum(const std::vector<Phase>& phases, F field) {
  double total = 0.0;
  for (const Phase& p : phases) total += static_cast<double>(field(p));
  return total;
}

void DriveClient(jigsaw::serve::Session& session, Publisher* publisher,
                 double deadline, std::atomic<std::uint64_t>* completed,
                 std::vector<double>* parse_s, std::vector<double>* bind_s,
                 const jigsaw::ModelRegistry* registry, ClientLog* log) {
  Backend backend;
  backend.run = [&](Kind kind) {
    return session.Run(kKindNames[kind]);
  };
  backend.prime = [&](const ScriptOutcome& outcome) {
    return session.PrimeInteractive(outcome, "demand");
  };
  std::optional<ScriptOutcome> last_sweep;
  std::size_t step = 0;
  for (std::size_t i = 1; Now() < deadline; ++i) {
    Request r;
    const std::size_t request_step = step;
    if (publisher != nullptr && i % kPublishEvery == 0) {
      if (parse_s != nullptr) {
        // Traced: the parse and bind each publish performs, timed on
        // the same texts through the public calls.
        double parse = 0, bind = 0;
        for (const Script& s : kScripts) {
          const double t0 = Now();
          auto script = jigsaw::sql::ParseScript(s.text);
          const double t1 = Now();
          if (script.ok()) {
            (void)jigsaw::sql::Binder(registry).Bind(script.value());
          }
          parse += t1 - t0;
          bind += Now() - t1;
        }
        parse_s->push_back(parse);
        bind_s->push_back(bind);
      }
      r.kind = kPublish;
      const double t0 = Now();
      jigsaw::Status s = publisher->PublishAll();
      r.latency_s = Now() - t0;
      if (!s.ok()) {
        log->error = "publish: " + s.ToString();
        return;
      }
    } else {
      const Kind kind = kCycle[step % kCycleLength];
      if (std::string err =
              Execute(kind, request_step, backend, &last_sweep, &r);
          !err.empty()) {
        log->error = err;
        return;
      }
      ++step;
    }
    log->requests.push_back(r);
    log->steps.push_back(request_step);
    completed->fetch_add(1);
  }
}

/// Replays a client's logged requests (publishes skipped) through its
/// standalone serial twin and checks every request's checksum: the log
/// entries [begin, end), which start at a cycle boundary. Returns (log
/// index, twin latency) of each replayed request.
std::vector<std::pair<std::size_t, double>> ReplayTwin(
    const jigsaw::ModelRegistry& registry,
    const jigsaw::serve::Session& session,
    const std::vector<jigsaw::sql::BoundScript>& bound,
    jigsaw::BasisStore* store, const ClientLog& log, std::size_t begin,
    std::size_t end, RunResult* out) {
  const jigsaw::RunConfig cfg = jigsaw::serve::StandaloneTwinConfig(session);
  jigsaw::sql::ScriptRunner runner(&registry, cfg);
  Backend backend;
  backend.run = [&](Kind kind) {
    const std::size_t idx = kind == kSweep ? 0 : kind == kJoin ? 1 : 2;
    jigsaw::sql::SnapshotResources resources;
    if (kind == kOptimize) resources.basis_store = store;
    return runner.RunBound(jigsaw::sql::BoundScript(bound[idx]), {},
                           resources);
  };
  backend.prime = [&](const ScriptOutcome& outcome) {
    jigsaw::InteractiveConfig icfg;
    icfg.run = cfg;
    return jigsaw::MakeSessionFromOutcome(outcome, "demand", icfg);
  };
  std::optional<ScriptOutcome> last_sweep;
  std::vector<std::pair<std::size_t, double>> latencies;
  for (std::size_t i = begin; i < end; ++i) {
    const Request& logged = log.requests[i];
    if (logged.kind == kPublish) continue;
    Request twin;
    if (std::string err =
            Execute(logged.kind, log.steps[i], backend, &last_sweep, &twin);
        !err.empty()) {
      out->Fail("twin " + err);
      continue;
    }
    if (twin.checksum != logged.checksum) {
      out->Fail(std::string(kKindNames[logged.kind]) + " request " +
                std::to_string(i) + " of session " +
                std::to_string(session.id()) + " differs from its twin: " +
                Hex(logged.checksum) + " vs " + Hex(twin.checksum));
    }
    latencies.emplace_back(i, twin.latency_s);
  }
  return latencies;
}

void RunPhase(std::uint64_t master_seed, bool traced, double seconds,
              Phase* phase,
              RunResult* out) {
  ModelCounters counters;
  jigsaw::ModelRegistry registry;
  jigsaw::RunConfig base;
  base.num_samples = kWorlds;
  base.num_threads = kPoolWorkers;
  base.keep_samples = true;  // sweeps must be primeable
  base.master_seed = master_seed;

  // Set-up: registry, server, and the first publish of the catalog.
  std::unique_ptr<jigsaw::serve::SessionServer> server;
  std::atomic<std::uint64_t> private_completed{0};
  std::unique_ptr<Publisher> publisher;
  for (int i = 0; i < kSetupRepeats; ++i) {
    publisher.reset();
    server.reset();
    const double t0 = Now();
    jigsaw::ModelRegistry fresh;
    jigsaw::Status s = traced
                           ? RegisterCountedCloudModels(&fresh, &counters, true)
                           : jigsaw::RegisterCloudModels(&fresh);
    registry = std::move(fresh);
    server = std::make_unique<jigsaw::serve::SessionServer>(&registry, base);
    publisher = std::make_unique<Publisher>(server.get(), &private_completed);
    if (s.ok()) s = publisher->PublishAll();
    phase->setups.push_back(Now() - t0);
    if (!s.ok()) {
      out->Error("set-up failed: " + s.ToString());
      return;
    }
  }
  counters.Reset();

  jigsaw::serve::SessionOptions shared_opts;
  shared_opts.shared_namespace = true;
  jigsaw::serve::Session& shared = server->Connect(shared_opts);
  jigsaw::serve::Session& priv = server->Connect();

  // The shared client runs on this thread, the private one on a second:
  // two client threads plus the two pool workers.
  std::atomic<std::uint64_t> shared_completed{0};
  const double start = Now();
  const double deadline = start + seconds;
  std::thread private_client([&] {
    DriveClient(priv, nullptr, deadline, &private_completed, nullptr, nullptr,
                &registry, &phase->clients[1]);
  });
  DriveClient(shared, publisher.get(), deadline, &shared_completed,
              traced ? &phase->parse_s : nullptr,
              traced ? &phase->bind_s : nullptr, &registry,
              &phase->clients[0]);
  private_client.join();
  phase->elapsed_s = Now() - start;
  phase->peak_rss_mib = PeakRssMib();
  phase->model_calls = counters.calls.load();
  phase->model_samples = counters.samples.load();
  phase->model_s = counters.seconds();
  for (const ClientLog& c : phase->clients) {
    out->attempted += c.requests.size();
    if (!c.error.empty()) {
      ++out->attempted;
      out->Fail(c.error);
    }
    for (const Request& r : c.requests) {
      if (r.kind == kJoin) phase->world_reads += 2 * kWorlds;
    }
  }
  phase->cache_generations = publisher->Generations();

  // Twin replay. Each client's twin gets its own frozen copy of the
  // warmed store (published under another name), so each client's hit
  // rate can be read from that store's counters.
  std::vector<jigsaw::sql::BoundScript> bound;
  for (const Script& s : kScripts) {
    auto b = jigsaw::sql::ParseAndBind(s.text, registry);
    if (!b.ok()) {
      out->Error("twin bind: " + b.status().ToString());
      return;
    }
    bound.push_back(std::move(b).value());
  }
  std::shared_ptr<const jigsaw::serve::ScriptSnapshot> twin_store[2];
  for (int c = 0; c < 2; ++c) {
    jigsaw::serve::PublishOptions options;
    options.warm_basis_store = true;
    auto snap = server->Publish("optimize.twin" + std::to_string(c),
                                kOptimizeScript, options);
    if (!snap.ok()) {
      out->Error("twin store: " + snap.status().ToString());
      return;
    }
    twin_store[c] = snap.value();
  }
  // Each client's log is replayed in two halves, split at a cycle
  // boundary (a cycle opens with the sweep its ticks prime from): four
  // replay threads while the server's pool sits idle.
  struct Slice {
    int client;
    std::size_t begin, end;
    RunResult out;
    std::vector<std::pair<std::size_t, double>> latencies;
  };
  std::vector<Slice> slices;
  for (int c = 0; c < 2; ++c) {
    const ClientLog& log = phase->clients[c];
    std::size_t mid = log.requests.size() / 2;
    while (mid < log.requests.size() &&
           (log.requests[mid].kind == kPublish ||
            log.steps[mid] % kCycleLength != 0)) {
      ++mid;
    }
    slices.push_back({c, 0, mid, {}, {}});
    slices.push_back({c, mid, log.requests.size(), {}, {}});
  }
  jigsaw::serve::Session* sessions[2] = {&shared, &priv};
  auto replay = [&](Slice* slice) {
    const int c = slice->client;
    slice->latencies = ReplayTwin(
        registry, *sessions[c], bound, twin_store[c]->basis_store.get(),
        phase->clients[c], slice->begin, slice->end, &slice->out);
  };
  std::vector<std::thread> replayers;
  for (std::size_t i = 1; i < slices.size(); ++i) {
    replayers.emplace_back(replay, &slices[i]);
  }
  replay(&slices[0]);
  for (std::thread& t : replayers) t.join();
  for (const Slice& slice : slices) {
    out->failed += slice.out.failed;
    for (const std::string& e : slice.out.errors) out->Error(e);
    for (const auto& [i, twin_s] : slice.latencies) {
      phase->contention_s.push_back(
          phase->clients[slice.client].requests[i].latency_s - twin_s);
    }
  }
  for (int c = 0; c < 2; ++c) {
    const jigsaw::BasisStoreStats st = twin_store[c]->basis_store->stats();
    phase->warm_hits[c] = st.hits;
    phase->warm_lookups[c] = st.lookups;
  }
}

/// Runs one phase per seed namespace of the run, `seconds` each.
std::vector<Phase> RunPhases(const Options& opt, bool traced,
                             double seconds, RunResult* out) {
  std::vector<Phase> phases(kSeedsPerRun);
  for (std::uint64_t j = 0; j < kSeedsPerRun; ++j) {
    RunPhase(MasterSeed(kSeedsPerRun * opt.seed + j), traced, seconds,
             &phases[j], out);
  }
  return phases;
}

}  // namespace

void RunServeMixed(const Options& opt, RunResult* out) {
  NoteRequestSeeds(kSeedsPerRun * opt.seed, kSeedsPerRun, out);
  const double share = opt.seconds / static_cast<double>(kSeedsPerRun);
  if (!opt.trace) {
    const std::vector<Phase> phases = RunPhases(opt, false, share, out);
    std::vector<double> setups;
    for (const Phase& p : phases) {
      setups.insert(setups.end(), p.setups.begin(), p.setups.end());
    }
    // Memory is the first server's: later servers start on the heap the
    // earlier ones left behind, so their peaks carry that residue.
    out->EndToEnd(setups, Latencies(phases),
                  Sum(phases, [](const Phase& p) { return p.elapsed_s; }),
                  phases.front().peak_rss_mib);
    for (int k = 0; k < kNumKinds; ++k) {
      const std::vector<double> lat = Latencies(phases, k);
      out->details[std::string(kKindNames[k]) + "_p50_s"] = Median(lat);
      out->details[std::string(kKindNames[k]) + "_requests"] =
          static_cast<double>(lat.size());
    }
    out->details["pool_workers"] = static_cast<double>(kPoolWorkers);
    out->details["client_threads"] = 2;
    return;
  }

  // Traced run: untraced phases, then phases whose servers resolve models
  // through timed decorators, each half as long as in the untraced run.
  const std::vector<Phase> plain = RunPhases(opt, false, share / 2, out);
  const std::vector<Phase> traced = RunPhases(opt, true, share / 2, out);
  out->InitLayers();

  std::vector<double> run_s, prime_s, tick_s, parse_s, bind_s, contention_s;
  for (const Request* r : Requests(traced)) {
    if (r->kind == kSweep || r->kind == kJoin || r->kind == kOptimize) {
      run_s.push_back(r->latency_s);
    }
    if (r->kind == kTick) {
      prime_s.push_back(r->prime_s);
      tick_s.push_back(r->tick_s);
    }
  }
  double ticks = 0, points = 0, reused = 0, column_samples = 0, bases = 0;
  for (const Request* r : Requests(traced, kTick)) {
    ticks += static_cast<double>(r->ticks);
  }
  for (const Request* r : Requests(traced, kOptimize)) {
    points += static_cast<double>(r->runner_stats.points_evaluated);
    reused += static_cast<double>(r->runner_stats.points_reused);
    column_samples += static_cast<double>(r->runner_stats.blackbox_invocations);
    bases += static_cast<double>(r->bases);
  }
  for (const Phase& p : traced) {
    parse_s.insert(parse_s.end(), p.parse_s.begin(), p.parse_s.end());
    bind_s.insert(bind_s.end(), p.bind_s.begin(), p.bind_s.end());
    contention_s.insert(contention_s.end(), p.contention_s.begin(),
                        p.contention_s.end());
  }
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double requests = static_cast<double>(Requests(traced).size());
  const double optimizes =
      static_cast<double>(Requests(traced, kOptimize).size());
  const double calls =
      Sum(traced, [](const Phase& p) { return p.model_calls; });
  const double samples =
      Sum(traced, [](const Phase& p) { return p.model_samples; });
  const double generations =
      Sum(traced, [](const Phase& p) { return p.cache_generations; });
  const double reads =
      Sum(traced, [](const Phase& p) { return p.world_reads; });
  out->Layer("sql.parse_s", Median(parse_s));
  out->Layer("sql.bind_s", Median(bind_s));
  out->Layer("sql.run_s", Median(run_s));
  out->Layer("models.eval_s",
             per(Sum(traced, [](const Phase& p) { return p.model_s; }),
                 requests));
  out->Layer("models.calls", per(calls, requests));
  out->Layer("models.samples", per(samples, requests));
  out->Layer("models.samples_per_call", per(samples, calls));
  out->Layer("core.points_evaluated", per(points, optimizes));
  out->Layer("core.points_reused", per(reused, optimizes));
  out->Layer("core.reuse_rate", per(reused, points));
  out->Layer("core.bases", per(bases, optimizes));
  out->Layer("core.column_samples", per(column_samples, optimizes));
  out->Layer("pdb.cache_generations", generations);
  out->Layer("pdb.cache_hit_rate", reads > 0 ? 1.0 - generations / reads : 0);
  const char* warm[2] = {"serve.warm_hit_rate.shared",
                         "serve.warm_hit_rate.private"};
  for (int c = 0; c < 2; ++c) {
    out->Layer(warm[c],
               per(Sum(traced, [c](const Phase& p) { return p.warm_hits[c]; }),
                   Sum(traced,
                       [c](const Phase& p) { return p.warm_lookups[c]; })));
  }
  out->Layer("serve.publish_s", Median(Latencies(traced, kPublish)));
  out->Layer("serve.contention_s", Median(contention_s));
  out->Layer("interactive.prime_s", Median(prime_s));
  out->Layer("interactive.tick_s", Median(tick_s));
  out->Layer("interactive.ticks",
             per(ticks, static_cast<double>(prime_s.size())));
  out->Layer("trace.overhead_ratio",
             Median(Latencies(traced)) / Median(Latencies(plain)));
  out->details["traced_requests"] = requests;
  out->details["untraced_requests"] =
      static_cast<double>(Requests(plain).size());
  out->details["world_reads"] = reads;
}

}  // namespace perfbench
