#pragma once

// Shared pieces of the benchmark binary: options, the result record every
// workload fills, order statistics, the bitwise output checksum, the
// timing/counting model decorator the traced runs register, and the
// per-layer metric list every traced run reports.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/optimizer.h"
#include "models/black_box.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< required: BENCHMARK.json run_seconds
  bool trace = false;
  /// Stored expectations for this (workload, seed), passed by run.py as
  /// --expect key=value. Empty when the seed has no recorded entry.
  std::map<std::string, std::string> expect;
};

/// The library's master seed for request seed `seed`: the library default
/// plus `seed`, so request seed 0 reproduces the figures in README.md.
std::uint64_t MasterSeed(std::uint64_t seed);

/// CPUs this process may run on (its affinity mask; at least 1), which is
/// what nproc reports.
std::size_t HardwareThreads();

/// Moves the calling thread to the `i`-th CPU (mod the CPUs this process
/// may use). A single-threaded client rotates over every CPU this way, so
/// one run samples all of them instead of the one the scheduler picked:
/// on a shared host each CPU's speed varies with its neighbours' load.
void PinToCpu(std::size_t i);

/// Lets the calling thread run on every CPU this process may use again.
void Unpin();

/// Seconds on the steady clock since an arbitrary origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `repeats` back-to-back calls of `setup` as one batch and returns
/// the mean seconds per call, or a negative value if a call failed. A set-up
/// takes microseconds, too little to time one at a time; the workloads time
/// batches after each request, so the median over a run samples the host
/// over the whole run, as the request metrics do, not only its first
/// milliseconds.
double TimeSetupBatch(const std::function<bool()>& setup, int repeats);

/// Order-sensitive bitwise fold of doubles (FNV-1a over the raw bits).
class Checksum {
 public:
  void Fold(double x);
  void FoldMetrics(const jigsaw::OutputMetrics& m);
  void FoldColumns(const std::map<std::string, jigsaw::OutputMetrics>& c);
  /// Every group's valuation, constraint left-hand sides and verdict,
  /// then the chosen valuation.
  void FoldOptimize(const jigsaw::OptimizeResult& r);
  std::uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t v);

double Median(std::vector<double> xs);

/// The highest percentile that still has at least `beyond` samples above
/// it, with the percentile and the count recorded beside the value.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in [0, 100]
  std::size_t samples_beyond = 0;
};
Tail TailLatency(std::vector<double> xs, std::size_t beyond = 10);

/// Peak resident set of this process (VmHWM), in MiB. Each benchmark run
/// is its own process running one workload, so this is the workload's peak.
double PeakRssMib();

/// Counters one decorated model registry accumulates. Atomic because pool
/// workers evaluate models concurrently.
struct ModelCounters {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> nanos{0};

  void Reset() {
    calls = 0;
    samples = 0;
    nanos = 0;
  }
  double seconds() const { return static_cast<double>(nanos.load()) * 1e-9; }
};

/// Registers every cloud model into `registry`, each wrapped in a
/// decorator that counts calls and samples into `counters` and forwards to
/// the native EvalBatch kernel. With `timed`, each call is also timed.
jigsaw::Status RegisterCountedCloudModels(jigsaw::ModelRegistry* registry,
                                          ModelCounters* counters,
                                          bool timed);

/// Every per-layer metric a traced run reports, with its unit. A layer a
/// workload leaves idle reports 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& LayerMetricDefs();

/// What one run measured. main() prints it as the report line run.py reads.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failures that are not per-request (a fidelity or twin mismatch).
  std::vector<std::string> errors;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  /// The metrics of this run: the end-to-end set, or with --trace 1 the
  /// per-layer set. run.py checks the names against BENCHMARK.json.
  std::map<std::string, Metric> metrics;
  /// Extra figures and descriptions for the report (not gated).
  std::map<std::string, double> details;
  std::map<std::string, std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void Error(const std::string& what) { errors.push_back(what); }

  /// Starts the per-layer set: every layer metric at 0 (an idle layer).
  void InitLayers();
  /// Sets a per-layer metric; its unit comes from LayerMetricDefs().
  void Layer(const std::string& name, double value);

  /// Fills the end-to-end metrics every workload shares: setup_s (median
  /// of the set-ups), request_p50_s, request_tail_s, requests_per_s over
  /// `elapsed_s` of closed-loop time, and peak_rss_mib.
  void EndToEnd(const std::vector<double>& setup_s,
                const std::vector<double>& latencies_s, double elapsed_s,
                double peak_rss_mib);
};

/// Notes the request seeds [first, first + count) a run used.
void NoteRequestSeeds(std::uint64_t first, std::uint64_t count,
                      RunResult* out);

/// Checks `actual` against the stored expectation `key` when one exists;
/// otherwise against the first value seen in this run (recorded in
/// `*first`). Returns false on a mismatch.
bool CheckExpected(const Options& opt, const std::string& key,
                   const std::string& actual,
                   std::optional<std::string>* first);

void RunOptimizeFig1(const Options& opt, RunResult* out);
void RunMonteCarloJoin(const Options& opt, RunResult* out);
void RunServeMixed(const Options& opt, RunResult* out);

}  // namespace perfbench
