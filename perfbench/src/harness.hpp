// Shared pieces of the perfbench harness: options, the per-run result every
// workload fills, the in-memory span log of the traced run, and the
// statistics that turn a run into the printed metrics.
//
// The harness drives the rnoc library from outside: it calls the public
// functions of the noc, traffic, fault, campaign and serve modules and
// times those calls with its own clock. Nothing here reaches inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Where a bound run places its threads: the service's scheduler worker
/// alone on one CPU, every other thread on another. -1 leaves threads
/// unbound. See perfbench/README.md for why.
struct CpuPlan {
  int client = -1;
  int worker = -1;
};

/// The last two CPUs this process may run on; unbound with fewer than two.
CpuPlan plan_cpus();

/// Binds the calling thread, and every thread it starts from now on, to
/// `cpu`; a no-op for -1.
void bind_this_thread(int cpu);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";        ///< Repository root (goldens live here).
  std::string work_dir;          ///< Scratch space for caches and sockets.
  CpuPlan cpus;                  ///< Unbound unless main() plans it.
};

/// setup_s is the median of this many set-ups.
inline constexpr int kSetupRepeats = 3;

/// Span log of the traced run. Spans are appended in memory and written
/// out once, when the run ends, so recording costs two clock reads and a
/// vector push per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;  ///< Since the tracer's epoch.
    double end_ms = 0.0;
    int parent = -1;        ///< Index of the parent span; -1 for a root.
    std::uint64_t request = 0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span and returns its index for close().
  int open(std::string name, std::uint64_t request, int parent = -1);
  void close(int span);
  /// Records a finished interval measured by the caller.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          std::uint64_t request, int parent = -1);

  double duration_ms(int span) const {
    return spans_[static_cast<std::size_t>(span)].end_ms -
           spans_[static_cast<std::size_t>(span)].start_ms;
  }
  /// A span's duration minus the time its direct children cover.
  double self_ms(int span) const;

  /// Writes every span as a JSON array (name, start_ms, end_ms, parent,
  /// request). Throws on I/O errors.
  void write_json(const std::string& path) const;

 private:
  double since_epoch(Clock::time_point t) const { return ms_between(epoch_, t); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// How a request ended: its reply passed every check, no reply came back
/// (an error or a timeout), or the reply came back wrong.
enum class Outcome { Ok, Failed, Wrong };

/// What one workload run produces. Every workload fills the common part;
/// `layer` holds the per-layer metrics of the traced run.
struct RunResult {
  std::vector<double> request_ms;  ///< One entry per timed request.
  std::vector<double> setup_s;     ///< One entry per setup repetition.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< Failed and wrong requests.
  std::uint64_t wrong = 0;         ///< Replies that failed their check.
  std::uint64_t points = 0;        ///< Campaign points delivered.
  double timed_ms = 0.0;           ///< Sum of request_ms.
  /// Mean simulated packet latency over one round of the workload's
  /// distinct inputs (exact: a pure function of the seed and the model).
  double sim_latency_avg_cycles = 0.0;
  std::map<std::string, double> layer;
  std::vector<std::string> errors;  ///< First few failure messages.

  /// Books one request of the traced run: counted, not timed.
  void count(Outcome outcome, const std::string& error = {});
  /// Books one timed request. Failed and wrong requests count against
  /// failed_fraction and deliver no points; their time is still recorded.
  void record(double ms, Outcome outcome, std::uint64_t delivered,
              const std::string& error = {});
  double failed_fraction() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

// --- statistics ---------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// The request-time tail: the highest nearest-rank percentile that still has
/// at least `beyond` samples above it, and its value. With n sorted samples
/// that is the sample at rank n - beyond, percentile 100 * (n - beyond) / n.
/// Needs n > beyond; otherwise returns the maximum at percentile 100.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// The tail of a long run: with at least two blocks of `block` samples, the
/// samples (in request order) are cut into equal consecutive blocks, tail()
/// is taken in each, and the median block tail is reported. A single
/// extreme percentile of a very long run (p99.99 of 90000 warm requests)
/// measures the host's rarest hiccups, not the service; the block tail
/// keeps ten samples beyond the percentile within every block. Shorter
/// runs are one block, i.e. plain tail().
Tail block_tail(const std::vector<double>& v, std::size_t block = 1500,
                std::size_t beyond = 10);

/// Compares a campaign result text against its committed golden the way
/// tools/compare_results.py does: metadata (schema, campaign, config hash,
/// smoke flag) must match and git_sha is ignored; exact metrics must agree
/// to a relative 1e-9, statistical ones within 3 sigma of their combined
/// 95% CIs plus 2 %. Returns an empty string on a match, else the first
/// drift found.
inline constexpr double kExactRelTol = 1e-9;
inline constexpr double kStatSigmas = 3.0;
inline constexpr double kStatRelTol = 0.02;
inline constexpr double kStatAbsTol = 1e-12;
std::string golden_drift(const std::string& golden_text,
                         const std::string& result_text);

/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

/// Runs the harness's own checks (percentile selection, failed_fraction
/// accounting, golden comparison). Returns the number of failures.
int self_test();

// --- workloads ------------------------------------------------------------

RunResult run_uniform_mid(const Options& opt);
RunResult run_fig7_faulted(const Options& opt);
RunResult run_service_warm(const Options& opt);

/// Runs every simulator-workload pool input on a fresh mesh and writes the
/// statistics the requests are checked against to
/// <root>/perfbench/reference/sim_stats.txt.
void record_reference(const std::string& root);

/// How many whole rounds over a workload's distinct inputs a run makes.
/// Every run of a workload makes the same number, so the sample count, and
/// with it the tail percentile, is the same in every run; a mix of unequal
/// requests would otherwise move the tail from one input to another as the
/// count changes. The count is --seconds over the round's nominal cost on
/// the reference host (see perfbench/README.md), halved for the untraced
/// part of a traced run, and at least enough for `min_requests` samples.
std::size_t rounds_for(const Options& opt, double nominal_round_ms,
                       std::size_t round_size, std::size_t min_requests = 20);

/// Derived per-request seed: a SplitMix-style mix of the workload seed and
/// the input's index (the engine's own derivation, reused).
std::uint64_t input_seed(std::uint64_t workload_seed, std::size_t index);

/// Peak resident set of this process in MB.
double peak_rss_mb();

}  // namespace perfbench
