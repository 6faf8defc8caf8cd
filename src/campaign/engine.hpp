// Experiment-campaign engine: one resumable, schema-versioned driver for
// every paper figure and table.
//
// A campaign is declared as a CampaignSpec — a list of point ids plus a pure
// function mapping (point index, derived seed, smoke flag) to a metric list.
// The engine shards the points, runs shards on the shared thread pool,
// checkpoints each completed shard to disk, and assembles a CampaignResult
// whose JSON serialization is deterministic:
//
//  * per-point RNG streams derive from (campaign seed, point index), never
//    from the shard layout or thread schedule, so results are invariant
//    under the shard count and worker interleaving;
//  * checkpoints round-trip doubles exactly (std::to_chars shortest form,
//    locale-independent), so a killed run that
//    resumes from its shard files emits a byte-identical result file to an
//    uninterrupted run (test-enforced in tests/test_campaign_engine.cpp);
//  * result files carry schema_version, the git SHA, and a config hash over
//    the expanded spec, so tools/compare_results.py can tell "number moved"
//    from "experiment changed".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace rnoc::campaign {

// Version 2 added the optional per-point "obs" metric block (stall/protection
// observability counters; absent when a point does not produce one).
inline constexpr int kSchemaVersion = 2;

enum class MetricKind {
  Exact,       ///< Deterministic output; compared bit-for-bit (latency, FIT).
  Statistical  ///< Monte-Carlo estimate; compared within its CI.
};

struct Metric {
  std::string name;
  double value = 0.0;
  double ci95 = 0.0;  ///< 95% CI half-width; 0 for exact metrics.
  MetricKind kind = MetricKind::Exact;
};

Metric exact_metric(std::string name, double value);
Metric stat_metric(std::string name, double value, double ci95);
/// Mean + CI of a finished accumulator.
Metric stat_metric(std::string name, const RunningStats& s);

struct PointResult {
  std::string id;
  std::vector<Metric> metrics;
  /// Observability block (schema v2): auxiliary counters that describe *how*
  /// the point ran (stall cycles, protection events), kept separate from the
  /// headline metrics so figure tooling can ignore them wholesale. Must be
  /// derived from build-invariant sources (RouterStats), never from
  /// RNOC_TRACE-only state, so result files stay byte-identical across
  /// traced and untraced builds.
  std::vector<Metric> obs;
};

/// What run_point returns. Implicitly constructible from a bare metric list
/// so existing specs (`return Metrics{...};`) keep compiling; specs that
/// attach an observability block build one explicitly.
struct PointOutput {
  std::vector<Metric> metrics;
  std::vector<Metric> obs;

  PointOutput() = default;
  PointOutput(std::vector<Metric> m)  // NOLINT: implicit by design
      : metrics(std::move(m)) {}
};

/// One schedulable unit of campaign work — the atom the serve layer ships
/// between workers and caches on disk. index and seed are engine-derived
/// (derive_point_seed), so a unit run anywhere, in any order, reproduces
/// the exact point the sharded local run would have produced.
struct PointUnit {
  std::size_t index = 0;
  std::string id;
  std::uint64_t seed = 0;
};

/// Declarative description of one experiment campaign.
struct CampaignSpec {
  std::string name;         ///< Registry key and result-file stem.
  std::string artifact;     ///< Paper artifact, e.g. "Table I", "Figure 7".
  std::string description;  ///< One line for --list.
  std::uint64_t seed = 1;   ///< Root of every per-point RNG stream.
  /// Bumped by the campaign author whenever the runner's internals change
  /// in a value-affecting way that point ids do not capture (trial counts,
  /// simulation windows); invalidates stale checkpoints and golden files.
  std::string config_tag = "v1";
  /// Expands the (possibly smoke-shrunk) parameter grid into point ids.
  std::function<std::vector<std::string>(bool smoke)> point_ids;
  /// Computes one point. Must be a pure function of its arguments — no
  /// wall-clock, no global RNG, no cross-point state — so points can run
  /// in any order, on any shard, and reproduce bit-identically.
  std::function<PointOutput(std::size_t index, std::uint64_t seed, bool smoke)>
      run_point;
};

struct CampaignResult {
  int schema_version = kSchemaVersion;
  std::string campaign;
  std::string artifact;
  std::string config_hash;  ///< 16 hex digits over the expanded spec.
  std::string git_sha = "unknown";
  bool smoke = false;
  std::uint64_t seed = 1;
  std::vector<PointResult> points;

  const PointResult* find_point(const std::string& id) const;
  /// Metric lookup by point and name; throws when absent.
  double value(const std::string& point_id, const std::string& metric) const;
};

struct RunOptions {
  bool smoke = false;
  /// 0 = one shard per point, capped at 8.
  int shards = 0;
  /// Directory for shard checkpoints; empty disables checkpointing (and
  /// therefore resume).
  std::string checkpoint_dir;
  std::string git_sha = "unknown";
  /// Test hook: run at most this many not-yet-checkpointed shards, then
  /// return with complete == false (simulates a killed run). -1 = no limit.
  int stop_after_shards = -1;
  /// Pool to fan shards out on; null = global_pool().
  ThreadPool* pool = nullptr;
  /// Optional live-progress callback, invoked after every completed point.
  /// Calls come from whichever worker ran the point but are serialized by
  /// the engine (no two calls overlap), so a plain printf body is safe.
  /// `done`/`total` count points; resumed checkpoints count as done.
  std::function<void(std::size_t done, std::size_t total, int shard,
                     const std::string& point_id)>
      progress;
  /// Optional persistent point cache (serve::ResultCache adapts to these
  /// two hooks so the engine never depends on the serve layer). lookup is
  /// consulted before a point runs; a hit whose id matches skips the run.
  /// store receives every freshly computed point. Both get the expanded
  /// spec's config hash, which keys the cache together with the schema
  /// version and git SHA. Hooks may be called concurrently from shard
  /// workers and must synchronize internally.
  std::function<bool(const std::string& config_hash,
                     const std::string& point_id, PointResult& out)>
      cache_lookup;
  std::function<void(const std::string& config_hash, const PointResult& p)>
      cache_store;
};

struct RunOutcome {
  CampaignResult result;  ///< Valid only when complete.
  bool complete = false;
  int shards_total = 0;
  int shards_resumed = 0;  ///< Loaded from valid checkpoints.
  int shards_run = 0;      ///< Newly computed by this invocation.
  /// Point-level accounting for the cache hooks: hits served from
  /// cache_lookup vs. points computed by run_point this invocation.
  /// Points restored from shard checkpoints count as neither.
  std::size_t points_cached = 0;
  std::size_t points_computed = 0;
};

/// Runs (or resumes) a campaign. Throws std::invalid_argument on malformed
/// specs; propagates exceptions from run_point.
RunOutcome run_campaign(const CampaignSpec& spec, const RunOptions& opts);

/// Convenience for in-process consumers (tests, perfbench): run to
/// completion with no checkpointing and return the result.
CampaignResult run_inline(const CampaignSpec& spec, bool smoke = false);

/// Deletes the spec's shard checkpoint files (used after a successful run).
void remove_checkpoints(const CampaignSpec& spec, const RunOptions& opts);

// --- Serialization ---
std::string to_json(const CampaignResult& r);
CampaignResult result_from_json(const std::string& text);
void write_result_file(const CampaignResult& r, const std::string& path);
CampaignResult read_result_file(const std::string& path);

/// Human-readable table of every point and metric (rnoc_campaign --print
/// prints this; the library itself never writes to stdout).
std::string format_result(const CampaignResult& r);

/// Serialization of a single point (the cache-entry payload). The text is
/// deterministic and round-trips exactly, so a re-serialized parse is
/// byte-identical — serve::ResultCache checksums rely on that.
std::string point_to_json_text(const PointResult& p);
PointResult point_from_json_text(const std::string& text);

// --- Point-unit decomposition (the serve layer's schedulable atoms) ---
/// Expands the spec's (possibly smoke-shrunk) grid into units carrying the
/// engine-derived per-point seeds. Throws on malformed specs.
std::vector<PointUnit> expand_point_units(const CampaignSpec& spec,
                                          bool smoke);
/// Runs one unit to a finished PointResult. Pure: safe to call from any
/// thread, in any order, and bit-reproducible for a given (spec, unit).
PointResult run_point_unit(const CampaignSpec& spec, const PointUnit& u,
                           bool smoke);

// --- Determinism plumbing (exposed for tests) ---
/// SplitMix64-style mix of the campaign seed and point index.
std::uint64_t derive_point_seed(std::uint64_t campaign_seed,
                                std::size_t point_index);
/// FNV-1a over name, tag, seed, smoke flag and the expanded point ids.
std::string spec_config_hash(const CampaignSpec& spec, bool smoke,
                             const std::vector<std::string>& ids);
/// 16-hex-digit FNV-1a over arbitrary bytes (the hash family behind
/// spec_config_hash), exposed for cache keys and entry checksums.
std::string fnv1a_hex(const std::string& data);
/// Whole-file text I/O with the engine's atomicity discipline: write goes
/// to a same-directory temp file then renames, so a kill mid-write never
/// leaves a truncated file at the target path. Both throw on I/O errors.
std::string read_text(const std::string& path);
void write_text_atomic(const std::string& path, const std::string& text);
/// Best-effort HEAD commit hash found by walking up from `start_dir` to the
/// enclosing .git; "unknown" when not in a repository.
std::string read_git_sha(const std::string& start_dir);

}  // namespace rnoc::campaign
