// Service workload: service_warm.
//
// The daemon runs in this process: a CampaignService (one scheduler worker,
// cache on the working filesystem, telemetry hub attached as rnoc_served
// attaches one) behind a Server on a unix socket, its accept loop on a
// thread of its own. One client submits the 15 smoke campaigns through
// serve::run_campaign_via_daemon, one at a time, each pass in an order
// shuffled by the workload seed. Set-up fills the cache with one pass, so
// every timed point is a cache hit. Every reply is checked against the
// committed golden under results/golden/.
//
// workers = 1: with two or more scheduler workers, two workers can call
// global_pool().parallel_for at once, and cold spf_montecarlo /
// latency_splash2 submissions were seen to hang (see perfbench/README.md).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/json.hpp"
#include "campaign/registry.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"

namespace perfbench {

namespace campaign = rnoc::campaign;
namespace serve = rnoc::serve;
namespace fs = std::filesystem;

namespace {

constexpr const char* kSocket = "daemon.sock";  // relative: short sun_path
constexpr const char* kGitSha = "perfbench";
// Nominal cost of one warm pass over the 15 campaigns on the reference host
// (perfbench/README.md).
constexpr double kWarmPassMs = 2.6;
// The slowest smoke campaign takes about 1.3 s cold on the reference host.
constexpr double kRequestTimeoutS = 20;

/// The in-process daemon. The server loop runs on its own thread; stop()
/// winds it down and waits for that thread with a deadline.
class Daemon {
 public:
  /// A thread starts on its creator's CPU, so the scheduler worker, which
  /// CampaignService's constructor starts, gets `cpus.worker` to itself.
  Daemon(const std::string& cache_root, const CpuPlan& cpus) {
    serve::TelemetryHub::Config tcfg;
    tcfg.git_sha = kGitSha;
    hub_ = std::make_unique<serve::TelemetryHub>(tcfg);
    serve::CampaignService::Config scfg;
    scfg.workers = 1;
    scfg.cache_root = cache_root;
    scfg.git_sha = kGitSha;
    scfg.telemetry = hub_.get();
    bind_this_thread(cpus.worker);
    service_ = std::make_unique<serve::CampaignService>(scfg);
    bind_this_thread(cpus.client);
    serve::Server::Config cfg;
    cfg.socket_path = kSocket;
    cfg.telemetry = hub_.get();
    server_ = std::make_unique<serve::Server>(cfg, *service_);
    stopped_ = std::async(std::launch::async, [this] { server_->run(); });
  }

  ~Daemon() {
    if (!stop(60.0)) {
      std::fprintf(stderr, "perfbench: daemon did not stop; aborting\n");
      std::_Exit(3);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Async-signal-safe nudge; the server thread then shuts down.
  void request_stop() { server_->request_stop(); }

  /// Stops the server and waits up to `timeout_s` for its thread. False
  /// when the thread is still running (the daemon is wedged).
  bool stop(double timeout_s) {
    if (!stopped_.valid()) return true;
    server_->request_stop();
    if (stopped_.wait_for(std::chrono::duration<double>(timeout_s)) !=
        std::future_status::ready)
      return false;
    stopped_.get();
    return true;
  }

  serve::CampaignService& service() { return *service_; }
  serve::TelemetryHub& hub() { return *hub_; }

 private:
  std::unique_ptr<serve::TelemetryHub> hub_;
  std::unique_ptr<serve::CampaignService> service_;
  std::unique_ptr<serve::Server> server_;
  std::future<void> stopped_;
};

/// Bounds each request. arm() and disarm() are one atomic store and one
/// exchange, so the closed loop pays no wake-up per request; the watchdog
/// thread polls. Past the deadline it claims the request by moving
/// armed_at_ from its arm time to kFired, and only then runs the action
/// (the daemon's request_stop, which fails the in-flight job and closes the
/// connection so the client call returns). A request that disarms first
/// makes the claim fail, so a request that finished in time is never
/// stopped. If the client still has not returned after a second timeout
/// the process cannot recover and exits.
class Watchdog {
 public:
  explicit Watchdog(double timeout_s)
      : timeout_ns_(static_cast<std::int64_t>(timeout_s * 1e9)),
        thread_([this] { loop(); }) {}

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Installs the timeout action; waits out an action already running, so
  /// whatever the old action referred to may be released afterwards.
  void set_action(std::function<void()> action) {
    const std::lock_guard<std::mutex> lock(mu_);
    action_ = std::move(action);
  }

  void arm() { armed_at_.store(now_ns()); }

  /// Ends the armed request; true when the watchdog fired on it.
  bool disarm() { return armed_at_.exchange(0) == kFired; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  void loop() {
    std::int64_t fired_at = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                         [this] { return stop_; })) {
      std::int64_t at = armed_at_.load();
      if (at == kFired) {
        if (now_ns() - fired_at > timeout_ns_) {
          std::fprintf(stderr,
                       "perfbench: a timed-out request did not return; "
                       "aborting\n");
          std::_Exit(3);
        }
        continue;
      }
      if (at == 0 || now_ns() - at <= timeout_ns_) continue;
      if (!armed_at_.compare_exchange_strong(at, kFired)) continue;
      fired_at = now_ns();
      if (action_) action_();  // quick: an atomic flag and a shutdown(2)
    }
  }

  /// armed_at_ of a request the watchdog fired on.
  static constexpr std::int64_t kFired = -1;

  const std::int64_t timeout_ns_;
  /// The armed request's start; 0 while none is armed, kFired once fired.
  std::atomic<std::int64_t> armed_at_{0};
  std::mutex mu_;  ///< Guards action_ and stop_.
  std::condition_variable cv_;
  std::function<void()> action_;
  bool stop_ = false;
  std::thread thread_;  // last: started after the state it reads
};

/// Smoke campaigns whose Monte-Carlo points split their trials into one
/// shard per global_pool() worker, so their statistics depend on the host's
/// core count. Their committed goldens reproduce only on a host with the
/// generating core count (on 4 cores, spf_montecarlo and environment_sweep
/// drift beyond compare_results.py's tolerance). Replies for these are
/// checked against the library's own in-process run of the campaign.
const std::vector<std::string> kHostDependent = {
    "environment_sweep", "mttf", "spf_montecarlo"};

/// The 15 smoke campaigns and the reference each reply is checked against.
struct Catalogue {
  std::vector<std::string> names;
  std::map<std::string, std::string> reference;
};

/// Loads the goldens, and computes the host-dependent references with
/// campaign::run_inline. Harness verification, not daemon set-up: runs once
/// per process, outside every timed region.
Catalogue load_catalogue(const std::string& root) {
  Catalogue c;
  for (const campaign::CampaignSpec& spec : campaign::campaign_registry()) {
    c.names.push_back(spec.name);
    const bool local = std::find(kHostDependent.begin(), kHostDependent.end(),
                                 spec.name) != kHostDependent.end();
    c.reference[spec.name] =
        local ? campaign::to_json(campaign::run_inline(spec, true))
              : read_file(root + "/results/golden/" + spec.name + ".json");
  }
  return c;
}

/// One pass's submission order: the catalogue shuffled by the seed.
std::vector<std::string> pass_order(const Catalogue& c, std::uint64_t seed,
                                    std::size_t pass) {
  std::vector<std::string> order = c.names;
  rnoc::Rng(input_seed(seed, pass)).shuffle(order);
  return order;
}

/// A request whose reply never came back failed; one whose reply came back
/// and did not check out is wrong.
Outcome outcome_of(const serve::ClientOutcome& out, const std::string& err) {
  if (!out.ok) return Outcome::Failed;
  return err.empty() ? Outcome::Ok : Outcome::Wrong;
}

/// Output check of one reply. `warm`: every point must be a cache hit.
std::string check_reply(const serve::ClientOutcome& out, const Catalogue& c,
                        bool warm) {
  if (!out.ok) return out.campaign + ": " + out.error;
  const std::string drift =
      golden_drift(c.reference.at(out.campaign), out.result_text);
  if (!drift.empty()) return out.campaign + ": " + drift;
  if (warm && out.cache_hits != out.points)
    return out.campaign + ": warm request computed points";
  return {};
}

/// Counters the daemon already publishes: ResultCache::Stats and the
/// telemetry hub's latency summaries (count and sum per histogram).
struct DaemonCounters {
  double hits = 0, misses = 0, stores = 0;
  std::map<std::string, std::pair<double, double>> hist;  ///< (count, sum_us)

  static DaemonCounters of(Daemon& d) {
    DaemonCounters c;
    const serve::ResultCache::Stats s = d.service().cache_stats();
    c.hits = static_cast<double>(s.hits);
    c.misses = static_cast<double>(s.misses);
    c.stores = static_cast<double>(s.stores);
    const campaign::JsonValue snap =
        campaign::parse_json(d.hub().metrics_json());
    if (const campaign::JsonValue* hs = snap.find("histograms"))
      for (const auto& [name, v] : hs->members())
        c.hist[name] = {v.at("count").as_number(), v.at("sum_us").as_number()};
    return c;
  }

  DaemonCounters operator-(const DaemonCounters& o) const {
    DaemonCounters d = *this;
    d.hits -= o.hits;
    d.misses -= o.misses;
    d.stores -= o.stores;
    for (const auto& [name, v] : o.hist) {
      d.hist[name].first -= v.first;
      d.hist[name].second -= v.second;
    }
    return d;
  }

  /// Mean sample of a histogram, in ms; 0 when it has none.
  double mean_ms(const std::string& name) const {
    const auto it = hist.find(name);
    if (it == hist.end() || it->second.first <= 0) return 0.0;
    return it->second.second / it->second.first / 1000.0;
  }
};

class ServiceRun {
 public:
  explicit ServiceRun(const Options& opt)
      : opt_(opt), watchdog_(kRequestTimeoutS) {}

  RunResult run();

 private:
  /// A fresh, empty cache directory on the working filesystem.
  std::string fresh_cache(const std::string& stem) {
    const std::string dir = stem + "-" + std::to_string(::getpid());
    fs::remove_all(dir);
    return dir;
  }

  void start_daemon() {
    daemon_ = std::make_unique<Daemon>(cache_dir_, opt_.cpus);
    Daemon* const d = daemon_.get();
    watchdog_.set_action([d] { d->request_stop(); });
  }

  void stop_daemon() {
    watchdog_.set_action(nullptr);
    daemon_.reset();
  }

  void restart_daemon() {
    stop_daemon();
    start_daemon();
  }

  /// One bounded client call. A timeout fails the request and restarts
  /// the daemon on the same cache.
  serve::ClientOutcome submit(const std::string& name, bool& timed_out) {
    watchdog_.arm();
    serve::ClientOutcome out = serve::run_campaign_via_daemon(
        kSocket, name, /*smoke=*/true, serve::Lane::Bulk, "");
    timed_out = watchdog_.disarm();
    if (timed_out) {
      out.ok = false;
      out.error = "timed out after " + std::to_string(kRequestTimeoutS) +
                  " s; daemon restarted";
      restart_daemon();
    }
    return out;
  }

  /// Untimed pass over every campaign (fills the warm cache).
  void fill_pass() {
    for (const std::string& name : cat_.names) {
      bool timed_out = false;
      const std::string err = check(submit(name, timed_out), false);
      if (!err.empty()) throw std::runtime_error("cache fill: " + err);
    }
  }

  /// Output check of one reply: golden-clean, all cache hits when `warm`,
  /// and byte-identical to the first reply this run got for the campaign.
  std::string check(const serve::ClientOutcome& out, bool warm = true) {
    std::string err = check_reply(out, cat_, warm);
    if (!err.empty()) return err;
    const auto [it, first] = served_.emplace(out.campaign, out.result_text);
    if (!first && it->second != out.result_text)
      err = out.campaign + ": reply differs from this run's first reply";
    return err;
  }

  void setup();
  void timed_phase();
  void traced_phase();

  const Options& opt_;
  std::unique_ptr<Daemon> daemon_;  // outlived by the watchdog's action
  Watchdog watchdog_;
  Catalogue cat_;
  std::string cache_dir_;
  RunResult res_;
  /// The untimed loop's requests in order (pass, campaign), for the replay.
  std::vector<std::pair<std::size_t, std::string>> requests_;
  std::map<std::string, std::string> served_;  ///< First reply per campaign.
};

void ServiceRun::setup() {
  cat_ = load_catalogue(opt_.root);
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    stop_daemon();
    cache_dir_ = fresh_cache("cache");
    served_.clear();
    start_daemon();
    fill_pass();
    // Untimed warm-up request, served from the filled cache.
    bool timed_out = false;
    const std::string err = check(submit(cat_.names.front(), timed_out));
    if (!err.empty()) throw std::runtime_error("warm-up request: " + err);
    res_.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
}

void ServiceRun::timed_phase() {
  const std::size_t passes = rounds_for(opt_, kWarmPassMs, cat_.names.size());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const std::string& name : pass_order(cat_, opt_.seed, pass)) {
      bool timed_out = false;
      const auto t0 = Clock::now();
      const serve::ClientOutcome out = submit(name, timed_out);
      const double ms = ms_between(t0, Clock::now());
      const std::string err = check(out);
      res_.record(ms, outcome_of(out, err), out.points, err);
      requests_.emplace_back(pass, name);
    }
  }
}

void ServiceRun::traced_phase() {
  Tracer tracer;
  std::vector<double> traced_ms;
  std::map<std::string, double> execute_ms;  // per campaign, summed
  double expand_ms = 0, parse_ms = 0, serialize_ms = 0, rtt_ms = 0;
  double store_ms = 0, stores_replayed = 0, result_bytes = 0;
  // Stores are replayed into a cache of the harness's own, on the same
  // filesystem as the daemon's.
  const std::string replay_dir = fresh_cache("replay-cache");
  serve::ResultCache::Config rc;
  rc.root = replay_dir;
  rc.git_sha = kGitSha;
  auto replay_cache = std::make_unique<serve::ResultCache>(rc);

  // The daemon's own counters over the phase.
  const DaemonCounters base = DaemonCounters::of(*daemon_);

  for (std::size_t k = 0; k < requests_.size(); ++k) {
    const auto& [pass, name] = requests_[k];
    std::string ping_err;
    auto t = Clock::now();
    const bool pinged = serve::ping_daemon(kSocket, ping_err);
    rtt_ms += ms_between(t, Clock::now());
    tracer.add("serve.wire_rtt", t, Clock::now(), k);

    bool timed_out = false;
    const int span = tracer.open("request", k);
    const serve::ClientOutcome out = submit(name, timed_out);
    tracer.close(span);
    traced_ms.push_back(tracer.duration_ms(span));
    std::string err = check(out);
    Outcome outcome = outcome_of(out, err);
    if (!pinged && outcome == Outcome::Ok) {
      err = "ping: " + ping_err;
      outcome = Outcome::Failed;
    }

    // Outside-in split: the layers the daemon ran for this request, called
    // directly on the same inputs and timed one by one.
    const campaign::CampaignSpec& spec = *campaign::find_campaign(name);
    t = Clock::now();
    const std::vector<campaign::PointUnit> units =
        campaign::expand_point_units(spec, true);
    std::vector<std::string> ids;
    for (const auto& u : units) ids.push_back(u.id);
    const std::string hash = campaign::spec_config_hash(spec, true, ids);
    expand_ms += ms_between(t, Clock::now());
    tracer.add("campaign.expand", t, Clock::now(), k);

    campaign::CampaignResult parsed;
    if (err.empty()) {
      t = Clock::now();
      parsed = campaign::result_from_json(out.result_text);
      parse_ms += ms_between(t, Clock::now());
      tracer.add("campaign.parse", t, Clock::now(), k);
      t = Clock::now();
      const std::string again = campaign::to_json(parsed);
      serialize_ms += ms_between(t, Clock::now());
      tracer.add("campaign.serialize", t, Clock::now(), k);
      if (again != out.result_text)
        err = name + ": re-serialized result differs from the reply";
      result_bytes += static_cast<double>(out.result_text.size());
    }
    // Execute and store are replayed for one pass: the work the set-up's
    // fill pass did, which the timed loop never repeats.
    if (pass == 0 && err.empty()) {
      for (std::size_t i = 0; i < units.size() && err.empty(); ++i) {
        t = Clock::now();
        const campaign::PointResult p =
            campaign::run_point_unit(spec, units[i], true);
        execute_ms[name] += ms_between(t, Clock::now());
        tracer.add("campaign.execute", t, Clock::now(), k);
        if (campaign::point_to_json_text(p) !=
            campaign::point_to_json_text(parsed.points[i]))
          err = name + ": re-executed point " + p.id + " differs";
        t = Clock::now();
        replay_cache->store(hash, p);
        store_ms += ms_between(t, Clock::now());
        tracer.add("serve.cache_store", t, Clock::now(), k);
        ++stores_replayed;
      }
    }
    if (outcome == Outcome::Ok && !err.empty()) outcome = Outcome::Wrong;
    res_.count(outcome, "traced run: " + err);
  }
  const DaemonCounters seen = DaemonCounters::of(*daemon_) - base;
  replay_cache.reset();
  fs::remove_all(replay_dir);
  tracer.write_json("spans-" + opt_.workload + ".json");

  const double n = static_cast<double>(requests_.size());
  const double passes = static_cast<double>(requests_.back().first + 1);
  auto& L = res_.layer;
  double execute_total = 0;
  for (const std::string& name : cat_.names) {
    L["campaign.execute_ms." + name] = execute_ms[name];
    execute_total += execute_ms[name];
  }
  L["campaign.expand_ms"] = expand_ms / n;
  L["campaign.execute_ms"] =
      execute_total / static_cast<double>(cat_.names.size());
  L["campaign.serialize_ms"] = serialize_ms / n;
  L["campaign.parse_ms"] = parse_ms / n;
  L["campaign.result_bytes"] = result_bytes / n;
  L["serve.cache_store_ms"] =
      stores_replayed > 0 ? store_ms / stores_replayed : 0;
  L["serve.cache_stores"] = seen.stores / passes;
  L["serve.cache_lookup_ms"] = seen.mean_ms("point_cache_hit_us");
  L["serve.cache_hit_ratio"] =
      seen.hits + seen.misses > 0 ? seen.hits / (seen.hits + seen.misses) : 0;
  L["serve.queue_wait_ms"] = seen.mean_ms("queue_wait_bulk_us");
  L["serve.wire_rtt_ms"] = rtt_ms / n;
  const double untraced_p50 = median(res_.request_ms);
  L["trace.overhead_pct"] =
      untraced_p50 > 0 ? 100.0 * (median(traced_ms) / untraced_p50 - 1.0) : 0;
}

/// Mean of the simulated packet-latency metrics (cycles) over every point
/// of one reply per campaign: the simulated latency the service delivers.
double served_latency_cycles(const std::map<std::string, std::string>& served) {
  static const std::vector<std::string> kLatency = {
      "latency", "avg_latency", "fault_free_latency", "faulted_latency"};
  double sum = 0;
  std::size_t n = 0;
  for (const auto& [name, text] : served)
    for (const campaign::PointResult& p :
         campaign::result_from_json(text).points)
      for (const campaign::Metric& m : p.metrics)
        if (std::find(kLatency.begin(), kLatency.end(), m.name) !=
            kLatency.end()) {
          sum += m.value;
          ++n;
        }
  return n ? sum / static_cast<double>(n) : 0.0;
}

RunResult ServiceRun::run() {
  setup();
  timed_phase();
  res_.sim_latency_avg_cycles = served_latency_cycles(served_);
  if (opt_.trace) traced_phase();
  stop_daemon();
  fs::remove_all(cache_dir_);
  return std::move(res_);
}

}  // namespace

RunResult run_service_warm(const Options& opt) {
  return ServiceRun(opt).run();
}

}  // namespace perfbench
