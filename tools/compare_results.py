#!/usr/bin/env python3
"""Diff two campaign result files (or directories) against per-metric
tolerances — the CI regression gate behind results/golden/.

Campaign mode (default):
    compare_results.py GOLDEN NEW [options]
GOLDEN/NEW are rnoc_campaign result files (schema_version 2) or directories
of them (matching stems are compared; files present on only one side fail).
A point's optional "obs" block (stall/protection observability counters) is
gated like its metrics, addressed as obs.<name>.
Per-metric policy:
  exact  metrics (deterministic latency/FIT/synthesis numbers) must agree to
         --exact-rel-tol (default 1e-9 — identical code and seeds reproduce
         them bit-for-bit; the epsilon only absorbs libm variation across
         toolchains).
  stat   metrics (Monte-Carlo estimates) must agree within their combined
         95% confidence intervals scaled by --stat-sigmas (default 3) plus
         --stat-rel-tol (default 0.02) — so a legitimate code change that
         perturbs RNG consumption does not trip the gate, but a shifted
         distribution does.
Metadata policy: schema_version and config_hash must match (a config_hash
mismatch means the experiment itself changed — regenerate the goldens);
git_sha is informational and ignored.

Perf mode:
    compare_results.py --perf BASELINE NEW [--rel-tol 0.15]
BASELINE/NEW are flat JSON files of numeric metrics (CI writes one per run
from perfbench's result line; ci/perfbench_floor.json holds the floors).
Comparison is one-sided: a metric fails only when it regresses beyond the
tolerance (keys ending in _seconds regress upward, rates/speedups regress
downward). Booleans must match exactly; a null or missing metric fails.

    compare_results.py --self-test
Runs the built-in fixture suite (used by ctest) and exits non-zero on any
mismatch with the expected pass/fail outcomes.

Exit status: 0 = within tolerance, 1 = drift, 2 = usage/format error.
--summary-md FILE appends a GitHub-flavoured markdown table (for
$GITHUB_STEP_SUMMARY) with one row per drifted or compared metric.
"""

import argparse
import json
import math
import os
import sys
import tempfile

SCHEMA_VERSION = 2


class Drift:
    def __init__(self, where, message, old=None, new=None, allowed=None):
        self.where = where
        self.message = message
        self.old = old
        self.new = new
        self.allowed = allowed

    def row(self):
        fmt = lambda v: "" if v is None else f"{v:.6g}"
        return (self.where, self.message, fmt(self.old), fmt(self.new),
                fmt(self.allowed))


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"compare_results: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


# --- campaign mode ---------------------------------------------------------

def index_metrics(result):
    points = {}
    for p in result.get("points", []):
        metrics = {m["name"]: m for m in p.get("metrics", [])}
        # Schema v2: the optional observability block is gated with the same
        # per-kind policy, namespaced so it cannot collide with headline
        # metric names.
        for m in p.get("obs", []):
            metrics["obs." + m["name"]] = m
        points[p["id"]] = metrics
    return points


def compare_campaign(golden, new, opts):
    """Returns a list of Drift for one golden/new result pair."""
    drifts = []
    name = golden.get("campaign", "?")

    if golden.get("schema_version") != SCHEMA_VERSION:
        drifts.append(Drift(name, "golden has unsupported schema_version"))
        return drifts
    if new.get("schema_version") != SCHEMA_VERSION:
        drifts.append(Drift(name, "new result has unsupported schema_version"))
        return drifts
    if golden.get("campaign") != new.get("campaign"):
        drifts.append(Drift(name, "campaign name mismatch"))
        return drifts
    if golden.get("config_hash") != new.get("config_hash"):
        drifts.append(Drift(
            name, "config_hash mismatch: the experiment spec changed — "
                  "regenerate results/golden/ (see README)"))
        return drifts
    if golden.get("smoke") != new.get("smoke"):
        drifts.append(Drift(name, "smoke flag mismatch"))
        return drifts

    gold_points = index_metrics(golden)
    new_points = index_metrics(new)
    for pid in gold_points:
        if pid not in new_points:
            drifts.append(Drift(f"{name}/{pid}", "point missing from new result"))
    for pid in new_points:
        if pid not in gold_points:
            drifts.append(Drift(f"{name}/{pid}", "unexpected new point"))

    for pid, gold_metrics in gold_points.items():
        new_metrics = new_points.get(pid)
        if new_metrics is None:
            continue
        for mname, gm in gold_metrics.items():
            where = f"{name}/{pid}/{mname}"
            nm = new_metrics.get(mname)
            if nm is None:
                drifts.append(Drift(where, "metric missing from new result"))
                continue
            if gm.get("kind") != nm.get("kind"):
                drifts.append(Drift(where, "metric kind changed"))
                continue
            gv, nv = gm["value"], nm["value"]
            if gm.get("kind") == "stat":
                ci = math.hypot(gm.get("ci95", 0.0), nm.get("ci95", 0.0))
                allowed = (opts.stat_sigmas / 1.96) * ci \
                    + opts.stat_rel_tol * abs(gv) + opts.stat_abs_tol
                if abs(nv - gv) > allowed:
                    drifts.append(Drift(where, "statistical drift",
                                        gv, nv, allowed))
            else:
                allowed = opts.exact_rel_tol * max(abs(gv), 1.0)
                if abs(nv - gv) > allowed:
                    drifts.append(Drift(where, "exact-metric drift",
                                        gv, nv, allowed))
    return drifts


def campaign_pairs(golden_path, new_path):
    """Yields (stem, golden_file, new_file); missing partners yield None."""
    if os.path.isdir(golden_path) != os.path.isdir(new_path):
        print("compare_results: GOLDEN and NEW must both be files or both be "
              "directories", file=sys.stderr)
        sys.exit(2)
    if not os.path.isdir(golden_path):
        stem = os.path.splitext(os.path.basename(golden_path))[0]
        yield stem, golden_path, new_path
        return
    golden = {f for f in os.listdir(golden_path) if f.endswith(".json")}
    new = {f for f in os.listdir(new_path) if f.endswith(".json")}
    for f in sorted(golden | new):
        stem = os.path.splitext(f)[0]
        yield (stem,
               os.path.join(golden_path, f) if f in golden else None,
               os.path.join(new_path, f) if f in new else None)


def run_campaign_mode(opts):
    drifts, compared = [], 0
    for stem, gfile, nfile in campaign_pairs(opts.golden, opts.new):
        if gfile is None:
            drifts.append(Drift(stem, "no golden baseline for this result "
                                      "(add one under results/golden/)"))
            continue
        if nfile is None:
            drifts.append(Drift(stem, "campaign missing from new results"))
            continue
        drifts.extend(compare_campaign(load_json(gfile), load_json(nfile),
                                       opts))
        compared += 1
    report(drifts, f"{compared} campaign file(s) compared", opts)
    return 1 if drifts else 0


# --- perf mode -------------------------------------------------------------

# Direction of regression per key suffix: True = larger is worse.
def perf_higher_is_worse(key):
    return key.endswith("_seconds")


def run_perf_mode(opts):
    base = load_json(opts.golden)
    new = load_json(opts.new)
    drifts, compared = [], 0
    keys = opts.keys.split(",") if opts.keys else sorted(
        k for k in base if isinstance(base[k], (int, float, bool))
        and not isinstance(base[k], str))
    for key in keys:
        if key not in base or key not in new:
            drifts.append(Drift(key, "metric missing"))
            continue
        bv, nv = base[key], new[key]
        compared += 1
        if isinstance(bv, bool) or isinstance(nv, bool):
            if bv != nv:
                drifts.append(Drift(key, "boolean metric changed",
                                    float(bv), float(nv)))
            continue
        if not isinstance(bv, (int, float)) or not isinstance(nv, (int, float)):
            # e.g. a None marking a metric the run could not measure —
            # fail it rather than skipping or crashing.
            drifts.append(Drift(key, "metric not numeric in one run"))
            continue
        allowed = opts.rel_tol * max(abs(bv), 1e-12)
        delta = nv - bv if perf_higher_is_worse(key) else bv - nv
        if delta > allowed:
            drifts.append(Drift(key, "perf regression", bv, nv, allowed))
    report(drifts, f"{compared} perf metric(s) gated at "
                   f"±{opts.rel_tol:.0%} (one-sided)", opts)
    return 1 if drifts else 0


# --- reporting -------------------------------------------------------------

def report(drifts, context, opts):
    if drifts:
        print(f"DRIFT: {len(drifts)} metric(s) out of tolerance "
              f"({context})", file=sys.stderr)
        for d in drifts:
            where, msg, old, new, allowed = d.row()
            detail = f" golden={old} new={new} allowed±{allowed}" \
                if old or new else ""
            print(f"  {where}: {msg}{detail}", file=sys.stderr)
    else:
        print(f"OK: all metrics within tolerance ({context})")
    if opts.summary_md:
        with open(opts.summary_md, "a", encoding="utf-8") as f:
            status = "❌ drift detected" if drifts else "✅ within tolerance"
            f.write(f"### Result comparison — {status}\n\n{context}\n\n")
            if drifts:
                f.write("| metric | problem | golden | new | allowed Δ |\n")
                f.write("|---|---|---|---|---|\n")
                for d in drifts:
                    f.write("| " + " | ".join(d.row()) + " |\n")
                f.write("\n")


# --- self-test -------------------------------------------------------------

def self_test():
    failures = []
    fixtures = 0

    def expect(label, status, expected):
        nonlocal fixtures
        fixtures += 1
        if status != expected:
            failures.append(f"{label}: exit {status}, expected {expected}")

    def make_result(exact=117.0, stat=15.0, ci=0.1, config_hash="h1",
                    obs_stalls=42.0):
        return {
            "schema_version": SCHEMA_VERSION,
            "campaign": "fixture",
            "artifact": "Self-test",
            "config_hash": config_hash,
            "git_sha": "test",
            "smoke": True,
            "seed": 1,
            "points": [{
                "id": "p0",
                "metrics": [
                    {"name": "exact_m", "value": exact, "ci95": 0,
                     "kind": "exact"},
                    {"name": "stat_m", "value": stat, "ci95": ci,
                     "kind": "stat"},
                ],
                "obs": [
                    {"name": "stall_cycles", "value": obs_stalls, "ci95": 0,
                     "kind": "exact"},
                ],
            }],
        }

    def run_pair(label, golden, new, expected, extra=None):
        with tempfile.TemporaryDirectory() as d:
            g, n = os.path.join(d, "g.json"), os.path.join(d, "n.json")
            for path, data in ((g, golden), (n, new)):
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(data, f)
            argv = [g, n] + (extra or [])
            expect(label, main(argv), expected)

    run_pair("identical results pass", make_result(), make_result(), 0)
    run_pair("exact drift fails", make_result(), make_result(exact=117.5), 1)
    run_pair("tiny exact jitter passes", make_result(),
             make_result(exact=117.0 * (1 + 1e-12)), 0)
    run_pair("stat drift within CI passes", make_result(),
             make_result(stat=15.1), 0)
    run_pair("stat drift beyond CI fails", make_result(),
             make_result(stat=19.0), 1)
    run_pair("config hash mismatch fails", make_result(),
             make_result(config_hash="h2"), 1)
    missing = make_result()
    missing["points"][0]["metrics"] = missing["points"][0]["metrics"][:1]
    run_pair("missing metric fails", make_result(), missing, 1)
    run_pair("obs drift fails", make_result(), make_result(obs_stalls=43.0), 1)
    no_obs = make_result()
    del no_obs["points"][0]["obs"]
    run_pair("missing obs block fails", make_result(), no_obs, 1)
    run_pair("extra obs block ignored with plain golden", no_obs,
             make_result(), 0)

    perf_base = {"sweep_fast_seconds": 1.0, "fault_free_cycles_per_sec": 20000,
                 "latencies_identical": True, "trace_hooks_compiled": False}

    def run_perf_pair(label, new, expected):
        with tempfile.TemporaryDirectory() as d:
            g, n = os.path.join(d, "g.json"), os.path.join(d, "n.json")
            for path, data in ((g, perf_base), (n, new)):
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(data, f)
            expect(label, main(["--perf", g, n, "--rel-tol", "0.15"]),
                   expected)

    run_perf_pair("perf identical passes", dict(perf_base), 0)
    run_perf_pair("perf 10% slower passes",
                  dict(perf_base, sweep_fast_seconds=1.10), 0)
    run_perf_pair("perf 20% slower fails",
                  dict(perf_base, sweep_fast_seconds=1.20), 1)
    run_perf_pair("perf 2x faster passes (one-sided)",
                  dict(perf_base, sweep_fast_seconds=0.5), 0)
    run_perf_pair("perf throughput collapse fails",
                  dict(perf_base, fault_free_cycles_per_sec=10000), 1)
    run_perf_pair("perf identity bit flip fails",
                  dict(perf_base, latencies_identical=False), 1)
    run_perf_pair("perf traced binary fails",
                  dict(perf_base, trace_hooks_compiled=True), 1)
    run_perf_pair("perf vanished (null) metric fails",
                  dict(perf_base, fault_free_cycles_per_sec=None), 1)

    if failures:
        print("self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"self-test ok ({fixtures} fixtures)")
    return 0


# --- entry point -----------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("golden", nargs="?", help="golden result file or dir")
    ap.add_argument("new", nargs="?", help="new result file or dir")
    ap.add_argument("--perf", action="store_true",
                    help="flat perf-JSON mode with one-sided gating")
    ap.add_argument("--keys", help="comma-separated perf keys to gate "
                                   "(default: all numeric keys in baseline)")
    ap.add_argument("--rel-tol", type=float, default=0.15,
                    help="perf-mode relative tolerance (default 0.15)")
    ap.add_argument("--exact-rel-tol", type=float, default=1e-9,
                    help="campaign-mode tolerance for exact metrics")
    ap.add_argument("--stat-sigmas", type=float, default=3.0,
                    help="campaign-mode sigma multiple for stat metrics")
    ap.add_argument("--stat-rel-tol", type=float, default=0.02,
                    help="campaign-mode extra relative slack for stat metrics")
    ap.add_argument("--stat-abs-tol", type=float, default=1e-12)
    ap.add_argument("--summary-md",
                    help="append a markdown summary table to this file")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture suite")
    opts = ap.parse_args(argv)

    if opts.self_test:
        return self_test()
    if opts.golden is None or opts.new is None:
        ap.print_usage(sys.stderr)
        return 2
    if opts.perf:
        return run_perf_mode(opts)
    return run_campaign_mode(opts)


if __name__ == "__main__":
    sys.exit(main())
