#!/usr/bin/env python3
"""rnoc domain static analyzer: proves the repo's core guarantees at the
compile-graph level instead of trusting runtime tests to catch drift.

Rule families (see README "Static analysis" and tools/analyze/baseline.json):

  determinism       From every function reachable from the campaign engine,
                    the simulator step/run entry points and the fault
                    injector, ban wall-clock/CPU-time reads, libc
                    randomness, environment/locale reads (transitively,
                    through the whole call graph) and iteration over
                    unordered containers. Campaign results, traces and
                    checkpoints must be pure functions of (spec, seed).

  hotpath-alloc     From Router::step_*, the VC/switch allocators, the
                    crossbar and the link push paths, ban any reachable
                    allocation (operator new, malloc family). The router
                    hot path is allocation-free by design (PR 1); this
                    keeps it that way by construction. Exception-throw
                    paths are pruned: aborting the simulation may
                    allocate, granting a request may not.

  zero-cost-off     Translation units compiled without RNOC_TRACE /
                    RNOC_INVARIANTS must not reference any rnoc::obs:: or
                    NocChecker symbol (checked on the actual object files
                    with nm). "Zero cost when off" is a binary property,
                    so it is proven on binaries.

  exhaustive-switch Switches over domain enums (StallCause, SimCore,
                    SiteType, ...: every `enum class` declared in src/
                    headers) must enumerate every variant and must not
                    carry a `default:` — adding an enum member must fail
                    compilation (-Werror=switch) everywhere it matters,
                    not be silently swallowed.

  naked-new         (folded from tools/lint.py, token-level) No `new`
                    expressions anywhere; ownership goes through
                    containers and smart pointers.

  raw-rng           (folded from tools/lint.py, token-level) rand()/
                    srand()/std::random_device only under src/common/.

Findings carry stable fingerprints, diffed against a committed
suppression baseline (tools/analyze/baseline.json): a clean tree passes,
new violations fail, and stale suppressions are themselves errors.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callgraph  # noqa: E402
import cpplex  # noqa: E402

HEADER_EXT = (".hpp", ".h")
SOURCE_EXT = (".cpp", ".cc") + HEADER_EXT
TOKEN_DIRS = ("src", "tests", "tools", "examples")

# --- determinism rule configuration -----------------------------------
# Entry points: everything results/replay-determinism depends on.
DET_ROOTS = [
    r"\brnoc::campaign::[\w:~<>]+\(",
    # The campaign service's point-execute path: a cached point and a
    # freshly computed point must be indistinguishable, so the scheduler/
    # cache layers may not introduce wall-clock or rng sinks into it.
    r"\brnoc::serve::CampaignService::execute_point\(",
    r"\brnoc::serve::ResultCache::[\w:~]+\(",
    r"\brnoc::noc::Simulator::[\w:~]+\(",
    r"\brnoc::noc::SweepRunner::[\w:~]+\(",
    r"\brnoc::noc::Mesh::step[\w]*\(",
    r"\brnoc::noc::Router::step_[\w]*\(",
    r"\brnoc::fault::[\w:~<>]+\(",
]
# Banned sinks: wall clock, CPU time, libc randomness, environment and
# locale. Matched against both the raw symbol and the demangled label.
DET_BANNED = [
    r"^(time|clock|clock_gettime|clock_getres|gettimeofday|timespec_get"
    r"|ftime|localtime|localtime_r|gmtime|gmtime_r|mktime|strftime"
    r"|rand|srand|random|srandom|rand_r|lrand48|mrand48|drand48"
    r"|getenv|secure_getenv|setenv|setlocale|nl_langinfo|uselocale)$",
    r"std::chrono::[\w:]*(system_clock|steady_clock|high_resolution_clock)"
    r"[\w:]*::now",
    r"std::random_device",
]
# Pruned subtrees (documented exemptions — not baseline suppressions,
# because they are structural, not per-site):
#  * ThreadPool: worker scheduling order never reaches result values;
#    shard-count/interleaving invariance is separately test-enforced
#    (test_campaign_engine), and the pool's sync primitives are the only
#    clock-adjacent code (condition_variable waits).
#  * I/O error paths (std::__throw_*, exception constructors): aborting
#    is allowed to read whatever it wants.
#  * serve wire/socket/server/scheduler plumbing: connection handling,
#    send/recv timeouts and worker condition_variable scheduling are
#    clock-adjacent by design and never reach point values — the execute
#    path (CampaignService::execute_point -> ResultCache ->
#    campaign::run_point_unit) is rooted separately above, so a sink
#    leaking INTO point execution is still flagged.
DET_PRUNE = [
    r"\brnoc::ThreadPool::",
    r"\brnoc::serve::(Server|PointScheduler|Fd|LineReader)::",
    r"\brnoc::serve::(send_line|listen_unix|accept_unix|connect_unix)\(",
    # The telemetry hub is, by design, the one wall-clock site in the
    # serve layer: every span/event timestamp is steady_clock read inside
    # its TU. It only ever *observes* the request lifecycle — nothing in
    # it feeds back into point values, and the serve smoke harness
    # enforces that client results stay byte-identical to local execution
    # with the hub attached. Reaching it from a determinism root means
    # "this code reports telemetry", not "this code depends on time".
    r"\brnoc::serve::TelemetryHub::",
    r"std::__throw_",
    r"__cxa_",
]

# --- hotpath-alloc rule configuration ---------------------------------
ALLOC_ROOTS = [
    r"\brnoc::noc::Router::step_[\w]*\(",
    r"\brnoc::noc::VcAllocator::step[\w]*\(",
    r"\brnoc::noc::SwitchAllocator::step[\w]*\(",
    r"\brnoc::noc::Crossbar::(can_traverse|traverse)\(",
    r"\brnoc::noc::Link::push[\w]*\(",
    r"\brnoc::noc::EccLink::push[\w]*\(",
]
# Allocating operator new (any overload without a placement void*
# parameter) and the malloc family.
ALLOC_BANNED = [
    r"operator new(\[\])?\((?![^)]*void\*)",
    r"^(malloc|calloc|realloc|reallocarray|aligned_alloc|posix_memalign"
    r"|strdup|strndup)$",
]
# Exception-throw machinery is the approved cold path: a failed
# invariant/require aborts the run, and the abort may allocate. Granting
# a request may not, so everything else reaching new/malloc is flagged.
ALLOC_PRUNE = [
    r"std::__throw_",
    r"__cxa_",
    r"std::(runtime_error|logic_error|invalid_argument|out_of_range"
    r"|length_error|domain_error|range_error|overflow_error"
    r"|underflow_error|bad_alloc|bad_function_call)::",
    r"std::terminate",
]

# --- zero-cost-off rule configuration ---------------------------------
ZC_GUARDS = {
    "RNOC_TRACE": {
        "symbol": r"\brnoc::obs::",
        "exempt_dirs": (os.path.join("src", "obs"),),
        "exempt_files": (),
    },
    "RNOC_INVARIANTS": {
        "symbol": r"\bNocChecker\b|\brnoc::noc::invariants?\b",
        "exempt_dirs": (),
        "exempt_files": (os.path.join("src", "noc", "invariants.cpp"),),
    },
}

RULES = ("determinism", "hotpath-alloc", "zero-cost-off",
         "exhaustive-switch", "naked-new", "raw-rng")


def fingerprint(*parts):
    h = hashlib.sha1("|".join(parts).encode()).hexdigest()
    return h[:12]


class Finding:
    def __init__(self, rule, file, line, message, key_parts, path=None):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.fingerprint = fingerprint(rule, *key_parts)
        self.path = path or []

    def as_json(self):
        d = {"rule": self.rule, "file": self.file, "line": self.line,
             "message": self.message, "fingerprint": self.fingerprint}
        if self.path:
            d["path"] = self.path
        return d

    def render(self):
        loc = f"{self.file}:{self.line}" if self.line else self.file
        text = f"{loc}: [{self.rule}] {self.message} " \
               f"(fingerprint {self.fingerprint})"
        if self.path:
            text += "\n    call path: " + "\n            -> ".join(self.path)
        return text


def rel(root, path):
    path = os.path.normpath(path)
    root = os.path.abspath(root)
    if os.path.isabs(path) and path.startswith(root + os.sep):
        return os.path.relpath(path, root)
    return path


def site_file_line(site, root):
    if not site:
        return "", 0
    parts = site.rsplit(":", 2)
    if len(parts) >= 2 and parts[1].isdigit():
        return rel(root, parts[0]), int(parts[1])
    return rel(root, site), 0


# --------------------------------------------------------------------------
# Call-graph rules (determinism reachability, hot-path allocation)
# --------------------------------------------------------------------------

def short_label(label, limit=110):
    label = re.sub(r"\s+", " ", label).strip()
    return label if len(label) <= limit else label[:limit - 3] + "..."


def run_graph_rule(rule, graph, root_pats, banned_pats, prune_pats, repo,
                   findings):
    roots = graph.match_nodes(root_pats)
    hits = graph.reach(roots, banned_pats, prune_pats)
    seen = {}
    repo_abs = os.path.abspath(repo) + os.sep
    for root, path in hits:
        # Anchor the finding at the last call edge whose call site is in
        # repo source: that is the line where our code hands control to
        # the offending subtree, regardless of how deep inside system
        # headers the banned symbol finally appears.
        anchor_idx = 0
        for i, (_name, site) in enumerate(path):
            f, _l = site_file_line(site, repo)
            abs_f = os.path.join(repo_abs, f) if f and not os.path.isabs(f) \
                else f
            if f and abs_f.startswith(repo_abs):
                anchor_idx = i
        file, line = site_file_line(path[anchor_idx][1], repo)
        caller = path[max(anchor_idx - 1, 0)][0]
        sink = path[-1][0]
        # One finding per (anchor caller, sink): the same offending call
        # reached from many entry points is one violation, not many.
        key = (caller, sink)
        root_l = short_label(graph.label(root), 80)
        if key in seen:
            seen[key].append(root_l)
            continue
        seen[key] = [root_l]
        what = ("nondeterministic call" if rule == "determinism"
                else "allocation")
        findings.append(Finding(
            rule, file, line,
            f"{what} in `{short_label(graph.label(caller), 80)}` reaches "
            f"`{short_label(graph.label(sink), 80)}` "
            f"(entry point: {root_l})",
            key_parts=[caller, sink],
            path=[short_label(graph.label(p)) for p, _s in path]))


# --------------------------------------------------------------------------
# zero-cost-off: nm over the objects of unguarded TUs
# --------------------------------------------------------------------------

def entry_object_path(entry):
    argv = callgraph.entry_argv(entry)
    for i, a in enumerate(argv):
        if a == "-o" and i + 1 < len(argv):
            return os.path.normpath(
                os.path.join(entry["directory"], argv[i + 1]))
    return None


def object_symbols(entry):
    """Returns (demangled symbol list, error). Prefers the object the
    build already produced; recompiles to a temp object when missing."""
    obj = entry_object_path(entry)
    src = callgraph.entry_source(entry)
    tmp = None
    try:
        if not obj or not os.path.exists(obj) or (
                os.path.exists(src) and
                os.stat(obj).st_mtime < os.stat(src).st_mtime):
            tmp = tempfile.NamedTemporaryFile(suffix=".o", delete=False)
            tmp.close()
            argv = callgraph.entry_argv(entry)
            cmd, skip = [argv[0]], False
            for a in argv[1:]:
                if skip:
                    skip = False
                    continue
                if a == "-o":
                    skip = True
                    continue
                if a == "-Werror" or a.startswith("-M"):
                    continue
                cmd.append(a)
            cmd += ["-w", "-o", tmp.name]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=entry["directory"], timeout=600)
            if proc.returncode != 0:
                return None, (proc.stderr.strip().splitlines() or
                              ["compile failed"])[-1]
            obj = tmp.name
        nm = subprocess.run(["nm", "--format=posix", "-C", obj],
                            capture_output=True, text=True, timeout=120)
        if nm.returncode != 0:
            return None, nm.stderr.strip()
        syms = []
        for line in nm.stdout.splitlines():
            # posix format: "<name> <type> [value [size]]"; demangled
            # names contain spaces, but type/value/size never contain
            # '(' — split from the right.
            m = re.match(r"^(.*) ([A-Za-z]) [0-9a-f ]*$", line)
            if m:
                syms.append((m.group(1).strip(), m.group(2)))
        return syms, None
    finally:
        if tmp is not None:
            os.unlink(tmp.name)


def run_zero_cost_rule(db, repo, findings, notes):
    plain = callgraph.select_tus(
        db, repo, "src",
        reject_defines=frozenset(ZC_GUARDS.keys()))
    checked_tus = 0
    for src, entry in plain.items():
        defs = callgraph.entry_defines(entry)
        relsrc = rel(repo, src)
        active = {g: cfg for g, cfg in ZC_GUARDS.items()
                  if g not in defs
                  and not any(relsrc.startswith(d + os.sep) or
                              os.path.dirname(relsrc) == d
                              for d in cfg["exempt_dirs"])
                  and relsrc not in cfg["exempt_files"]}
        if not active:
            continue
        syms, err = object_symbols(entry)
        checked_tus += 1
        if syms is None:
            findings.append(Finding(
                "zero-cost-off", relsrc, 0,
                f"could not inspect object symbols: {err}",
                key_parts=[relsrc, "inspect-error"]))
            continue
        for guard, cfg in active.items():
            pat = re.compile(cfg["symbol"])
            bad = sorted({name for name, _t in syms if pat.search(name)})
            for name in bad:
                findings.append(Finding(
                    "zero-cost-off", relsrc, 0,
                    f"TU compiled without {guard} references "
                    f"`{short_label(name)}` — the layer must cost nothing "
                    "when off",
                    key_parts=[relsrc, guard, name]))
    notes.append(f"zero-cost-off: inspected {checked_tus} unguarded TU(s)")


# --------------------------------------------------------------------------
# exhaustive-switch + token rules (shared lexing pass)
# --------------------------------------------------------------------------

#: Directories skipped by every source-level scan. analyze_fixtures holds
#: deliberate rule violations for the self-test; scanning them in the real
#: tree would make the fixtures themselves findings.
EXCLUDE_DIRS = {"analyze_fixtures", "build"}


def iter_source_files(repo, dirs):
    for d in dirs:
        base = os.path.join(repo, d)
        for dirpath, dn, names in os.walk(base):
            dn[:] = sorted(x for x in dn if x not in EXCLUDE_DIRS)
            for name in sorted(names):
                if name.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, name)


def collect_domain_enums(repo):
    """Every `enum class` declared in a src/ header is a domain enum."""
    enums = {}
    for path in iter_source_files(repo, ("src",)):
        if not path.endswith(HEADER_EXT):
            continue
        with open(path, encoding="utf-8") as f:
            toks = cpplex.tokenize(f.read())
        for name, members in cpplex.find_enum_classes(toks).items():
            if members:
                enums.setdefault(name, members)
    return enums


def run_switch_rule(repo, enums, findings):
    for path in iter_source_files(repo, ("src",)):
        relpath = rel(repo, path)
        with open(path, encoding="utf-8") as f:
            toks = cpplex.tokenize(f.read())
        for sw in cpplex.find_switches(toks):
            votes = {}
            for _line, label in sw.cases:
                ref = cpplex.case_label_enum(label)
                if ref and ref[0] in enums and ref[1] in enums[ref[0]]:
                    votes.setdefault(ref[0], set()).add(ref[1])
            if not votes:
                continue  # not a domain-enum switch (or unattributable)
            enum_name = max(votes, key=lambda k: len(votes[k]))
            covered = votes[enum_name]
            missing = [m for m in enums[enum_name] if m not in covered]
            if missing:
                findings.append(Finding(
                    "exhaustive-switch", relpath, sw.line,
                    f"switch over {enum_name} misses "
                    f"{{{', '.join(missing)}}} — enumerate every variant "
                    "so new members fail compilation",
                    key_parts=[relpath, enum_name,
                               "missing:" + ",".join(missing)]))
            if sw.has_default:
                findings.append(Finding(
                    "exhaustive-switch", relpath, sw.default_line,
                    f"switch over {enum_name} has a `default:` that would "
                    "silently swallow new variants; enumerate instead",
                    key_parts=[relpath, enum_name, "default"]))


def run_token_rules(repo, findings):
    common_prefix = os.path.join("src", "common") + os.sep
    det_prefixes = tuple(os.path.join("src", d) + os.sep
                         for d in ("campaign", "obs", "noc", "fault",
                                   "serve"))
    for path in iter_source_files(repo, TOKEN_DIRS):
        relpath = rel(repo, path)
        with open(path, encoding="utf-8") as f:
            toks = cpplex.tokenize(f.read())
        for idx, t in enumerate(cpplex.find_new_expressions(toks)):
            findings.append(Finding(
                "naked-new", relpath, t.line,
                "new expression; use containers or std::make_unique/"
                "make_shared",
                key_parts=[relpath, "new", str(idx)]))
        if not relpath.startswith(common_prefix):
            for idx, t in enumerate(cpplex.find_raw_rng(toks)):
                findings.append(Finding(
                    "raw-rng", relpath, t.line,
                    f"raw libc/std randomness (`{t.text}`); use common/rng "
                    "(seeded, splittable) instead",
                    key_parts=[relpath, t.text, str(idx)]))
        if relpath.startswith(det_prefixes):
            for idx, (t, why) in enumerate(
                    cpplex.find_unordered_iteration(toks)):
                findings.append(Finding(
                    "determinism", relpath, t.line,
                    f"{why}: iteration order is implementation-defined and "
                    "leaks into seed-deterministic results",
                    key_parts=[relpath, "unordered-iter", str(idx)]))


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

def load_baseline(path):
    if not path or not os.path.exists(path):
        return [], []
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    errors = []
    sup = data.get("suppressions", [])
    for s in sup:
        if not s.get("fingerprint"):
            errors.append("baseline entry without fingerprint")
        if not s.get("justification", "").strip():
            errors.append(f"suppression {s.get('fingerprint', '?')} has no "
                          "written justification; every baseline entry "
                          "must say why it is acceptable")
    return sup, errors


def apply_baseline(findings, suppressions, active_rules):
    by_fp = {s["fingerprint"]: s for s in suppressions}
    kept, suppressed = [], []
    used = set()
    for f in findings:
        if f.fingerprint in by_fp:
            suppressed.append(f)
            used.add(f.fingerprint)
        else:
            kept.append(f)
    # A suppression is only stale when the rule it belongs to actually ran
    # this invocation; a --rules subset must not invalidate the rest of the
    # baseline. Entries without a rule tag are judged on full runs only.
    full = set(RULES) <= set(active_rules)
    stale = [s for s in suppressions
             if s["fingerprint"] not in used
             and (full or s.get("rule", "") in active_rules)]
    return kept, suppressed, stale


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def build_graph(args, db, repo):
    entries = list(callgraph.select_tus(
        db, repo, "src",
        reject_defines=frozenset(ZC_GUARDS.keys())).values())
    backend = args.backend
    if backend == "auto":
        backend = "gcc"
    if backend == "libclang":
        if not callgraph.libclang_available():
            sys.exit("rnoc_analyze: --backend libclang requested but the "
                     "clang.cindex Python bindings are not installed "
                     "(pip install libclang); the default gcc backend "
                     "needs only the build compiler")
        return callgraph.build_graph_libclang(entries, args.jobs)
    cache = None if args.no_cache else args.cache_dir
    return callgraph.build_graph_gcc(entries, args.jobs, cache)


def analyze(args, repo):
    findings, notes = [], []
    rules = set(args.rules.split(",")) if args.rules else set(RULES)
    unknown = rules - set(RULES)
    if unknown:
        sys.exit(f"rnoc_analyze: unknown rule(s): {', '.join(unknown)}")

    need_graph = rules & {"determinism", "hotpath-alloc"}
    need_db = need_graph or "zero-cost-off" in rules
    db = None
    if need_db:
        if not args.compile_db or not os.path.exists(args.compile_db):
            sys.exit("rnoc_analyze: --compile-db is required (configure "
                     "with the `analyze` preset or any CMake build; "
                     "CMAKE_EXPORT_COMPILE_COMMANDS is on by default)")
        db = callgraph.load_compile_db(args.compile_db)

    if need_graph:
        graph, errors = build_graph(args, db, repo)
        for src, err in errors:
            findings.append(Finding(
                "determinism", rel(repo, src), 0,
                f"call-graph extraction failed: {err}",
                key_parts=[rel(repo, src), "extract-error"]))
        if "determinism" in rules:
            run_graph_rule("determinism", graph,
                           [re.compile(p) for p in DET_ROOTS],
                           [re.compile(p) for p in DET_BANNED],
                           [re.compile(p) for p in DET_PRUNE],
                           repo, findings)
        if "hotpath-alloc" in rules:
            run_graph_rule("hotpath-alloc", graph,
                           [re.compile(p) for p in ALLOC_ROOTS],
                           [re.compile(p) for p in ALLOC_BANNED],
                           [re.compile(p) for p in ALLOC_PRUNE],
                           repo, findings)
        notes.append(f"call graph: {len(graph.nodes)} nodes, "
                     f"{sum(len(v) for v in graph.edges.values())} edges")

    if "zero-cost-off" in rules:
        run_zero_cost_rule(db, repo, findings, notes)

    if "exhaustive-switch" in rules:
        enums = collect_domain_enums(repo)
        notes.append(f"exhaustive-switch: {len(enums)} domain enums")
        run_switch_rule(repo, enums, findings)

    if rules & {"naked-new", "raw-rng", "determinism"}:
        token_findings = []
        run_token_rules(repo, token_findings)
        findings += [f for f in token_findings if f.rule in rules]

    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.fingerprint))
    return findings, notes, rules


def write_summary_md(path, findings, suppressed, stale, notes):
    lines = ["## rnoc static analysis", "",
             "| rule | violations | suppressed |", "| --- | --- | --- |"]
    for rule in RULES:
        n = sum(1 for f in findings if f.rule == rule)
        s = sum(1 for f in suppressed if f.rule == rule)
        lines.append(f"| {rule} | {n} | {s} |")
    lines.append(f"| **total** | **{len(findings)}** | "
                 f"**{len(suppressed)}** |")
    if stale:
        lines += ["", f"**{len(stale)} stale suppression(s)** — remove "
                      "them from tools/analyze/baseline.json:"]
        lines += [f"- `{s['fingerprint']}` ({s.get('rule', '?')}) "
                  f"{s.get('file', '')}" for s in stale]
    if notes:
        lines += [""] + [f"- {n}" for n in notes]
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (default: two levels up from this script)")
    ap.add_argument("--compile-db",
                    help="path to compile_commands.json (default: "
                         "<root>/build/compile_commands.json)")
    ap.add_argument("--baseline",
                    help="suppression baseline (default: baseline.json "
                         "next to this script); pass '' to disable")
    ap.add_argument("--rules", help="comma-separated subset of: "
                                    + ",".join(RULES))
    ap.add_argument("--backend", choices=("auto", "gcc", "libclang"),
                    default="auto")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 4)
    ap.add_argument("--cache-dir",
                    help="per-TU call-graph cache (default: "
                         "rnoc_analyze_cache next to the compile db)")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--json", help="write findings as JSON to this path")
    ap.add_argument("--summary-md",
                    help="append a per-rule markdown summary (CI step "
                         "summary format, like compare_results.py)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite (tests/analyze_fixtures) "
                         "and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        import selftest
        return selftest.run(os.path.abspath(args.root))

    repo = os.path.abspath(args.root)
    if args.compile_db is None:
        args.compile_db = os.path.join(repo, "build",
                                       "compile_commands.json")
    if args.cache_dir is None and args.compile_db:
        args.cache_dir = os.path.join(
            os.path.dirname(os.path.abspath(args.compile_db)),
            "rnoc_analyze_cache")
    if args.baseline is None:
        args.baseline = os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "baseline.json")

    findings, notes, active_rules = analyze(args, repo)
    suppressions, baseline_errors = load_baseline(args.baseline)
    findings, suppressed, stale = apply_baseline(findings, suppressions,
                                                 active_rules)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({
                "schema": 1,
                "rules": {r: sum(1 for x in findings if x.rule == r)
                          for r in RULES},
                "findings": [x.as_json() for x in findings],
                "suppressed": [x.as_json() for x in suppressed],
                "stale_suppressions": stale,
                "baseline_errors": baseline_errors,
                "notes": notes,
            }, f, indent=1)
            f.write("\n")
    if args.summary_md:
        write_summary_md(args.summary_md, findings, suppressed, stale,
                         notes)

    for f in findings:
        print(f.render())
    for err in baseline_errors:
        print(f"baseline: {err}", file=sys.stderr)
    for s in stale:
        print(f"baseline: stale suppression {s['fingerprint']} "
              f"({s.get('rule', '?')} {s.get('file', '')}) — the finding "
              "no longer exists; remove it", file=sys.stderr)

    ok = not findings and not stale and not baseline_errors
    status = "clean" if ok else \
        f"{len(findings)} finding(s), {len(stale)} stale suppression(s)"
    print(f"rnoc_analyze: {status}"
          + (f" [{len(suppressed)} suppressed by baseline]"
             if suppressed else ""),
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
