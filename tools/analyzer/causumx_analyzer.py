#!/usr/bin/env python3
"""causumx-analyzer — whole-program architectural checks for causumx.

Four check families over the project source (see checks.ALL_RULES):
layering (module DAG), lock-order/lock-blocking (global lock acquisition
graph), hot-path-{alloc,throw,virtual} (kernel dispatch closure), and
exception-boundary (server/handler roots). Run from anywhere:

    python3 tools/analyzer/causumx_analyzer.py              # scan src/
    python3 tools/analyzer/causumx_analyzer.py --self-test  # fixtures
    python3 tools/analyzer/causumx_analyzer.py --list-rules
    python3 tools/analyzer/causumx_analyzer.py --check lock-order src/

Findings are suppressed by an inline hatch with a mandatory reason:

    // causumx-analyzer: allow(lock-blocking) sharded build intentionally
    // fans out under the slot lock; readers block on the same slot anyway.

or by the checked-in baseline (tools/analyzer/baseline.json, normally
empty — violations get fixed, not baselined). Exit codes: 0 clean,
1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import AnalyzerConfig, Finding, build_project  # noqa: E402
from cpp_frontend import walk_cpp  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

# The normative module DAG — mirrored in docs/ARCHITECTURE.md. A module
# may always include itself; everything listed is what it may reach.
DEFAULT_CONFIG = {
    "layers": {
        "util": [],
        "storage": ["util"],
        "lp": ["util"],
        "dataset": ["storage", "util"],
        "engine": ["storage", "dataset", "util"],
        "causal": ["storage", "engine", "dataset", "util"],
        "mining": ["causal", "engine", "dataset", "util"],
        "core": ["mining", "causal", "engine", "lp", "dataset", "util"],
        "datagen": ["core", "causal", "dataset", "util"],
        "baselines": ["core", "mining", "causal", "engine", "lp",
                      "dataset", "util"],
        "service": ["core", "mining", "causal", "engine", "lp",
                    "storage", "dataset", "util"],
        "stream": ["service", "core", "mining", "causal", "engine",
                   "storage", "dataset", "util"],
        "server": ["stream", "service", "util"],
    },
    "include_roots": ["src"],
    "dispatch_functions": ["GetScalarOps", "GetAvx2Ops"],
    "hot_path_roots": ["Pattern::EvaluateRange"],
    "exception_roots": ["HttpServer::AcceptLoop",
                        "HttpServer::HandleConnection"],
    "indirect_throwing_calls": ["handler_"],
}

FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "analyzer", "fixtures")
DEFAULT_BASELINE = os.path.join(
    REPO_ROOT, "tools", "analyzer", "baseline.json")


def collect_entries(paths, root):
    entries = []
    for p in paths:
        abs_p = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(abs_p):
            for f in walk_cpp(abs_p):
                entries.append((f, os.path.relpath(f, root)))
        elif os.path.isfile(abs_p):
            entries.append((abs_p, os.path.relpath(abs_p, root)))
        else:
            print(f"causumx-analyzer: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return entries


def load_baseline(path):
    if not os.path.exists(path):
        return set()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return set(data.get("findings", []))


def run_scan(args) -> int:
    cfg_dict = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg_dict.update(json.load(fh))
    cfg = AnalyzerConfig.from_dict(cfg_dict)
    root = args.root or REPO_ROOT
    paths = args.paths or ["src"]
    entries = collect_entries(paths, root)
    if not entries:
        print("causumx-analyzer: nothing to scan", file=sys.stderr)
        return 2

    project = build_project(entries)
    which = set(args.check) if args.check else None
    findings = checks.run_checks(project, cfg, which)

    baseline = load_baseline(args.baseline)
    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump({"findings": sorted(f.key() for f in findings)},
                      fh, indent=2)
            fh.write("\n")
        print(f"baseline written: {len(findings)} finding(s) -> "
              f"{args.baseline}")
        return 0

    fresh = [f for f in findings if f.key() not in baseline]
    grandfathered = len(findings) - len(fresh)
    for f in fresh:
        print(f.render())
    scanned = len(project.files)
    status = "clean" if not fresh else f"{len(fresh)} finding(s)"
    extra = f", {grandfathered} baselined" if grandfathered else ""
    print(f"causumx-analyzer: {scanned} file(s), "
          f"{status}{extra}")
    return 1 if fresh else 0


def run_self_test(args) -> int:
    if not os.path.isdir(FIXTURE_DIR):
        print(f"causumx-analyzer: fixture dir missing: {FIXTURE_DIR}",
              file=sys.stderr)
        return 2
    failures = 0
    total = 0
    for name in sorted(os.listdir(FIXTURE_DIR)):
        fdir = os.path.join(FIXTURE_DIR, name)
        if not os.path.isdir(fdir):
            continue
        total += 1
        cfg_path = os.path.join(fdir, "config.json")
        exp_path = os.path.join(fdir, "expected.json")
        cfg_dict = {}
        if os.path.exists(cfg_path):
            with open(cfg_path, "r", encoding="utf-8") as fh:
                cfg_dict = json.load(fh)
        cfg = AnalyzerConfig.from_dict(cfg_dict)
        with open(exp_path, "r", encoding="utf-8") as fh:
            expected = json.load(fh)
        entries = [(f, os.path.relpath(f, fdir))
                   for f in walk_cpp(fdir)]
        project = build_project(entries)
        findings = checks.run_checks(project, cfg)
        got = {(f.rule, f.file, f.line) for f in findings}
        want = {(e["rule"], e["file"], e["line"]) for e in expected}
        if got == want:
            print(f"  PASS {name} ({len(want)} expected finding(s))")
            continue
        failures += 1
        print(f"  FAIL {name}")
        for item in sorted(want - got):
            print(f"    missing:    {item[0]} at {item[1]}:{item[2]}")
        for item in sorted(got - want):
            match = next(f for f in findings
                         if (f.rule, f.file, f.line) == item)
            print(f"    unexpected: {match.render()}")
    print(f"causumx-analyzer self-test: {total - failures}/{total} "
          f"fixture(s) passed")
    return 1 if failures or total == 0 else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="causumx-analyzer",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan (default: src/)")
    ap.add_argument("--check", action="append", metavar="RULE",
                    help="run only this rule (repeatable)")
    ap.add_argument("--config", help="JSON config overriding defaults")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="baseline file of grandfathered finding keys")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from current findings")
    ap.add_argument("--root", help="repo root override (for tests)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite under tests/analyzer/")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in checks.ALL_RULES:
            print(rule)
        return 0
    if args.check:
        bad = set(args.check) - set(checks.ALL_RULES) - {"hot-path"}
        if bad:
            print(f"causumx-analyzer: unknown rule(s): "
                  f"{', '.join(sorted(bad))} (see --list-rules)",
                  file=sys.stderr)
            return 2
    if args.self_test:
        return run_self_test(args)
    return run_scan(args)


if __name__ == "__main__":
    sys.exit(main())
