#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-single --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. bfc_perfbench is built from ../src with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of stdout is the result JSON; build
output goes to stderr.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / target).resolve()
    if ROOT.resolve() not in path.parents:
        path = ROOT / ".bench_build"
    return path / "perfbench"


def source_id():
    """Commit when the checkout is a git repository, plus a hash of every
    file the benchmark builds from, so results and the exact-count ledger
    are keyed by the code that produced them."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    tree = "tree-" + h.hexdigest()[:12]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{commit}-{tree}"
    except (OSError, subprocess.SubprocessError):
        return tree


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bfc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return out / "bfc_perfbench"


def run(binary, args, echo=True):
    """Runs bfc_perfbench; returns (exit code, parsed result or None)."""
    cmd = [str(binary), *args, "--out-dir", str(build_dir() / "out"),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}", 1)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_schema(result, names, units, what):
    problems = []
    if result is None:
        return [f"{what}: no result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{what}: attempted must be an int >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{what}: failed must be an int")
    metrics = result.get("metrics", {})
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"{what}: missing {missing} extra {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{what}: malformed metric {name}")
        elif name in units and m["unit"] != units[name]:
            problems.append(f"{what}: {name} unit {m['unit']} != {units[name]}")
    return problems


def self_check(binary):
    """Tiny inputs, no timing gate: every workload in both modes must pass
    every correctness gate and match BENCHMARK.json's metric names and
    units; a seeded wrong count and a seeded wrong serve recount must each
    fail the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{w['name']} --trace {trace}"
            code, result = run(binary, ["--workload", w["name"], "--seed", "5",
                                        "--seconds", "3", "--trace", trace,
                                        "--quick"], echo=False)
            if code != 0 or not result or result.get("correct") is not True:
                problems.append(f"{what}: exit {code}, result {result and result.get('correct')}")
            problems += check_schema(result, [m["name"] for m in spec[key]],
                                     {m["name"]: m["unit"] for m in spec[key]},
                                     what)
            print(f"self-check: {what}: exit {code}", file=sys.stderr)
    for corrupt in ("count", "serve"):
        code, result = run(binary, ["--workload", "serve-single", "--seed", "5",
                                    "--seconds", "2", "--trace", "0", "--quick",
                                    "--corrupt", corrupt], echo=False)
        if code == 0 or not result or result.get("correct") is not False:
            problems.append(f"--corrupt {corrupt}: run did not fail (exit {code})")
        print(f"self-check: --corrupt {corrupt}: exit {code}", file=sys.stderr)
    for p in problems:
        print("SELF-CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps({"self_check": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-check", action="store_true",
                    help="quick run of every correctness gate and the output schema")
    a = ap.parse_args()
    if not a.self_check and None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if a.self_check:
        return self_check(binary)
    code, result = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", repr(a.seconds), "--trace", a.trace])
    if result is None:
        fail("bfc_perfbench printed no result", 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
