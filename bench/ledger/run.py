#!/usr/bin/env python3
"""The ledger benchmark: build the ledger binary, run workloads, check, report.

  python3 bench/ledger/run.py                  # every workload, untraced
  python3 bench/ledger/run.py --trace          # every workload, traced run
  python3 bench/ledger/run.py --repeat 5       # five seeds per workload
  python3 bench/ledger/run.py --smoke          # self-test: tiny tables
  python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Each metric prints as `workload metric value unit`, every output check as
`workload check NAME ok|FAIL detail`, and the run's results (with host and
build provenance) land in a JSON file under --out, which compare.py reads.
With --workload the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
of BENCHMARK.json, or with --trace 1 its per-layer metrics.

The binary is built in Release with failpoints compiled out, under
$CARGO_TARGET_DIR (default .bench_build) at the repository root; the run
refuses a build that has failpoints in it. Exit status is nonzero when the
build fails, a run fails or times out, or any output check fails.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
WORKLOADS = ["tatp-tcp", "hotspot-update", "long-readers", "durable-update"]
SCHEMES = 3           # each run measures 1V, MV/L and MV/O
RUN_TIMEOUT_S = 170   # one ledger process, all three schemes


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def local_env():
    """The environment for child processes, with TMPDIR inside the build
    directory so that the compiler's scratch files stay in the checkout."""
    tmp = build_base() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configure (once) and build the ledger; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no mvstore sources to build the ledger from")
    build_dir = build_base() / "ledger"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(LEDGER_DIR), "-B", str(build_dir)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "ledger",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=local_env()).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    cache = (build_dir / "CMakeCache.txt").read_text()
    if "MVSTORE_FAILPOINTS_ENABLED:BOOL=OFF" not in cache:
        fail("the ledger build has failpoints compiled in; refusing to run")
    return build_dir / "ledger"


def git_provenance():
    if not (ROOT / ".git").exists():
        return {"git_sha": "unknown", "git_dirty": None}

    def git(*args):
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git_sha": sha or "unknown",
            "git_dirty": None if status is None else bool(status)}


def run_ledger(binary, workload, seed, seconds, trace, smoke, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--window", repr(seconds / SCHEMES), "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--small")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=local_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        fail(f"{workload} seed {seed} exited {proc.returncode} "
             "without a result")
    if result["provenance"].get("failpoints"):
        fail("the ledger binary has failpoints compiled in; refusing its "
             "numbers")
    result.update(seed=seed, seconds=seconds,
                  wall_s=time.monotonic() - started,
                  exit_code=proc.returncode)
    return result


def print_result(r):
    w = r["workload"]
    for section in ("metrics", "detail"):
        for name, m in r[section].items():
            print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    for c in r["checks"]:
        print(f"{w} check {c['name']} {'ok' if c['ok'] else 'FAIL'} "
              f"{c['detail']}")
    print(f"{w} attempted {r['attempted']} failed {r['failed']}")


def declared(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def metric_problems(bench, result, trace):
    """Declared metrics missing, non-finite or in the wrong unit."""
    problems = []
    for m in declared(bench, trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{m['name']} is {got['value']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {got['unit']}, "
                            f"declared {m['unit']}")
    return problems


def write_results(out_dir, runs, args):
    provenance = dict(runs[0]["provenance"]) if runs else {}
    provenance.update(git_provenance())
    provenance.update(python=platform.python_version())
    stamp = time.strftime("%Y%m%d-%H%M%S")
    tag = args.workload or ("smoke" if args.smoke else "all")
    path = out_dir / f"results_{stamp}_{tag}_seed{args.seed}.json"
    path.write_text(json.dumps({"provenance": provenance, "runs": runs},
                               indent=1) + "\n")
    print(f"results: {path}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run, split across the "
                             "three schemes (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="traced run: per-layer metrics and trace files")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: small tables, 0.2 s windows, both "
                             "runs; checks every declared metric")
    parser.add_argument("--out", type=Path,
                        help="results and trace files (default: "
                             "$CARGO_TARGET_DIR/ledger-out)")
    args = parser.parse_args()

    bench = load_benchmark()
    binary = build()
    out_dir = args.out or build_base() / "ledger-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = args.trace == "1"
    seconds = args.seconds or float(bench["run_seconds"])
    if args.smoke:
        seconds = 0.2 * SCHEMES
    workloads = [args.workload] if args.workload else WORKLOADS
    passes = [False, True] if args.smoke else [trace]

    runs = []
    problems = []
    for workload in workloads:
        for i in range(args.repeat):
            for traced in passes:
                r = run_ledger(binary, workload, args.seed + i, seconds,
                               traced, args.smoke, out_dir)
                print_result(r)
                runs.append(r)
                problems += [f"{workload}: check {c['name']} failed"
                             for c in r["checks"] if not c["ok"]]
                problems += [f"{workload}: {p}"
                             for p in metric_problems(bench, r, traced)]
                if r["exit_code"] != 0 and not problems:
                    problems.append(f"{workload}: ledger exited "
                                    f"{r['exit_code']}")
    write_results(out_dir, runs, args)
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    if args.workload and not args.smoke:
        names = [m["name"] for m in declared(bench, trace)]
        last = runs[-1]
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: last["metrics"][n] for n in names
                        if n in last["metrics"]},
        }))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
