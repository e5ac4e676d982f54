"""cycperm benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed S [--seconds T]

Runs passes of workload W, each in a fresh interpreter (worker.py), until
the next pass would end after T seconds; there is always at least one pass.
Eight set-up probes come first.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs one untraced pass and then traced passes,
and prints the per-layer metrics and the tracing overhead.  The last line
of stdout is a JSON object: correct, attempted, failed, metrics.  Details
of the run (every op's outcome, machine metadata) go to perfbench/out/.

``--workload all`` runs every workload untraced and traced for the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
RUN_LIMIT_S = 170.0  # a pass still running this long after the start fails

UNITS = {"op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
         "evidence_tier": "tier"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class PassFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", CYCPERM_WORKERS="1")
    return env


def spawn(args: list, timeout: float) -> dict:
    """Run worker.py once and return its result."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker {args} timed out") from exc
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1][len("PERFBENCH "):])


def hd_quantile(values: list, q: float, cells: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution, integrated by the midpoint rule.
    On op times from a noisy host it varies far less from pass to pass
    than the single order statistic the plain sample quantile picks.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    m = cells * n
    dens = [math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ((j + 0.5) / m for j in range(m))]
    total = math.fsum(dens)
    return math.fsum(math.fsum(dens[i * cells:(i + 1) * cells]) * x[i]
                     for i in range(n)) / total


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    setups = [spawn(["--setup-only"], remaining())["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = {0: [], 1: []}
    durations = {0: [], 1: []}

    def one(flag: int) -> None:
        index = len(passes[0]) + len(passes[1])
        t0 = time.monotonic()
        passes[flag].append(spawn(
            ["--workload", workload, "--seed", str(seed), "--pass", str(index),
             "--trace", str(flag)], remaining()))
        durations[flag].append(time.monotonic() - t0)

    one(0)
    flag = 1 if trace else 0
    if trace:
        one(1)
    while time.monotonic() + statistics.median(durations[flag]) <= deadline:
        one(flag)
    return {"setup_probes": setups, "untraced": passes[0], "traced": passes[1]}


def end_to_end(run: dict) -> dict:
    untraced = run["untraced"]
    ops = [op for p in untraced for op in p["ops"]]
    tiers = [op["tier"] for op in ops if op["true_claim"] and op["tier"]]
    return {
        "setup_s": statistics.median(
            run["setup_probes"] + [p["setup_s"] for p in untraced]),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "op_ms_p50": statistics.median(
            hd_quantile(p["op_ms"], 0.5) for p in untraced),
        "op_ms_p90": statistics.median(
            hd_quantile(p["op_ms"], 0.9) for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "ok_frac": sum(op["right"] for op in ops) / len(ops),
        "evidence_tier": statistics.fmean(tiers),
    }


def per_layer(run: dict) -> dict:
    traced = run["traced"]
    names = traced[0]["layers"]
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_raw_s"] for p in traced)
        / statistics.median(p["wall_raw_s"] for p in run["untraced"]) - 1.0)
    return out


def verdict_info(run: dict) -> dict:
    """Verdict counts of one pass (they are the same in every pass)."""
    ops = run["untraced"][0]["ops"]
    true = [op for op in ops if op["true_claim"]]
    probes = [op for op in ops if not op["true_claim"]]
    group = [op for op in true if op["tier"]]
    return {
        "ops_per_pass": len(ops),
        "true_claims": len(true),
        "probes": len(probes),
        "failed_frac": sum(not op["right"] for op in true) / max(len(true), 1),
        "mutants_missed": sum(op["accepted"] is True for op in probes),
        "exact_frac": (sum(op["tier"] == 3 for op in group) / len(group)
                       if group else None),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def metadata(run: dict) -> dict:
    passes = run["untraced"] + run["traced"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy", "unknown"),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = run_passes(workload, seed, seconds, trace)
    passes = run["untraced"] + run["traced"]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(bool(op["problems"]) for op in ops)
    metrics = per_layer(run) if trace else end_to_end(run)
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics,
        "passes": {"untraced": len(run["untraced"]),
                   "traced": len(run["traced"])},
        "verdicts": verdict_info(run),
        "meta": metadata(run),
        "problems": sorted({f"{op['name']}: {pr}" for op in ops
                            for pr in op["problems"]}),
        "run": run,
    }
    if trace:
        doc["spans_per_pass"] = [p["spans"] for p in run["traced"]]
        doc["untraced_targets"] = run["traced"][0]["untraced_targets"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=1))
    doc["path"] = str(path.relative_to(ROOT))
    return doc


def print_report(doc: dict) -> None:
    v = doc["verdicts"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace "
          f"{doc['trace']}  passes {doc['passes']}  ops/pass "
          f"{v['ops_per_pass']} ({v['true_claims']} true claims, "
          f"{v['probes']} under-claim probes)")
    for name, value in doc["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit_of(name)}")
    print(f"  failed_frac {v['failed_frac']:.4g}  mutants_missed "
          f"{v['mutants_missed']}  exact_frac {v['exact_frac']}")
    print(f"  meta {json.dumps(doc['meta'])}")
    for problem in doc["problems"]:
        print(f"  FAILED {problem}")
    print(f"  details in {doc['path']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cycperm benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cycperm" / "__init__.py").is_file():
        print(f"error: no cycperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            doc = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
            print_report(doc)
            summary = {k: doc[k] for k in ("correct", "attempted", "failed")}
            summary["metrics"] = {
                k: {"value": v, "unit": unit_of(k)}
                for k, v in doc["metrics"].items()}
        else:
            docs = [run_workload(w, args.seed, args.seconds, trace)
                    for w in WORKLOADS for trace in (False, True)]
            for doc in docs:
                print_report(doc)
            summary = {
                "correct": all(d["correct"] for d in docs),
                "attempted": sum(d["attempted"] for d in docs),
                "failed": sum(d["failed"] for d in docs),
                "metrics": {f"{d['workload']}.{k}": v for d in docs
                            for k, v in d["metrics"].items()},
            }
            (OUT / f"all-seed{args.seed}.json").write_text(
                json.dumps(summary, indent=1))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
