"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --pass I --trace 0|1
    python3 perfbench/worker.py --setup-only

Prints one line ``PERFBENCH <json>`` with the pass's set-up time, per-op
times, peak RSS, per-op outcomes and, when traced, the per-layer metrics.
run.py starts this script with ``src/`` on PYTHONPATH and BLAS threads
pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def setup():
    """Import cycperm from this checkout and build the workloads' fields."""
    import cycperm
    import cycperm.cli  # noqa: F401  (algebra-fq calls cli.main)
    for r, alpha in ((2, 1), (3, 1), (2, 2), (5, 1)):
        cycperm.make_field(r, alpha)
    if Path(cycperm.__file__).resolve().parent != SRC / "cycperm":
        raise SystemExit(f"cycperm imported from {cycperm.__file__}, "
                         f"not from {SRC}")
    return cycperm


def run_block(cp, block, tracer, outcomes):
    """One run_table call; each record's interval ends at its log line."""
    from workloads import Outcome, check_probe, check_record
    marks = []
    t0 = time.perf_counter()
    with tracer.root("run_table") if tracer else contextlib.nullcontext():
        reports = cp.run_table(
            block.rows, block.cfg,
            log=lambda _line: marks.append(time.perf_counter()))
    starts = [t0] + marks[:-1]
    for row, rep, start, end in zip(block.rows, reports, starts, marks):
        out = Outcome(row.id, row.id not in block.mutant_ids, t0=start, t1=end)
        if out.true_claim:
            check_record(row, rep, block.cfg, out)
        else:
            check_probe(rep, out)
        outcomes.append(out)


def run_call(op, tracer, outcomes):
    from workloads import Outcome
    out = Outcome(op.name, op.true_claim)
    result, error = None, None
    out.t0 = time.perf_counter()
    try:
        with tracer.root(op.name) if tracer else contextlib.nullcontext():
            result = op.run()
    except Exception as exc:  # an op that raises is a failed op
        error = exc
    out.t1 = time.perf_counter()
    if error is not None:
        out.problems.append(f"raised {type(error).__name__}: {error}")
    else:
        try:
            op.check(result, out)
        except Exception as exc:  # malformed output fails the check
            out.problems.append(f"check raised {type(exc).__name__}: {exc}")
    outcomes.append(out)


def run_pass(cp, workload: str, seed: int, pass_index: int, trace: bool,
             limit=None, spans_path=None, probe=None) -> dict:
    """Run the workload's ops once; ``limit`` keeps only the first ops.

    With a speed probe, op times are reported at reference speed.  A traced
    pass writes its spans and leaf aggregates to ``spans_path``.
    """
    import workloads
    from workloads import TableBlock
    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    items = workloads.build(cp, workload, seed, pass_index)
    if limit is not None:
        items = workloads.first_ops(items, limit)
    outcomes = []
    try:
        for item in items:
            if isinstance(item, TableBlock):
                try:
                    run_block(cp, item, tracer, outcomes)
                except Exception as exc:  # the whole call failed
                    outcomes.extend(
                        workloads.Outcome(r.id, r.id not in item.mutant_ids,
                                          problems=[f"run_table raised {exc!r}"])
                        for r in item.rows)
            else:
                run_call(item, tracer, outcomes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for out in outcomes:
        secs = probe.calibrated(out.t0, out.t1) if probe else out.t1 - out.t0
        out.ms = 1000.0 * secs
    result = {
        "wall_s": sum(o.ms for o in outcomes) / 1000.0,
        "wall_raw_s": sum(o.t1 - o.t0 for o in outcomes),
        "op_ms": [o.ms for o in outcomes],
        "ops": [o.as_dict() for o in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from layertrace import layer_metrics
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        result["untraced_targets"] = tracer.missing
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["id", "parent", "name", "op", "t0", "t1", "counts"],
                 "spans": tracer.spans,
                 "leaves": [list(k) + v for k, v in tracer.leaves.items()]}))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from speed import SpeedProbe
    # Traced passes run without the probe, so that spans hold no snippets.
    probe = None if args.trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        cp = setup()
        t1 = time.perf_counter()
        result = {"setup_raw_s": t1 - t0}
        if not args.setup_only:
            spans_path = None
            if args.trace:
                spans_path = HERE / "out" / (
                    f"spans-{args.workload}-seed{args.seed}"
                    f"-pass{args.pass_index}.json")
            result.update(run_pass(cp, args.workload, args.seed,
                                   args.pass_index, bool(args.trace),
                                   spans_path=spans_path, probe=probe))
            import numpy
            result["numpy"] = numpy.__version__
    result["setup_s"] = probe.calibrated(t0, t1) if probe else t1 - t0
    if probe:
        result["speed_samples"] = len(probe.durations)
    sys.stdout.write("PERFBENCH " + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    if not (SRC / "cycperm" / "__init__.py").is_file():
        sys.exit(f"no cycperm sources at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.setdefault("CYCPERM_WORKERS", "1")
    sys.exit(main())
