"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cycperm  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_t23_run_table_traces_one_call_per_layer_boundary():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.root("T23"):
            reports = cycperm.run_table(cycperm.select_rows(["T23"]),
                                        cycperm.RunConfig())
    finally:
        tracer.uninstall()
    assert reports[0].equal is True
    names = Counter(span[2] for span in tracer.spans)
    assert names["group_constructors.materialize"] == 1
    assert names["autgroup.certify"] == 1
    assert names["autgroup.backtrack"] == 1
    assert names["permutation.equal"] == 1
    assert tracer.missing == []
    assert cycperm.groups_equal is cycperm.permutation.groups_equal
    assert not hasattr(cycperm.groups_equal, "__wrapped__")


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] > autgroup [1, 6] > permutation [2, 4]; root > table [7, 9]
    spans = [
        [1, 0, "bench.op", "op", 0.0, 10.0, None],
        [2, 1, "autgroup.x", "op", 1.0, 6.0, None],
        [3, 2, "permutation.y", "op", 2.0, 4.0, None],
        [4, 1, "table.z", "op", 7.0, 9.0, None],
    ]
    # (parent, name, tag) -> [calls, total, self, top-level]; the polyring
    # leaf call runs inside the galois leaf calls.
    leaves = {
        (2, "galois.arith", ""): [5, 0.5, 0.4, 0.5],
        (2, "polyring.arith", ""): [1, 0.1, 0.1, 0.0],
        (3, "permutation.perm_new", ""): [2, 1.0, 1.0, 1.0],
    }
    got = layertrace.self_times(spans, leaves)
    assert got == pytest.approx({"bench": 3.0, "autgroup": 2.5,
                                 "permutation": 2.0, "table": 2.0,
                                 "galois": 0.4, "polyring": 0.1})
    assert sum(got.values()) == pytest.approx(10.0)


def test_live_self_times_add_up_to_the_root_span():
    tracer = layertrace.Tracer()

    def leaf_inner(x):
        return sum(range(x))

    inner = tracer.leaf("galois.arith", leaf_inner)
    outer_leaf = tracer.leaf("polyring.arith", lambda x: inner(x) + inner(x))
    span = tracer.span("autgroup.s", lambda: [outer_leaf(2000) for _ in range(50)])
    with tracer.root("op"):
        span()
        inner(1000)
    selfs = layertrace.self_times(tracer.spans, tracer.leaves)
    root = next(s for s in tracer.spans if s[2] == "bench.op")
    assert sum(selfs.values()) == pytest.approx(root[5] - root[4], rel=1e-9)
    calls = {k[1]: v[0] for k, v in tracer.leaves.items() if k[0] != root[0]}
    assert calls == {"galois.arith": 100, "polyring.arith": 50}


def test_flipped_expectation_counts_as_failed():
    # Per of C_{5,(x-1)^2} over F_5 is AGL1(5), not S(5).
    spec = ("exhaustive F5 n=5", "5", 5, "(x-1)^2", "S(5)", "exhaustive")
    outcomes = []
    worker.run_call(workloads._direct_search(cycperm, spec), None, outcomes)
    # An under-claim probe checked as if it were a true claim.
    row = workloads.mutant_rows(cycperm, "search-exact")[0]
    block = workloads.TableBlock([row], cycperm.RunConfig(), frozenset())
    worker.run_block(cycperm, block, None, outcomes)
    assert [bool(o.problems) for o in outcomes] == [True, True]
    assert not any(o.right for o in outcomes)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_op_slice_of_each_workload_runs(workload):
    res = worker.run_pass(cycperm, workload, 1, 0, trace=True, limit=1)
    assert len(res["ops"]) == 1
    assert res["ops"][0]["problems"] == []
    assert res["layers"]["autgroup.preserves_calls"] >= 0
    assert res["untraced_targets"] == []


def test_harrell_davis_quantiles():
    assert run.hd_quantile([7.0], 0.9) == 7.0
    assert run.hd_quantile(list(range(1, 23)), 0.5) == pytest.approx(11.5)
    values = [3.0, 1.0, 40.0, 2.0, 5.0]
    assert min(values) < run.hd_quantile(values, 0.5) < run.hd_quantile(
        values, 0.9) < max(values)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = {"true_claim": True, "tier": 2, "right": True}
    fake = {"setup_s": 0.1, "wall_s": 1.0, "wall_raw_s": 1.0,
            "op_ms": [1.0, 2.0],
            "peak_rss_mb": 40.0, "ops": [op, op],
            "layers": layertrace.layer_metrics(layertrace.Tracer())}
    fake_run = {"setup_probes": [0.1], "untraced": [fake], "traced": [fake]}
    e2e = run.end_to_end(fake_run)
    layers = run.per_layer(fake_run)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-orders",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
