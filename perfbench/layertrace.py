"""Outside-in tracing of cycperm's layers.

The tracer wraps layer-boundary functions from the outside; nothing in
``src/`` changes.  A wrapped function is either a *span* (recorded one by
one, with its parent span and the op it belongs to) or a *hot leaf*
(called too often to record singly: its calls and time are aggregated
under the innermost open span).  Because ``from .x import f`` copies the
binding, a module-level function is replaced in every ``cycperm.*``
namespace that binds the same object.

A span's self time is its duration minus the time of its child spans and
of the leaf calls made directly under it.  A leaf's self time excludes
leaf calls nested inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


def _gens_points(res) -> dict:
    return {"gens": len(res), "points": len(res) * res[0].degree if res else 0}


def _chain_shape(chain) -> dict:
    return {"base_len": len(chain.base_points()),
            "strong_gens": len(chain.all_gens)}


def _preserves_tag(args, res) -> str:
    engine = args[0]
    field = "f2" if engine.q == 2 else "fq"
    return f"{field}:{'pass' if res[0] else 'fail'}"


# (trace name, "module:qualified name", kind, options).  The layer is the
# part of the trace name before the dot.
TARGETS = (
    ("galois.arith", "galois:FieldSpec.add", "leaf", {}),
    ("galois.arith", "galois:FieldSpec.sub", "leaf", {}),
    ("galois.arith", "galois:FieldSpec.neg", "leaf", {}),
    ("galois.arith", "galois:FieldSpec.mul", "leaf", {}),
    ("galois.arith", "galois:FieldSpec.inv", "leaf", {}),
    ("galois.arith", "galois:FieldSpec.pow", "leaf", {}),
    ("polyring.factor", "polyring:factor_xn_minus_1", "span", {}),
    ("polyring.cyclotomic", "polyring:cyclotomic", "span", {}),
    ("polyring.dual", "polyring:dual_generator", "span", {}),
    ("polyring.arith", "polyring:poly_add", "leaf", {}),
    ("polyring.arith", "polyring:poly_sub", "leaf", {}),
    ("polyring.arith", "polyring:poly_scale", "leaf", {}),
    ("polyring.arith", "polyring:poly_mul", "leaf", {}),
    ("polyring.arith", "polyring:poly_divmod", "leaf", {}),
    ("polyring.arith", "polyring:poly_mod", "leaf", {}),
    ("polyring.arith", "polyring:poly_gcd", "leaf", {}),
    ("polyring.arith", "polyring:poly_pow", "leaf", {}),
    ("polyring.arith", "polyring:_Ext.add", "leaf", {}),
    ("polyring.arith", "polyring:_Ext.sub", "leaf", {}),
    ("polyring.arith", "polyring:_Ext.mul", "leaf", {}),
    ("polyring.arith", "polyring:_Ext.pow", "leaf", {}),
    ("cyclic_code.make_code", "cyclic_code:make_code", "span", {}),
    ("cyclic_code.enum", "cyclic_code:codeword_index_matrix", "span",
     {"annotate": lambda a, k, res: {"words": int(res.shape[0])}}),
    ("permutation.perm_new", "permutation:Permutation.__init__", "leaf", {}),
    ("permutation.contains", "permutation:_StabChain.contains", "leaf", {}),
    ("permutation.contains", "permutation:_StabChain.contains_batch",
     "leaf", {}),
    ("permutation.chain", "permutation:PermGroup.chain", "span",
     {"when": lambda a: a[0]._chain is None,
      "annotate": lambda a, k, res: _chain_shape(res)}),
    ("permutation.extend", "permutation:_StabChain.extend", "span", {}),
    ("permutation.equal", "permutation:groups_equal", "span", {}),
    ("permutation.reduce", "permutation:reduce_generators", "span", {}),
    ("group_constructors.materialize", "group_constructors:materialize",
     "span", {"annotate": lambda a, k, res: _gens_points(res)}),
    ("group_constructors.per_of", "group_constructors:per_of_generators",
     "span", {}),
    ("autgroup.engine_init", "autgroup:_Engine.__init__", "span", {}),
    ("autgroup.preserves", "autgroup:_Engine.perm_preserves", "leaf",
     {"classify": _preserves_tag}),
    ("autgroup.certify", "autgroup:certify_subgroup", "span", {}),
    ("autgroup.sample", "autgroup:falsify_by_sampling", "span",
     {"annotate": lambda a, k, res: {"trials": int(a[2])}}),
    ("autgroup.exhaustive", "autgroup:exhaustive_per_group", "span", {}),
    ("autgroup.backtrack", "autgroup:backtrack_per_group", "span", {}),
    ("autgroup.predict", "autgroup:predicted_group", "span", {}),
    ("table.run_table", "table:run_table", "span",
     {"annotate": lambda a, k, res: {"records": len(res)}}),
    ("cli.main", "cli:main", "span", {}),
)


class Tracer:
    """Spans and leaf aggregates of one pass, kept in memory."""

    def __init__(self):
        self.on = False
        # finished spans: [id, parent id, name, op, t0, t1, counts]
        self.spans: List[list] = []
        # (parent span id, leaf name, tag) -> [calls, total_s, self_s, top_s]
        self.leaves: Dict[tuple, list] = {}
        self.missing: List[str] = []
        self.op: Optional[str] = None
        self._span = 0          # innermost open span; 0 is "no span"
        self._next_id = 0
        self._leaf_depth = 0
        self._leaf_child = 0.0  # leaf time nested in the open leaf
        self._undo: List[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn: Callable, annotate=None, when=None):
        tr = self

        def traced(*args, **kwargs):
            if not tr.on or tr._leaf_depth or (when and not when(args)):
                return fn(*args, **kwargs)
            tr._next_id += 1
            sid, parent = tr._next_id, tr._span
            tr._span = sid
            t0 = _perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                tr._span = parent
                rec = [sid, parent, name, tr.op, t0, t1, None]
                tr.spans.append(rec)
            if annotate:
                rec[6] = annotate(args, kwargs, res)
            return res
        traced.__wrapped__ = fn
        return traced

    def leaf(self, name: str, fn: Callable, classify=None):
        tr = self
        leaves = self.leaves

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            depth = tr._leaf_depth
            outer_child = tr._leaf_child
            tr._leaf_depth = depth + 1
            tr._leaf_child = 0.0
            tag = "raised"
            t0 = _perf()
            try:
                res = fn(*args, **kwargs)
                tag = classify(args, res) if classify else ""
                return res
            finally:
                dur = _perf() - t0
                nested = tr._leaf_child
                tr._leaf_depth = depth
                tr._leaf_child = outer_child + dur
                key = (tr._span, name, tag)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - nested
                if depth == 0:
                    agg[3] += dur
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, op: str):
        """One op of the benchmark: the root span its layer spans hang off.

        Tracing is on only inside a root, so output checks are not traced.
        """
        self._next_id += 1
        sid = self._next_id
        self.op, self._span, self.on = op, sid, True
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            self.on, self._span = False, 0
            self.spans.append([sid, 0, "bench.op", op, t0, t1, None])

    # -- patching -------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for where in {t[1].split(":")[0] for t in targets}:
            importlib.import_module(f"cycperm.{where}")
        modules = [m for name, m in sys.modules.items()
                   if name == "cycperm" or name.startswith("cycperm.")]
        for name, where, kind, opts in targets:
            mod_name, qual = where.split(":")
            owner = sys.modules[f"cycperm.{mod_name}"]
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None)
            if orig is None:
                self.missing.append(where)
                continue
            if kind == "leaf":
                new = self.leaf(name, orig, opts.get("classify"))
            else:
                new = self.span(name, orig, opts.get("annotate"),
                                opts.get("when"))
            if len(parts) > 1:
                self._undo.append((owner, parts[-1], orig))
                setattr(owner, parts[-1], new)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- per-layer metrics ----------------------------------------------------------

def self_times(spans: List[list], leaves: Dict[tuple, list]) -> Dict[str, float]:
    """Self time per layer: span durations minus their children's time."""
    child = {}
    for sid, parent, _name, _op, t0, t1, _c in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    for (parent, _name, _tag), agg in leaves.items():
        child[parent] = child.get(parent, 0.0) + agg[3]
    out: Dict[str, float] = {}
    for sid, _parent, name, _op, t0, t1, _c in spans:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child.get(sid, 0.0)
    for (_parent, name, _tag), agg in leaves.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + agg[2]
    return out


def _outermost(spans: List[list]) -> List[list]:
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s[1])
        while parent is not None and parent[2] != s[2]:
            parent = by_id.get(parent[1])
        if parent is None:
            out.append(s)
    return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per_layer metrics of BENCHMARK.json from one traced pass."""
    spans, leaves = tracer.spans, tracer.leaves
    top = _outermost(spans)
    span_name = {s[0]: s[2] for s in spans}

    def count(name):
        return sum(1 for s in top if s[2] == name)

    def incl(name):
        return sum(s[5] - s[4] for s in top if s[2] == name)

    def total(name, key):
        return sum((s[6] or {}).get(key, 0) for s in top if s[2] == name)

    def leaf(name, tag_prefix="", under=None, field=0):
        return sum(agg[field] for (parent, n, tag), agg in leaves.items()
                   if n == name and tag.startswith(tag_prefix)
                   and (under is None or span_name.get(parent) == under))

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = self_times(spans, leaves)
    pres = "autgroup.preserves"
    f2_calls = leaf(pres, "f2")
    fq_calls = leaf(pres, "fq")
    bt_calls = leaf(pres, under="autgroup.backtrack")
    return {
        "galois.calls": leaf("galois.arith"),
        "galois.self_s": selfs.get("galois", 0.0),
        "polyring.factor_calls": count("polyring.factor"),
        "polyring.factor_s": incl("polyring.factor"),
        "polyring.arith_calls": leaf("polyring.arith"),
        "polyring.self_s": selfs.get("polyring", 0.0),
        "cyclic_code.make_code_s": incl("cyclic_code.make_code"),
        "cyclic_code.enum_words": total("cyclic_code.enum", "words"),
        "cyclic_code.enum_s": incl("cyclic_code.enum"),
        "permutation.chain_builds": count("permutation.chain"),
        "permutation.chain_s": incl("permutation.chain"),
        "permutation.base_len": total("permutation.chain", "base_len"),
        "permutation.strong_gens": total("permutation.chain", "strong_gens"),
        "permutation.extend_calls": count("permutation.extend"),
        "permutation.extend_s": incl("permutation.extend"),
        "permutation.contains_calls": leaf("permutation.contains"),
        "permutation.contains_s": leaf("permutation.contains", field=1),
        "permutation.perm_new": leaf("permutation.perm_new"),
        "permutation.perm_new_s": leaf("permutation.perm_new", field=1),
        "permutation.equal_s": incl("permutation.equal"),
        "group_constructors.materialize_s":
            incl("group_constructors.materialize"),
        "group_constructors.gens":
            total("group_constructors.materialize", "gens"),
        "group_constructors.points":
            total("group_constructors.materialize", "points"),
        "group_constructors.per_of_s": incl("group_constructors.per_of"),
        "autgroup.engine_init_s": incl("autgroup.engine_init"),
        "autgroup.preserves_calls": leaf(pres),
        "autgroup.preserves_us_f2":
            1e6 * ratio(leaf(pres, "f2", field=1), f2_calls),
        "autgroup.preserves_us_fq":
            1e6 * ratio(leaf(pres, "fq", field=1), fq_calls),
        "autgroup.preserves_pass_ratio":
            ratio(leaf(pres, "f2:pass") + leaf(pres, "fq:pass"), leaf(pres)),
        "autgroup.certify_s": incl("autgroup.certify"),
        "autgroup.sample_s": incl("autgroup.sample"),
        "autgroup.sample_trials": total("autgroup.sample", "trials"),
        "autgroup.sample_hits":
            leaf(pres, "f2:pass", under="autgroup.sample")
            + leaf(pres, "fq:pass", under="autgroup.sample"),
        "autgroup.exhaustive_s": incl("autgroup.exhaustive"),
        "autgroup.backtrack_s": incl("autgroup.backtrack"),
        "autgroup.backtrack_leaves": bt_calls,
        "autgroup.backtrack_leaf_ratio": ratio(
            leaf(pres, "f2:pass", under="autgroup.backtrack")
            + leaf(pres, "fq:pass", under="autgroup.backtrack"), bt_calls),
        "autgroup.predict_s": incl("autgroup.predict"),
        "autgroup.self_s": selfs.get("autgroup", 0.0),
        "table.records": total("table.run_table", "records"),
        "table.self_s": selfs.get("table", 0.0),
        "cli.calls": count("cli.main"),
        "cli.self_s": selfs.get("cli", 0.0),
    }


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
