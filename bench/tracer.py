"""Span tracer for the qtriple layers, installed from outside the package.

`Tracer.install` wraps the public functions listed in `LAYER_FUNCTIONS` and
rebinds every name that refers to one of them in any loaded qtriple module,
so a call made through ``from .ncpoly import mul`` is recorded as well.
Each call becomes a span (function, parent span, start, end) appended to
flat in-memory arrays; `write_spans` writes them out after the run.  A
function missing from its module is reported as absent, never as an error,
so the benchmark survives refactors that rename or delete it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_FUNCTIONS = {
    "ncpoly": ("normalize", "mul", "adjoint", "z2_act", "z2_project", "module_decompose"),
    "grammar": ("parse",),
    "rep": ("represent", "apply_poly_to_columns", "apply_word_to_columns",
            "relation_residuals", "normal_form_residual", "operator_norm", "save_matrix"),
    "gns": ("haar_exact", "haar_numeric", "gns_inner", "sector_pair", "sector_moment",
            "gram_schmidt_basis", "t_matrix", "little_jacobi", "basis_orthonormality_defect"),
    "triple": ("pi_matrix", "commutator_matrix", "commutator_norm_scan",
               "assemble_unoriented_triple", "certify_covering", "check_parity",
               "hilbert_module_product"),
    "isodeform": ("decompose", "left_twist", "right_twist", "star_product",
                  "star_product_right", "verify_lemma_a", "verify_lemma_b",
                  "twisted_triple_check"),
    "cli": ("main",),
}

# Per-layer metrics beyond calls and self time.  The first six are counted
# from arguments and results at layer boundaries; the harness adds the bytes
# the CLI printed and the traced-over-untraced wall-time ratio.
EXTRA_METRICS = {
    "ncpoly.rewrite_steps": "count",
    "ncpoly.normalize_per_mul": "ratio",
    "rep.dense_dim_max": "rows",
    "rep.dense_bytes": "bytes",
    "gns.gns_inner.nonzero_ratio": "ratio",
    "isodeform.model_dim": "rows",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "layer.function" by function id
        self.absent: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._step_ids: dict[str, int] = {}
        self.counts_steps = False  # normalize exposes the stats hook
        self.counts = {"rewrite_steps": 0, "gns_inner_nonzero": 0,
                       "dense_dim_max": 0, "dense_bytes": 0, "model_dim": 0}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qtriple" or name.startswith("qtriple."))]
        for layer, names in LAYER_FUNCTIONS.items():
            try:
                home = importlib.import_module(f"qtriple.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, self._hook(layer, name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def _hook(self, layer: str, name: str):
        """Counter update run on (args, kwargs, result) after a call, or None."""
        counts = self.counts
        module = sys.modules[f"qtriple.{layer}"]
        if (layer, name) == ("gns", "gns_inner"):
            def hook(args, kwargs, result):
                if result != 0:
                    counts["gns_inner_nonzero"] += 1
            return hook
        if layer == "rep":
            window = getattr(module, "TruncationSpec", ())

            def hook(args, kwargs, result):
                for value in (*args, *kwargs.values(), result):
                    if isinstance(value, np.ndarray):
                        counts["dense_bytes"] += value.nbytes
                        counts["dense_dim_max"] = max([counts["dense_dim_max"], *value.shape])
                    elif isinstance(value, window):
                        counts["dense_dim_max"] = max(counts["dense_dim_max"], value.dim)
            return hook
        if layer == "isodeform":
            model = getattr(module, "TorusModel", ())

            def hook(args, kwargs, result):
                for value in (*args, *kwargs.values()):
                    if isinstance(value, model):
                        counts["model_dim"] = max(counts["model_dim"], value.dim)
            return hook
        return None

    def _wrap(self, qualname: str, fn, hook):
        fid = len(self.names)
        self.names.append(qualname)
        fids, parents, starts, ends, stack = self.fid, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        counts = self.counts
        steps_hook = qualname == "ncpoly.normalize" and "stats" in _parameters(fn)
        self.counts_steps |= steps_hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if steps_hook:
                caller_stats = kwargs.pop("stats", None)
                if caller_stats is None and len(args) > 2:
                    args, caller_stats = args[:2], args[2]
                kwargs["stats"] = local = {}
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if steps_hook:
                steps = local.get("steps", 0)
                counts["rewrite_steps"] += steps
                if caller_stats is not None:
                    caller_stats["steps"] = caller_stats.get("steps", 0) + steps
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def step(self, label: str):
        """Record one benchmark step as a span named ``bench.<label>``."""
        fid = self._step_ids.get(label)
        if fid is None:
            fid = self._step_ids[label] = len(self.names)
            self.names.append(f"bench.{label}")
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- results ---------------------------------------------------------

    def summary(self, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics of this process's spans (overhead ratio excluded)."""
        fid = np.array(self.fid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(len(dur))  # time covered by each span's children
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        selfs = np.bincount(fid, weights=self_time, minlength=n)
        by_name = {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            keys = [f"{layer}.{name}" for name in names if f"{layer}.{name}" in by_name]
            for key in keys:
                out[f"{key}.calls"], out[f"{key}.self_s"] = by_name[key]
            if keys:
                out[f"{layer}.self_s"] = sum(by_name[key][1] for key in keys)
        counts = self.counts
        if "ncpoly.normalize" in by_name:
            if self.counts_steps:
                out["ncpoly.rewrite_steps"] = counts["rewrite_steps"]
            if "ncpoly.mul" in by_name:
                muls = by_name["ncpoly.mul"][0]
                out["ncpoly.normalize_per_mul"] = by_name["ncpoly.normalize"][0] / muls if muls else 0.0
        if any(k.startswith("rep.") for k in by_name):
            out["rep.dense_dim_max"] = counts["dense_dim_max"]
            out["rep.dense_bytes"] = counts["dense_bytes"]
        if "gns.gns_inner" in by_name:
            inner = by_name["gns.gns_inner"][0]
            out["gns.gns_inner.nonzero_ratio"] = counts["gns_inner_nonzero"] / inner if inner else 0.0
        if any(k.startswith("isodeform.") for k in by_name):
            out["isodeform.model_dim"] = counts["model_dim"]
        out["cli.report_bytes"] = report_bytes
        return out

    def write_spans(self, path) -> int:
        """Write spans as TSV (id, parent, root, name, start_s, end_s); return the count.

        The root is the benchmark step a span belongs to, so every span of
        one step shares that identifier."""
        n = len(self.fid)
        root = [0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
        names, fid, start, end = self.names, self.fid, self.start, self.end
        with open(path, "w") as fh:
            fh.write("id\tparent\troot\tname\tstart_s\tend_s\n")
            for i in range(n):
                fh.write(f"{i}\t{parent[i]}\t{root[i]}\t{names[fid[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\n")
        return n


def _parameters(fn) -> set[str]:
    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return set()

