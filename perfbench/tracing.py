"""Spans recorded around the library's public functions, from outside.

While a :class:`Tracer` is installed, every public function is replaced, in
each package module that binds it, by a wrapper that records a span: name,
layer, start, end, parent span and request id, with start and end read from
the process CPU clock.  Spans stay in memory; the benchmark writes them out
when it ends.  The layers are the package modules
``cli``, ``oplib``, ``mps``, ``linalg``, ``sequencer`` and ``formats``;
``cli.load_operator`` counts as ``oplib`` because its work is building and
validating the operator.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from importlib import import_module

LAYERS = ("cli", "oplib", "mps", "linalg", "sequencer", "formats")
FORMATS_WRITE = ("plan_to_doc", "report_to_doc", "dumps")
FORMATS_READ = ("parse_document", "doc_to_plan", "doc_to_isometry")
#: Counts that two traced passes over one request list must reproduce exactly.
STABLE_COUNTS = (
    "mps.calls_per_request",
    "linalg.svd_calls",
    "linalg.svd_flops",
    "sequencer.verify_inputs",
    "formats.write_bytes",
    "formats.read_bytes",
)


def svd_flops(rows: int, cols: int) -> int:
    """Complex thin-SVD cost model: 4x the real Golub-Van Loan 4lk^2 + 22k^3."""
    k, long = min(rows, cols), max(rows, cols)
    return 4 * (4 * long * k * k + 22 * k**3)


def _observe(name, args, result):
    """Per-span attributes computed from shapes and results, or None."""
    if name == "svd":
        return {"flops": svd_flops(*args[0].shape)}
    if name == "complete_to_unitary":
        return {"side": len(args[0])}
    if name == "verify_plan":
        return {"inputs": 2 ** args[1].m_in, "error": float(result.max_error)}
    if name == "haar_unitary":
        return {"dense_bytes": 16 * args[0] ** 2}
    if name == "load_operator":
        return {"dense_bytes": int(result.matrix.nbytes)}
    if name in ("operator_to_mps", "canonicalize"):
        return {"bond": int(result[0].max_bond_dim)}
    if name == "dumps":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "parse_document":
        return {"bytes": len(args[0].encode("utf-8"))}
    return None


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        # each span: [name, layer, start, end, parent index, request id, attrs]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request: int | None = None

    def begin(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, layer, time.process_time(), None, parent, self.request, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.process_time()
        self._open.pop()

    def _wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.spans[index][6] = _observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap the public functions wherever the package modules bind them."""
        modules = [import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        cli, formats = modules[0], modules[-1]
        targets = [getattr(package, n) for n in package.__all__]
        targets = [t for t in targets if inspect.isfunction(t)]
        targets += [cli.load_operator] + [getattr(formats, n) for n in FORMATS_WRITE + FORMATS_READ]
        wrappers = {}
        for fn in targets:
            layer = "oplib" if fn is cli.load_operator else fn.__module__.rsplit(".", 1)[1]
            wrappers[id(fn)] = self._wrap(fn, layer)
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "request", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], first: int, n_requests: int,
                  scale: float = 1.0) -> dict[str, float]:
    """Per-layer numbers for the spans of one pass (``spans[first:]``).

    Times are totals over the pass, multiplied by ``scale``.  A span's self
    time is its duration minus the durations of its direct children.
    """
    own = spans[first:]
    child_time = [0.0] * len(own)
    child_mps = [0.0] * len(own)
    for name, _, start, end, parent, _, _ in own:
        if parent is not None and parent >= first:
            child_time[parent - first] += end - start
            if name == "operator_to_mps":
                child_mps[parent - first] += end - start
    out = {k: 0.0 for k in (
        "oplib.load_s", "mps.canonicalize_s", "linalg.svd_s", "linalg.regroup_s",
        "linalg.complete_s", "sequencer.criterion_s", "sequencer.assemble_s",
        "sequencer.verify_s", "sequencer.simulate_s", "formats.write_s", "formats.read_s",
    )}
    counts = {k: 0 for k in (
        "oplib.dense_bytes", "mps.calls", "mps.max_bond_dim", "linalg.svd_calls",
        "linalg.svd_flops", "linalg.complete_calls", "linalg.complete_max_side",
        "sequencer.verify_inputs", "formats.write_bytes", "formats.read_bytes",
    )}
    verify_error = 0.0
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    total = dominant = 0.0
    for k, (name, layer, start, end, parent, _, attrs) in enumerate(own):
        dur = end - start
        own_time = dur - child_time[k]
        self_by_layer[layer] += own_time
        attrs = attrs or {}
        if parent is None:
            total += dur
        if layer == "oplib":
            out["oplib.load_s"] += own_time
            counts["oplib.dense_bytes"] = max(counts["oplib.dense_bytes"], attrs.get("dense_bytes", 0))
        if layer in ("oplib", "mps", "linalg") or name in ("sequentiality_test", "verify_plan"):
            dominant += own_time
        if name in ("operator_to_mps", "canonicalize"):
            out["mps.canonicalize_s"] += own_time
            counts["mps.calls"] += 1
            counts["mps.max_bond_dim"] = max(counts["mps.max_bond_dim"], attrs["bond"])
        elif name == "svd":
            out["linalg.svd_s"] += dur
            counts["linalg.svd_calls"] += 1
            counts["linalg.svd_flops"] += attrs["flops"]
        elif name == "regroup":
            out["linalg.regroup_s"] += dur
        elif name == "complete_to_unitary":
            out["linalg.complete_s"] += dur
            counts["linalg.complete_calls"] += 1
            counts["linalg.complete_max_side"] = max(counts["linalg.complete_max_side"], attrs["side"])
        elif name == "sequentiality_test":
            out["sequencer.criterion_s"] += dur - child_mps[k]
        elif name == "build_plan":
            out["sequencer.assemble_s"] += own_time
        elif name == "verify_plan":
            out["sequencer.verify_s"] += dur
            counts["sequencer.verify_inputs"] += attrs["inputs"]
            verify_error = max(verify_error, attrs["error"])
        elif name == "simulate":
            out["sequencer.simulate_s"] += dur
        elif name in FORMATS_WRITE:
            out["formats.write_s"] += dur
            counts["formats.write_bytes"] += attrs.get("bytes", 0)
        elif name in FORMATS_READ:
            out["formats.read_s"] += dur
            counts["formats.read_bytes"] += attrs.get("bytes", 0)
    out = {k: t * scale for k, t in out.items()}
    out["mps.calls_per_request"] = counts.pop("mps.calls") / n_requests
    out.update(counts)
    out["sequencer.verify_error_max"] = verify_error
    out["trace.spans"] = len(own)
    out["traced_s"] = total * scale
    out["wide_dominant_share"] = dominant / total if total else 0.0
    out.update({f"self.{layer}_s": t * scale for layer, t in self_by_layer.items()})
    return out
