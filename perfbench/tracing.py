"""Spans around calls into linfam's public functions, and the per-layer
metrics derived from them.

A Tracer rebinds each tracked public function, wherever a loaded linfam
module holds it, to a wrapper that records one span per call: name,
start, end, parent span and run id.  Calls the library makes between its
own layers (``spectrum`` building its ``rank_table``, ``regularity_decompose``
running ``is_captureable``) are therefore spanned too, and nest.  Spans stay
in memory; the caller writes them out once the run is over.  The untraced
run never installs a Tracer, so it runs the library unmodified.
"""
from __future__ import annotations

import functools
import inspect
import random
import sys
import time
from fractions import Fraction

# (module, attribute path, layer, span name).  A span name gets a ".q2" or
# ".qgen" suffix when the tracked call is labelled by field below.
TRACKED = [
    ("fourier", "fast_transform", "fourier", "fourier.fast_transform"),
    ("fourier", "inverse_transform", "fourier", "fourier.inverse_transform"),
    ("fourier", "Spectrum.parseval_sum", "fourier", "fourier.parseval_sum"),
    ("fourier", "norm2_sq", "fourier", "fourier.norm2_sq"),
    ("fourier", "rank_split", "fourier", "fourier.rank_split"),
    ("fourier", "project_image", "fourier", "fourier.project"),
    ("fourier", "project_kernel", "fourier", "fourier.project"),
    ("fourier", "reduce_family", "fourier", "fourier.reduce_family"),
    ("matspace", "rank_table", "matspace", "matspace.rank_table"),
    ("matspace", "subspaces_of_dim", "matspace", "matspace.subspaces_of_dim"),
    ("families", "max_density_ratio", "families", "families.max_density_ratio"),
    ("families", "is_quasiregular", "families", "families.is_quasiregular"),
    ("families", "is_captureable", "families", "families.is_captureable"),
    ("families", "regularity_decompose", "families",
     "families.regularity_decompose"),
    ("families", "measure_outside_junta", "families",
     "families.measure_outside_junta"),
    ("families", "quasiregular_implies_uncaptureable_check", "families",
     "families.bootstrap_check"),
    ("spectra", "spectrum", "spectra", "spectra.spectrum"),
    ("spectra", "hoffman_bound", "spectra", "spectra.hoffman_bound"),
    ("spectra", "graph_bitsets", "spectra", "spectra.graph_bitsets"),
    ("mis", "max_independent_set", "mis", "mis.max_independent_set"),
    ("extremal", "canonical_family_size", "extremal",
     "extremal.canonical_family_size"),
    ("extremal", "derangement_enumerate", "extremal",
     "extremal.derangement_enumerate"),
    ("extremal", "derangement_construct", "extremal",
     "extremal.derangement_construct"),
    ("extremal", "verify_extremal_bound", "extremal",
     "extremal.verify_extremal_bound"),
    ("extremal", "singer_cycle", "extremal", "extremal.singer_cycle"),
    ("extremal", "sl_family", "extremal", "extremal.sl_family"),
    ("cli", "main", "cli", "cli.main"),
]

# transforms take different code paths at q = 2 and at q >= 3
FIELD_LABELLED = {"fourier.fast_transform", "fourier.inverse_transform"}

LAYERS = ("fourier", "matspace", "families", "spectra", "mis", "extremal",
          "cli")

SPAN_TOTALS = list(dict.fromkeys(
    label for _, _, _, name in TRACKED
    for label in ((f"{name}.q2", f"{name}.qgen") if name in FIELD_LABELLED
                  else (name,))))

# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {f"{name}_s": "s" for name in SPAN_TOTALS}
PER_LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER_UNITS.update({
    "fourier.butterfly.cells_per_s": "1/s",
    "cyclo.kernel.mul_per_s": "1/s",
    "cyclo.kernel.add_per_s": "1/s",
    "gf.kernel.ops_per_s": "1/s",
    "matspace.rank_table.misses": "count",
    "matspace.subspaces_of_dim.misses": "count",
    "families.captures_found": "ratio",
    "families.regularity.nodes": "count",
    "spectra.spectrum.matrices_per_s": "1/s",
    "trace.overhead_s": "s",
})


def _field_label(args) -> str:
    obj = args[0]
    return "q2" if obj.field.q == 2 else "qgen"


class Tracer:
    """In-memory span recorder bound to one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    # recording ------------------------------------------------------------

    def _open(self, name: str, layer: str, work: int = 0) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "layer": layer,
                           "parent": self._stack[-1] if self._stack else None,
                           "run": self.run_id, "work": work,
                           "start": time.perf_counter(), "end": None,
                           "result": None})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, result=None) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self.spans[sid]["result"] = result
        self._stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        labelled = name in FIELD_LABELLED

        def span_name(args) -> str:
            return f"{name}.{_field_label(args)}" if labelled else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = span_name(args)
            sid = self._open(label, layer, _work(name, args))
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, _summary(name, out))
            if inspect.isgenerator(out):
                return self._consume(out, label, layer)
            return out
        return wrapper

    def _consume(self, gen, name: str, layer: str):
        """A returned generator does its work while the caller iterates, so
        a second span runs from the first item to exhaustion or close.  The
        caller must not call other tracked functions in between."""
        sid = self._open(name, layer)
        try:
            yield from gen
        finally:
            self._close(sid)

    def install(self, package) -> None:
        """Rebind every tracked function in every loaded module of package."""
        mods = {mname: mod for mname, mod in sys.modules.items()
                if mod is not None and (mname == package.__name__
                                        or mname.startswith(package.__name__ + "."))}
        for modname, path, layer, name in TRACKED:
            home = mods.get(f"{package.__name__}.{modname}")
            if home is None:
                continue
            owner, attr = _resolve_owner(home, path)
            if owner is None:
                continue
            fn = getattr(owner, attr)
            self.originals[f"{modname}.{path}"] = fn
            wrapped = self._wrap(fn, layer, name)
            if owner is not home:
                setattr(owner, attr, wrapped)   # a method on a class
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    # derived metrics ------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Seconds per span name, counting a span only when no ancestor
        carries the same name (a function re-entered through another
        tracked call is not counted twice)."""
        out = {name: 0.0 for name in SPAN_TOTALS}
        for sp in self.spans:
            if sp["end"] is None or self._has_named_ancestor(sp):
                continue
            out[sp["name"]] = out.get(sp["name"], 0.0) + sp["end"] - sp["start"]
        return out

    def _has_named_ancestor(self, sp: dict) -> bool:
        pid = sp["parent"]
        while pid is not None:
            anc = self.spans[pid]
            if anc["name"] == sp["name"]:
                return True
            pid = anc["parent"]
        return False

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp["parent"] is not None and sp["end"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for sp in self.spans:
            if sp["end"] is not None:
                dur = sp["end"] - sp["start"]
                out[sp["layer"]] = out.get(sp["layer"], 0.0) + dur - child[sp["id"]]
        return out

    def work_rate(self, prefixes: tuple[str, ...]) -> float:
        """Summed work units over summed seconds of the matching spans."""
        work = secs = 0.0
        for sp in self.spans:
            if sp["end"] is None or not sp["name"].startswith(prefixes):
                continue
            if self._has_named_ancestor(sp):
                continue
            work += sp["work"]
            secs += sp["end"] - sp["start"]
        return work / secs if secs > 0 else 0.0

    def results(self, name: str) -> list:
        return [sp["result"] for sp in self.spans
                if sp["name"] == name and sp["end"] is not None]

    def cache_misses(self, key: str):
        fn = self.originals.get(key)
        info = getattr(fn, "cache_info", None)
        return info().misses if info is not None else None

    def dump(self) -> list[dict]:
        return [{k: sp[k] for k in ("id", "name", "parent", "run", "start", "end")}
                for sp in self.spans]


def _resolve_owner(home, path: str):
    parts = path.split(".")
    owner = home
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, parts[-1], None)):
        return None, None
    return owner, parts[-1]


def _work(name: str, args) -> int:
    """Work units of one call: butterfly cells N*nm*q for a transform,
    matrices q^(nm) swept for a spectrum."""
    if name in FIELD_LABELLED:
        obj = args[0]
        q, nm = obj.field.q, obj.n * obj.m
        return q ** nm * nm * q
    if name == "spectra.spectrum":
        q, m, n = args[0], args[1], args[2]
        return q ** (n * m)
    return 0


def _summary(name: str, out):
    """The part of a result the per-layer counters need."""
    if name == "families.is_captureable":
        return out is not None
    if name == "families.regularity_decompose" and out is not None:
        return len(out[1].nodes)
    return None


# --- fixed kernel slices for the layers no workload calls directly ---------

def cyclo_kernel(lf, seed: int, count: int) -> dict[str, float]:
    """Cyc products and sums per second over seeded p=3 and p=5 operands
    whose coordinates are small fractions, as in the transform tables."""
    rng = random.Random(seed)
    ops = []
    for p in (3, 5):
        for _ in range(64):
            ops.append((lf.Cyc(p, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                                   for _ in range(p - 1)]),
                        lf.Cyc(p, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                                   for _ in range(p - 1)])))
    reps = max(1, count // len(ops))
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, b in ops:
            a * b
    t_mul = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        for a, b in ops:
            a + b
    t_add = time.perf_counter() - t0
    n = reps * len(ops)
    return {"cyclo.kernel.mul_per_s": n / t_mul, "cyclo.kernel.add_per_s": n / t_add}


def gf_kernel(lf, seed: int, count: int) -> dict[str, float]:
    """FieldSpec add, sub, mul and trace calls per second over seeded
    elements of F_2, F_3, F_4 and F_5."""
    rng = random.Random(seed)
    specs = [lf.field(q) for q in (2, 3, 4, 5)]
    pairs = [(spec, rng.randrange(spec.q), rng.randrange(spec.q))
             for spec in specs for _ in range(64)]
    reps = max(1, count // (4 * len(pairs)))
    t0 = time.perf_counter()
    for _ in range(reps):
        for spec, a, b in pairs:
            spec.add(a, b)
            spec.sub(a, b)
            spec.mul(a, b)
            spec.trace(a)
    secs = time.perf_counter() - t0
    return {"gf.kernel.ops_per_s": 4 * reps * len(pairs) / secs}
