"""Span tracing for the benchmark's traced run.

The program under test is not modified.  `install` replaces the public
functions of each eulerstab layer with timing wrappers from outside, in every
module namespace and class dictionary where the original object is bound
(`poly_gcd`, for example, is imported by name into `stability` and `lab`, and
`__rmul__` is the same function object as `__mul__`).  Each wrapped call
records one span: (name, start_ns, end_ns, parent span index, operation id,
key, note).  Spans stay in memory until the run ends.

A span name is the layer metric prefix it feeds, e.g. ``stability.hurwitz``
covers both `hurwitz_determinants` and `is_strictly_hurwitz_stable`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

# One record per span: name, start_ns, end_ns, parent index (-1 for a root),
# operation id (-1 during set-up), key (str or None), note (JSON value or None).
Record = Tuple[str, int, int, int, int, Optional[str], Any]


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self._spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Optional[Callable[[tuple], Any]] = None,
        note: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        """`fn` with one span recorded per call.  `key(args)` and
        `note(result)` are kept by reference and turned into plain values
        only in `records`, so the wrapper adds no per-call serialization."""
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if key is not None:
                span[5] = key(args)
            if note is not None:
                span[6] = (note, result)
            return result

        return wrapper

    def call(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn)(*args)

    def patch(self, owners, owner, attr: str, name: str, key=None, note=None) -> None:
        """Replace `owner.attr` by a traced wrapper everywhere it is bound
        among `owners` (modules or classes)."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, key, note)
        for target in owners:
            for bound_name, value in list(vars(target).items()):
                if value is original:
                    setattr(target, bound_name, wrapper)
                    self._patches.append((target, bound_name, original))

    def uninstall(self) -> None:
        for target, bound_name, original in reversed(self._patches):
            setattr(target, bound_name, original)
        self._patches.clear()

    def extend(self, records: List[Record]) -> None:
        """Append spans recorded in another process under the open span.

        perf_counter_ns reads CLOCK_MONOTONIC on Linux, so child timestamps
        share the parent's time base."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self._spans)
        for name, t0, t1, par, _op, key, note in records:
            self._spans.append([name, t0, t1, parent if par < 0 else base + par, self.op, key, note])

    # ------------------------------------------------------------------
    # output

    def records(self) -> List[Record]:
        out = []
        for name, t0, t1, parent, op, key, note in self._spans:
            if key is not None and not isinstance(key, str):
                key = repr(key)
            if isinstance(note, tuple):
                fn, result = note
                note = fn(result)
            out.append((name, t0, t1, parent, op, key, note))
        return out


def write_records(path: str, records: List[Record]) -> None:
    """Tab-separated spans: name, start_ns, end_ns, parent, op."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\n")
        for name, t0, t1, parent, op, _key, _note in records:
            fh.write(f"{name}\t{t0}\t{t1}\t{parent}\t{op}\n")


# ---------------------------------------------------------------------------
# what is wrapped


def _coeffs_key(args):
    return args[0].coeffs


def _chain_shape(chain) -> list:
    bits = max((abs(c).bit_length() for row in chain.rows for c in row), default=0)
    return [len(chain.polys), bits]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the six eulerstab layers."""
    from eulerstab import cli, eulerian, lab, oracle, polynomial, stability

    modules = [m for n, m in sys.modules.items() if n == "eulerstab" or n.startswith("eulerstab.")]
    poly_cls = polynomial.Polynomial
    patch = tracer.patch

    patch([poly_cls], poly_cls, "__call__", "polynomial.eval")
    patch([poly_cls], poly_cls, "__divmod__", "polynomial.divmod")
    patch([poly_cls], poly_cls, "__mul__", "polynomial.mul")
    patch(modules, polynomial, "poly_gcd", "polynomial.gcd")

    patch(modules, stability, "sturm_chain", "stability.sturm_chain", _coeffs_key, _chain_shape)
    patch([stability.SturmChain], stability.SturmChain, "variations", "stability.variations")
    patch(modules, stability, "squarefree_decompose", "stability.squarefree", _coeffs_key)
    patch(modules, stability, "hermite_biehler_weakly_stable", "stability.hermite_biehler")
    patch(modules, stability, "interlaces", "stability.interlaces")
    patch(modules, stability, "is_real_rooted", "stability.is_real_rooted")
    patch(modules, stability, "hurwitz_determinants", "stability.hurwitz", note=len)
    patch(modules, stability, "is_strictly_hurwitz_stable", "stability.hurwitz")
    patch(modules, stability, "isolate_real_roots", "stability.isolate")
    patch(modules, stability, "approximate_real_roots", "stability.isolate")

    gen_names = ("eulerian_a", "eulerian_b", "eulerian_d", "affine_b", "half_b", "half_d",
                 "family_polynomial", "zigzag")
    for gen in gen_names:
        patch(modules, eulerian, gen, "eulerian.gen", key=lambda args, gen=gen: (gen, args))

    patch(modules, oracle, "distribution", "oracle.distribution",
          note=lambda poly: int(sum(poly.coeffs)))

    for attr, value in list(vars(lab).items()):
        if inspect.isfunction(value) and value.__module__ == lab.__name__ and not attr.startswith("_"):
            patch(modules, lab, attr, "lab")

    patch(modules, cli, "main", "cli")


# ---------------------------------------------------------------------------
# per-layer metrics


LAYER_SPANS = (
    "polynomial.eval",
    "polynomial.divmod",
    "polynomial.mul",
    "polynomial.gcd",
    "stability.sturm_chain",
    "stability.variations",
    "stability.squarefree",
    "stability.hermite_biehler",
    "stability.interlaces",
    "stability.is_real_rooted",
    "stability.hurwitz",
    "stability.isolate",
    "eulerian.gen",
    "oracle.distribution",
    "lab",
    "cli",
)
_DISTINCT = ("stability.sturm_chain", "stability.squarefree", "eulerian.gen")


def layer_metrics(records: List[Record]) -> Dict[str, float]:
    """Aggregate spans into per-layer metrics.

    calls counts entries into a span name from outside it (recursion and
    wrapper-inside-wrapper do not count twice); self_s is span time minus the
    time its direct child spans cover; distinct_ratio is distinct keys over
    calls."""
    child_ns = [0] * len(records)
    for name, t0, t1, parent, _op, _key, _note in records:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls: Dict[str, int] = dict.fromkeys(LAYER_SPANS, 0)
    self_ns: Dict[str, int] = dict.fromkeys(LAYER_SPANS, 0)
    keys: Dict[str, set] = {name: set() for name in _DISTINCT}
    chain_lens: List[int] = []
    max_bits = 0
    minors = 0
    elements = 0
    spawn_ns = 0
    for i, (name, t0, t1, parent, _op, key, note) in enumerate(records):
        if name == "cli":
            # the operation span around a CLI child: its time outside cli.main
            spawn_ns += records[parent][2] - records[parent][1] - (t1 - t0)
        if name not in calls:
            continue
        self_ns[name] += (t1 - t0) - child_ns[i]
        if parent < 0 or records[parent][0] != name:
            calls[name] += 1
            if name in keys:
                keys[name].add(key)
        if note is None:
            continue
        if name == "stability.sturm_chain":
            chain_lens.append(note[0])
            max_bits = max(max_bits, note[1])
        elif name == "stability.hurwitz":
            minors += note
        elif name == "oracle.distribution":
            elements += note

    out: Dict[str, float] = {}
    for name in LAYER_SPANS:
        if name != "cli":  # cli.main runs once per cli-batch operation
            out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in _DISTINCT:
        out[f"{name}.distinct_ratio"] = len(keys[name]) / calls[name] if calls[name] else 0.0
    out["stability.sturm_chain.chain_len_mean"] = (
        sum(chain_lens) / len(chain_lens) if chain_lens else 0.0
    )
    out["stability.sturm_chain.max_coeff_bits"] = max_bits
    out["stability.hurwitz.minors"] = minors
    out["cli.spawn_s"] = spawn_ns / 1e9
    out["oracle.elements"] = elements
    oracle_s = self_ns["oracle.distribution"] / 1e9
    out["oracle.elements_per_s"] = elements / oracle_s if oracle_s else 0.0
    return out
