"""Spans and exact call counts taken from outside the program.

Each traced public function is replaced by a wrapper in the module that
defines it and in every ``finfree`` module that imported it by name (methods
are replaced on their class), and the original is restored afterwards.
Nothing under ``src/`` changes. A function that no longer exists is skipped,
so its metrics read zero calls.

Wrappers record only inside an operation, that is while a root span is open
(or, for the counter, while it is active), so the benchmark's own output
checks never show up in the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

# per-layer metric prefix -> (defining module, attribute path)
TRACED = {
    "matrices.char_poly": ("finfree.matrices", "char_poly"),
    "matrices.det": ("finfree.matrices", "Matrix.det"),
    "matrices.inverse": ("finfree.matrices", "Matrix.inverse"),
    "matrices.minor_table": ("finfree.matrices", "minor_table"),
    "matrices.moment_vector_of": ("finfree.matrices", "moment_vector_of"),
    "polynomials.boxplus": ("finfree.polynomials", "boxplus"),
    "polynomials.boxtimes": ("finfree.polynomials", "boxtimes"),
    "polynomials.average": ("finfree.polynomials", "average"),
    "ffp.is_additive_ffp": ("finfree.ffp", "is_additive_ffp"),
    "ffp.is_multiplicative_ffp": ("finfree.ffp", "is_multiplicative_ffp"),
    "ffp.expected_charpoly_signed_perms": ("finfree.ffp", "expected_charpoly_signed_perms"),
    "ffp.expected_charpoly_haar_mc": ("finfree.ffp", "expected_charpoly_haar_mc"),
    "families.verify_pair": ("finfree.families", "verify_pair"),
    "families.sample_member": ("finfree.families", "sample_member"),
    "families.is_member": ("finfree.families", "is_member"),
    "families.cycle_sums": ("finfree.families", "cycle_sums"),
    "moments.coeffs_from_moments": ("finfree.moments", "coeffs_from_moments"),
    "moments.moments_from_coeffs": ("finfree.moments", "moments_from_coeffs"),
    "moments.cumulants_from_moments": ("finfree.moments", "cumulants_from_moments"),
    "moments.moments_from_cumulants": ("finfree.moments", "moments_from_cumulants"),
    "partitions.set_partitions": ("finfree.partitions", "set_partitions"),
    "partitions.top_join_weight_table": ("finfree.partitions", "top_join_weight_table"),
    "partitions.integer_partitions": ("finfree.partitions", "integer_partitions"),
}

ROOT = "op"

# GaussianRational method -> counted operation
SCALAR_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
    "__rtruediv__": "div",
}


def patch(module_name: str, path: str, make_wrapper) -> list:
    """Replace ``module_name.path`` by ``make_wrapper(original)`` everywhere
    finfree refers to it by that name; return the undo list for ``unpatch``."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    *owners, attr = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None) if owner is not None else None
    if original is None:
        return []
    wrapper = make_wrapper(original)
    targets = [owner]
    if owner is module:
        targets += [
            m
            for name, m in sorted(sys.modules.items())
            if m is not module
            and (name == "finfree" or name.startswith("finfree."))
            and getattr(m, attr, None) is original
        ]
    undo = []
    for target in targets:
        undo.append((target, attr, original))
        setattr(target, attr, wrapper)
    return undo


def unpatch(undo: list) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)


class Tracer:
    """Spans kept in memory as columns: name id, start, end (ns) and the
    index of the parent span (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self):
        idx = self._open(self._id(ROOT))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name: str):
        nid = self._id(name)
        stack, open_, close = self.stack, self._open, self._close

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

            return traced

        return make

    def install(self) -> list:
        undo = []
        for metric, (module_name, path) in TRACED.items():
            undo += patch(module_name, path, self._wrapper(metric))
        return undo

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }

    def merge(self, obj: dict) -> None:
        """Append spans written by another process (see ``to_json``)."""
        offset = len(self.start)
        ids = [self._id(n) for n in obj["names"]]
        self.name.extend(ids[k] for k in obj["name"])
        self.start.extend(obj["start"])
        self.end.extend(obj["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in obj["parent"])

    def summary(self) -> dict:
        """Per span name: call count and total self time (ns).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so the children cover
        disjoint parts of the parent's interval."""
        count = len(self.start)
        child = [0] * count
        dur = [self.end[k] - self.start[k] for k in range(count)]
        for k in range(count):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        out: dict[str, dict] = {}
        for k in range(count):
            row = out.setdefault(self.names[self.name[k]], {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += dur[k] - child[k]
        return out


class Counter:
    """Exact counts of GaussianRational add/sub/mul/div calls and the largest
    numerator or denominator bit length in any ``char_poly`` output, taken
    while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.ops = dict.fromkeys(sorted(set(SCALAR_OPS.values())), 0)
        self.max_coeff_bits = 0

    @contextlib.contextmanager
    def counting(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _count(self, op: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args):
                if self.active:
                    self.ops[op] += 1
                return fn(*args)

            return counted

        return make

    def _bits(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            poly = fn(*args, **kwargs)
            if self.active:
                for c in poly.coeffs:
                    for part in (c.re, c.im):
                        self.max_coeff_bits = max(
                            self.max_coeff_bits,
                            part.numerator.bit_length(),
                            part.denominator.bit_length(),
                        )
            return poly

        return measured

    def install(self) -> list:
        undo = []
        for method, op in SCALAR_OPS.items():
            undo += patch("finfree.scalars", f"GaussianRational.{method}", self._count(op))
        undo += patch(*TRACED["matrices.char_poly"], self._bits)
        return undo

    def to_json(self) -> dict:
        return {"ops": dict(self.ops), "max_coeff_bits": self.max_coeff_bits}

    def merge(self, obj: dict) -> None:
        for op, n in obj["ops"].items():
            self.ops[op] = self.ops.get(op, 0) + n
        self.max_coeff_bits = max(self.max_coeff_bits, obj["max_coeff_bits"])
