"""Span tracing of isodec's layer boundaries, from outside the package.

``Tracer.install`` replaces every public function of the layer modules, in
every ``isodec`` namespace that binds it, with a wrapper that records a span
(name, start, end, parent, job id) and a few work counters.  A few hot
methods of ``MatQ`` and ``SubspaceQ`` are wrapped on their classes.
``Tracer.uninstall`` puts every original back and checks that it did.

Self time of a span is its duration minus the time its child spans cover.
The wrapper's own bookkeeping (stack handling, counters, the bit-length
scan) lies outside the callee's [start, end] but inside the interval the
parent sees as child time, so it is charged to no span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections.abc import Sequence

PACKAGE = "isodec"

# Module (relative to the package) -> the layer it is reported under.
# numtheory is too small to measure on its own and folds into chars.
LAYER_OF_MODULE = {
    "cli": "cli",
    "actionfile": "actionfile",
    "fixtures": "fixtures",
    "action": "action",
    "qalgebra": "qalgebra",
    "chars": "chars",
    "numtheory": "chars",
    "abgroup": "abgroup",
    "roan": "roan",
    "ratlinalg": "ratlinalg",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

# (class name in ratlinalg, attribute, span name)
METHOD_TARGETS = (
    ("MatQ", "__matmul__", "ratlinalg.MatQ.matmul"),
    ("MatQ", "__pow__", "ratlinalg.MatQ.pow"),
    ("MatQ", "mul_vector", "ratlinalg.MatQ.mul_vector"),
    ("SubspaceQ", "__init__", "ratlinalg.SubspaceQ.init"),
    ("SubspaceQ", "contains_subspace", "ratlinalg.SubspaceQ.contains_subspace"),
)


def _public_functions(module):
    """(name, function) for the public functions a module defines itself.

    Public means not underscore-prefixed; ``__all__`` is not used because it
    omits some public functions (``abgroup.all_subgroups``).
    """
    for name, obj in list(vars(module).items()):
        # lru_cache'd functions are not plain functions but carry __wrapped__
        if name.startswith("_") or not (inspect.isfunction(obj) or hasattr(obj, "__wrapped__")):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []  # span id -> span name
        self.layer_of: list[str] = []  # span id -> layer
        self.spans: list = []  # spans of the current job, cleared per job
        self.job_id = 0
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list = []
        self._sid: dict[str, int] = {}
        # counters, over every traced job
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.errors: list[int] = []
        self.matmul_mults = 0
        self.algebra_terms = 0
        self.subspace_cells_in = 0
        self.subspace_rows_in = 0
        self.subspace_dim_out = 0
        self.max_num_bits = 0
        self.jobs = 0

    # ------------------------------------------------------------ install

    def _span_id(self, name: str, layer: str) -> int:
        sid = self._sid.get(name)
        if sid is None:
            sid = self._sid[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            for lst, zero in (
                (self.calls, 0),
                (self.self_s, 0.0),
                (self.total_s, 0.0),
                (self.errors, 0),
                (self._active, 0),
            ):
                lst.append(zero)
        return sid

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target in every package namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        ratlinalg = mods[f"{PACKAGE}.ratlinalg"]
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, layer in LAYER_OF_MODULE.items():
            module = mods[f"{PACKAGE}.{short}"]
            for fname, fn in _public_functions(module):
                sid = self._span_id(f"{short}.{fname}", layer)
                post = self._count_algebra_terms if fname == "algebra_matrix" else None
                wrappers[id(fn)] = (fn, self._wrap(sid, fn, post=post))
        for modname in sorted(mods):
            module = mods[modname]
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])
        specials = {
            "ratlinalg.MatQ.matmul": (None, self._count_matmul),
            "ratlinalg.SubspaceQ.init": (self._materialize_rows, self._count_subspace),
        }
        for cls_name, attr, span_name in METHOD_TARGETS:
            cls = getattr(ratlinalg, cls_name)
            original = cls.__dict__[attr]
            pre, post = specials.get(span_name, (None, None))
            sid = self._span_id(span_name, "ratlinalg")
            self._patch(cls, attr, original, self._wrap(sid, original, pre, post))
        self._matq = ratlinalg.MatQ
        self._subspaceq = ratlinalg.SubspaceQ

    def uninstall(self) -> None:
        """Restore every patched attribute and check that each one is back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            current = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")

    @property
    def patched(self) -> list:
        """(owner, attribute, original) for every attribute currently wrapped."""
        return list(self._patches)

    # ------------------------------------------------------------ wrapper

    def _wrap(self, sid, fn, pre=None, post=None):
        spans = self.spans
        stack = self._stack
        active = self._active
        errors = self.errors
        clock = time.perf_counter
        scan = self._scan_bits

        def wrapper(*args, **kwargs):
            outer_start = clock()
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            nested = active[sid]
            active[sid] = nested + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                errors[sid] += 1
                active[sid] = nested
                stack.pop()
                spans[idx] = (self.job_id, sid, outer_start, start, end, clock(), parent, nested)
                raise
            end = clock()
            active[sid] = nested
            stack.pop()
            if post is not None:
                post(args, kwargs, result)
            scan(result)
            spans[idx] = (self.job_id, sid, outer_start, start, end, clock(), parent, nested)
            return result

        try:
            wrapper.__name__ = fn.__name__
            wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
            wrapper.__doc__ = fn.__doc__
        except AttributeError:
            pass
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ counters

    def _scan_bits(self, value) -> None:
        """Track the largest numerator/denominator bit length in MatQ/SubspaceQ."""
        if isinstance(value, self._subspaceq):
            value = value.basis
        if isinstance(value, self._matq):
            num = value.num
            bits = value.den.bit_length()
            if num and num[0]:
                hi = max(max(r) for r in num)
                lo = min(min(r) for r in num)
                bits = max(bits, hi.bit_length(), lo.bit_length())
            if bits > self.max_num_bits:
                self.max_num_bits = bits
        elif isinstance(value, (tuple, list)) and value:
            if isinstance(value[0], (self._matq, self._subspaceq)):
                for v in value:
                    self._scan_bits(v)

    def _count_matmul(self, args, kwargs, result) -> None:
        a, b = args[0], args[1]
        self.matmul_mults += a.rows * a.cols * b.cols

    def _count_algebra_terms(self, args, kwargs, result) -> None:
        x = args[1] if len(args) > 1 else kwargs["x"]
        self.algebra_terms += sum(1 for v in x.nums if v)

    @staticmethod
    def _materialize_rows(args, kwargs):
        # SubspaceQ(ambient_dim, rows): count rows, so a one-shot iterator
        # is turned into a tuple first (the constructor iterates it once).
        if len(args) > 2 and not isinstance(args[2], Sequence):
            args = args[:2] + (tuple(args[2]),) + args[3:]
        elif "rows" in kwargs and not isinstance(kwargs["rows"], Sequence):
            kwargs = dict(kwargs, rows=tuple(kwargs["rows"]))
        return args, kwargs

    def _count_subspace(self, args, kwargs, result) -> None:
        space = args[0]
        rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
        n_rows = len(rows)
        self.subspace_rows_in += n_rows
        self.subspace_cells_in += n_rows * space.ambient_dim
        self.subspace_dim_out += space.dim
        self._scan_bits(space)

    # ------------------------------------------------------------ per job

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.spans.clear()
        self._stack.clear()

    def end_job(self, scale: float = 1.0) -> None:
        """Fold the current job's spans into the per-name totals.

        Times are multiplied by ``scale`` (the machine-speed correction of
        ``run.py``).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[6]
            if parent >= 0:
                child[parent] += span[5] - span[2]
        for i, (_, sid, _, start, end, _, _, nested) in enumerate(spans):
            self.calls[sid] += 1
            self.self_s[sid] += ((end - start) - child[i]) * scale
            if not nested:
                self.total_s[sid] += (end - start) * scale
        self.jobs += 1
        spans.clear()

    # ------------------------------------------------------------ results

    def stat(self, name: str, field: str) -> float:
        sid = self._sid.get(name)
        if sid is None:
            return 0
        return getattr(self, field)[sid]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, layer in enumerate(self.layer_of):
            out[layer] += self.self_s[sid]
        return out

    def error_count(self) -> int:
        return sum(self.errors)

    def error_detail(self) -> dict[str, int]:
        return {n: e for n, e in zip(self.names, self.errors) if e}
