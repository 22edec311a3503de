"""Span tracing of qproduct from outside the package.

``Tracer.install`` wraps every public function, method and property of the
traced modules, and rebinds each wrapped function under every name the
package looks it up by (``sim`` reaches ``build_lookup_table`` through
``from .product import``, so patching ``product`` alone would miss it).
Each call made while the tracer is active records a span: name, start,
end, parent span and operation id.  Spans stay in memory and are written
once, by ``save``; self time (a span's duration minus its child spans) is
accumulated as spans close.

Left unwrapped on purpose:
  * ``circuit``, ``gf2.kron`` and ``gf2.rref``: no workload runs them on a
    hot path;
  * per-element accessors (``BitMatrix.get`` and the GF(2^m) ``mul``,
    ``inv``, ``pow_alpha``): they are called per bit, a span would cost
    more than the call, and their time is charged to the calling span.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

TRACED_MODULES = ("gf2", "classical", "quantum", "product", "decoder",
                  "analytics", "sim", "cli")
SKIP = frozenset({
    "gf2.kron", "gf2.rref", "gf2.BitMatrix.get",
    "classical.GaloisField.mul", "classical.GaloisField.inv",
    "classical.GaloisField.pow_alpha",
})
# constructors timed as spans (dataclass __init__ runs __post_init__)
SPAN_INITS = ("product.ProductCode", "decoder.BKTree")
# constructors only counted: BitMatrix is built too often to span
COUNT_INITS = {"gf2.BitMatrix": "gf2.bitmatrix_built"}
# span-name groups whose outermost entries count as one call, with the
# inclusive time of those entries
GROUPS = {
    "classical.pt": ("classical.ClassicalCode.pt", "classical.ClassicalCode.P",
                     "classical.ClassicalCode.is_systematic"),
    "product.h_c": ("product.ProductCode.h_c", "product.ProductCode.L",
                    "product.ProductCode.R"),
    "product.ProductCode.init": ("product.ProductCode.__init__",),
    "decoder.bk_index": ("decoder.BKTree.__init__",),
}


class Tracer:
    """In-memory span recorder; spans are recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self.hooks: dict[str, object] = {}
        self._stack: list[list] = []  # [span index, start, child seconds, name id]
        self._group_of: list[int] = []
        self._group_depth = [0] * len(GROUPS)
        self.group_calls = [0] * len(GROUPS)
        self.group_incl = [0.0] * len(GROUPS)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            gid = -1
            for g, members in enumerate(GROUPS.values()):
                if name in members:
                    gid = g
            self._group_of.append(gid)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.span_start)
        gid = self._group_of[nid]
        if gid >= 0:
            self._group_depth[gid] += 1
        now = perf_counter()
        self.span_name.append(nid)
        self.span_start.append(now)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        stack.append([idx, now, 0.0, nid])

    def exit(self) -> None:
        now = perf_counter()
        idx, start, child, nid = self._stack.pop()
        self.span_end[idx] = now
        dur = now - start
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += dur
        gid = self._group_of[nid]
        if gid >= 0:
            self._group_depth[gid] -= 1
            if self._group_depth[gid] == 0:
                self.group_calls[gid] += 1
                self.group_incl[gid] += dur

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- queries ----------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; zeros if never called."""
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def group(self, key: str) -> tuple[int, float, float]:
        """(outermost calls, summed self seconds, outermost inclusive seconds)."""
        g = list(GROUPS).index(key)
        selfs = sum(self.stat(n)[1] for n in GROUPS[key])
        return self.group_calls[g], selfs, self.group_incl[g]

    def save(self, path: str) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))

    # -- patching -----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                hook = tracer.hooks.get(name)
                if hook is not None:
                    hook(args, None, exc)
                raise
            tracer.exit()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, result, None)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count_init(self, key: str, init):
        tracer = self

        def counted(obj, *args, **kwargs):
            if tracer.active:
                tracer.count(key)
            init(obj, *args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the traced modules of ``package`` (the imported qproduct)."""
        modules = {m: getattr(package, m) for m in TRACED_MODULES}
        every_module = [package, *modules.values(), package.circuit]
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    self._patch_class(name, obj)
                elif inspect.isfunction(obj) and name not in SKIP:
                    replaced[id(obj)] = self._wrap(name, obj)
        # rebind wrapped functions under every name they are looked up by
        for mod in every_module:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _patch_class(self, name: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            full = f"{name}.{attr}"
            if attr == "__init__":
                if name in SPAN_INITS:
                    self._set(cls, attr, self._wrap(full, obj))
                elif name in COUNT_INITS:
                    self._set(cls, attr, self._count_init(COUNT_INITS[name], obj))
                continue
            if attr.startswith("_") or full in SKIP:
                continue
            if isinstance(obj, property):
                self._set(cls, attr, property(self._wrap(full, obj.fget),
                                              obj.fset, obj.fdel, obj.__doc__))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(full, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(full, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(full, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False
