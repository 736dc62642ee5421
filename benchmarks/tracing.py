"""Span tracing installed from outside the program.

A wrapper replaces each traced function on every ``frosette`` module
attribute that holds it, because modules call each other through names
bound at import time (``frosette.sim.shortest_path`` is the object that
``sim.run`` looks up, not ``frosette.routing.shortest_path``). Methods are
replaced on their class. Nothing in the program's source changes.

Spans are kept in flat arrays (name, parent span, operation id, start,
end) and summarised or written out after the run.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every traced public function; ``cli.main`` is
# the ``frosette generate`` entry point whose self time is the JSON streaming.
TRACED = (
    ("sim", "run"),
    ("sim", "delay_oracle"),
    ("sim", "associate"),
    ("sim", "path_delay"),
    ("constellation", "build"),
    ("constellation", "Topology.adjacency"),
    ("constellation", "address_to_elements"),
    ("routing", "shortest_path"),
    ("routing", "path_hops"),
    ("routing", "fib_lookup"),
    ("routing", "build_fib"),
    ("routing", "disjoint_paths"),
    ("geocell", "locate_point"),
    ("geocell", "cell_center"),
    ("geocell", "build_alpha0_tables"),
    ("geocell", "save_tables"),
    ("georouting", "geo_route"),
    ("georouting", "coverage_check"),
    ("georouting", "serving_coord"),
    ("geom", "great_circle_range"),
    ("geom", "subpoint"),
    ("cli", "main"),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self) -> None:
        self.names = [span_name(mod, qual) for mod, qual in TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, idx: int):
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "frosette" or key.startswith("frosette."))
        ]
        for idx, (mod, qual) in enumerate(TRACED):
            owner = sys.modules[f"frosette.{mod}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, idx))
                continue
            fn = getattr(owner, qual)
            wrapper = self._wrap(fn, idx)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds.

        Spans of one thread nest, so the part of a span covered by its
        children is the sum of the direct children's durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
