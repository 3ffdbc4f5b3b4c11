"""In-memory span recorder that wraps qcs functions from outside the library.

Each wrapped call records one span: name, start, end, parent span and the
operation it belongs to.  Spans live in flat arrays while the run lasts
and are written out once at the end.  A function is patched at every
module attribute that holds it, so a call is traced at the name its
caller looks up (`qcs.spin_models.entangled_state` as well as
`qcs.entangled_basis.entangled_state`).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional

NO_PARENT = -1


class Tracer:
    """Records nested spans; not thread-safe (qcs runs single-threaded here)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed: set[int] = set()
        self.attrs: dict[int, dict] = {}
        self.current_op = -1
        self.ops_started = 0
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the root span of the next operation; later spans belong to it."""
        self.current_op = self.ops_started
        self.ops_started += 1
        return self.open("op")

    def end_op(self, root: int) -> None:
        self.close(root)
        self.current_op = -1

    def innermost(self) -> int:
        return self._stack[-1]

    def wrap(self, name: str, fn: Callable, on_exit: Optional[Callable] = None) -> Callable:
        """A traced stand-in for fn; on_exit(tracer, idx, args, kwargs, result) adds attributes."""
        nid = self._intern(name)
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                self.failed.add(idx)
                raise
            end[idx] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, fn: Callable, replacement: Callable, package: str = "qcs") -> None:
        """Replace fn at every attribute of the package's modules that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, parent, op, name, start, end, failed."""
        with open(path, "w") as out:
            out.write("index\tparent\top\tname\tstart\tend\tfailed\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\t{int(i in self.failed)}\n"
                )


def self_times(
    start: Iterable[float], end: Iterable[float], parent: Iterable[int]
) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    start, end, parent = list(start), list(end), list(parent)
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = start[i]
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end[i] - start[i]) - covered)
    return out
