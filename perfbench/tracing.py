"""Span tracing from outside the program.

:class:`Tracer` wraps *bound methods of the run's own objects* (an instance
attribute shadows the class method), never classes or source, so an untraced
run is exactly the program as shipped.  Each call into a wrapped entry point
records one span: name, start, end, parent span, the drive it ran under and
a tag (the ticket sequence for a client submit, the service tick for a
drive, which tickets name as their resolving tick).  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter

#: ``(span name, attribute path from the loop, method)`` for every layer
#: boundary the traced run times.  Missing objects (an open-loop-only or
#: CSM-only layer) are skipped.
ENTRY_POINTS = (
    ("service.drive", "service", "drive"),
    ("service.plan", "service.scheduler", "plan"),
    ("faults.run", "service.fault_injector", "run"),
    ("backend.run_rounds_batched", "backend", "run_rounds_batched"),
    ("consensus.decide_rounds", "backend.consensus", "decide_rounds"),
    ("net.sign", "backend.network.keys", "sign"),
    ("net.sign_batch", "backend.network.keys", "sign_batch"),
    ("net.verify", "backend.network.keys", "verify"),
    ("net.verify_batch", "backend.network.keys", "verify_batch"),
    ("execution.execute_rounds", "backend.engine", "execute_rounds"),
    ("execution.execute_rounds_pipelined", "backend.engine", "execute_rounds_pipelined"),
    ("lcc.encode_batch", "backend.engine.encoder", "encode_batch"),
    ("lcc.decode_fast", "backend.engine.decoder", "decode_fast"),
    ("lcc.decode_batch", "backend.engine.decoder", "decode_batch"),
    ("intermix.encode", "backend.delegation", "encode_vectors_verified"),
    ("intermix.decode", "backend.delegation", "decode_results_verified_fast"),
    ("intermix.update", "backend.delegation", "update_coded_states_verified"),
    ("machine.step_batch", "backend.machine", "step_batch"),
    ("gf.matmul", "backend.machine.field", "matmul"),
)


def _resolve(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Records nested spans around wrapped bound methods."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, drive id, tag]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._drive: int | None = None
        self._installed: list[tuple[object, str, object]] = []
        self._clock = None

    def install(self, loop) -> None:
        self._clock = loop.service.clock
        for name, path, method in ENTRY_POINTS:
            target = _resolve(loop, path)
            if target is not None and hasattr(target, method):
                self._wrap(target, method, name)
        for session in loop.sessions:
            self._wrap(session, "submit", "client.submit")

    def uninstall(self) -> None:
        for obj, method, previous in reversed(self._installed):
            if previous is None:
                delattr(obj, method)
            else:
                setattr(obj, method, previous)
        self._installed.clear()

    def _wrap(self, obj, method: str, name: str) -> None:
        original = getattr(obj, method)
        spans, stack = self.spans, self._stack
        is_drive = name == "service.drive"
        is_submit = name == "client.submit"

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            span = [name, clock(), None, parent, self._drive, None]
            spans.append(span)
            if is_drive:
                self._drive = index
                span[4] = index
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_drive:
                    self._drive = None
            if is_submit:
                span[5] = result.sequence
            elif is_drive:
                span[5] = self._clock.now
            return result

        self._installed.append((obj, method, vars(obj).get(method)))
        setattr(obj, method, traced)

    # -- analysis ----------------------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per name: total duration, total self time, and call count.

        A span's self time is its duration minus the time its direct
        children cover (children never overlap: the program is single
        threaded).
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        duration: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            duration[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return duration, self_time, calls

    def outermost(self, names: set[str]) -> float:
        """Total time of spans in ``names`` not nested in another of them."""
        total = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if name not in names:
                continue
            while parent is not None and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
        return total

    def write(self, path: Path, tickets: list[dict]) -> None:
        """Dump spans (one JSON array per line) and the ticket table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for ticket in tickets:
                out.write(json.dumps(ticket) + "\n")
