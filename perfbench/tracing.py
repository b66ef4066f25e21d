"""Spans and call counters for the traced mode of the benchmark.

Spans are recorded by the benchmark around its own calls into palwidth's
public functions; the program itself is not instrumented. Each span keeps
its name, start, end and the index of the span that was open when it
began. They stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

_NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> contextlib.AbstractContextManager:
    """The span function of untraced rounds: records nothing."""
    return _NO_SPAN


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def totals(self, since: int = 0) -> dict[str, float]:
        """Seconds per span name, over the spans recorded from index `since` on."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans[since:]:
            out[name] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


class CallCounter:
    """Counts and times the eval/mul/inv callbacks of a search Evaluator."""

    KINDS = ("eval", "mul", "inv")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.KINDS, 0)
        self.seconds = 0.0

    def _wrap(self, kind: str, fn: Callable) -> Callable:
        def wrapped(*args):
            start = perf_counter()
            out = fn(*args)
            self.seconds += perf_counter() - start
            self.calls[kind] += 1
            return out

        return wrapped

    def wrap(self, evaluator):
        """A copy of `evaluator` whose callbacks report to this counter."""
        return dataclasses.replace(
            evaluator,
            eval=self._wrap("eval", evaluator.eval),
            mul=self._wrap("mul", evaluator.mul),
            inv=self._wrap("inv", evaluator.inv),
        )


@contextlib.contextmanager
def counting_yields(module, name: str) -> Iterator[list[int]]:
    """Swap the generator function `module.name` for one that counts what
    it yields, for the length of the block. Yields a one-element list that
    holds the count; the original is put back on exit."""
    original = getattr(module, name)
    count = [0]

    def counted(*args, **kwargs):
        for item in original(*args, **kwargs):
            count[0] += 1
            yield item

    setattr(module, name, counted)
    try:
        yield count
    finally:
        setattr(module, name, original)
