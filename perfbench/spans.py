"""Spans around calls into psslab, recorded from outside the package.

A hook names a public function by module and attribute. Installing it
replaces that function object under every name a psslab module binds it
to (``cli.py`` does ``from .lp import analyze``, which is a second
binding of ``lp.analyze``), so calls through any of them are seen. Each
call records a span: hook key, optional label, phase, parent span, start,
end, and a small summary of the result. Spans stay in memory; the caller
writes them out when the run ends.

A hook whose function no longer exists is listed in ``missing`` and gets
no spans; it is never installed and never aborts the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    module: str
    name: str
    # label(bound arguments) -> suffix that splits the hook's metrics, e.g. "n400"
    label: Callable[[dict], str] | None = None
    # summary(result) -> small dict kept on the span, e.g. {"iterations": 3}
    summary: Callable[[object], dict] | None = None
    # keep the bound arguments on the span so the call can be replayed
    keep_args: bool = False

    @property
    def key(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name}"


@dataclass
class Span:
    key: str
    label: str | None
    phase: str
    parent: int
    start: float
    end: float = 0.0
    summary: dict | None = None
    args: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, hooks: tuple[Hook, ...]):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, phase: str) -> None:
        self.phase = phase
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "psslab" or name.startswith("psslab."))
        ]
        for hook in self.hooks:
            try:
                fn = getattr(importlib.import_module(hook.module), hook.name, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.missing.add(hook.key)
                continue
            wrapper = self._wrap(hook, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, hook: Hook, fn):
        signature = inspect.signature(fn) if hook.label or hook.keep_args else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span = Span(
                key=hook.key,
                label=hook.label(arguments) if hook.label else None,
                phase=self.phase,
                parent=stack[-1] if stack else -1,
                start=time.perf_counter(),
                args=dict(arguments) if hook.keep_args else None,
            )
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook.summary:
                span.summary = hook.summary(result)
            return result

        return wrapper

    def self_seconds(self, phase: str) -> dict[str, float]:
        """Span time minus the time of its direct child spans, per hook key."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        out: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            if span.phase == phase:
                out[span.key] = out.get(span.key, 0.0) + span.seconds - child[idx]
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "key": s.key,
                "label": s.label,
                "phase": s.phase,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "summary": s.summary,
            }
            for s in self.spans
        ]
