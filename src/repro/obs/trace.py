"""Dependency-free structured tracing: hierarchical spans over the sweep stack.

A :class:`Span` measures one named region of work (``perf_counter`` based)
and carries free-form attributes — job hash, method, substrate, arch. Spans
nest: the sweep runner opens a ``sweep`` span, each executed job runs under a
``job`` span, the job kernel opens ``stage:*`` spans (quant / lift / hw /
eval), the engine opens ``engine`` + per-layer spans, and the block kernel a
``kernel:*`` span — so one sweep yields one tree answering *where the time
went*.

Tracing is **opt-out cheap**: the module-level :func:`trace` entry point
returns a shared no-op context manager when no tracer is installed, so the
instrumentation left in the hot paths costs one global read and one function
call per site. Enable with :func:`enable_tracing` (or the ``REPRO_TRACE``
environment variable, which worker processes inherit — that is how a
``--executor process`` sweep produces one coherent trace: each worker
captures a detached span tree per job and ships it back on the
:class:`~repro.pipeline.executor.JobOutcome` wire format).

Threading: every thread has its own span stack (``threading.local``), so a
span's parent is always the calling thread's innermost open span, and
concurrent ``repro-serve`` submissions nest without locks on the hot path.
A finished span appends itself to its parent through :meth:`Span.add_child`,
under the parent's lock, so callers may graft serialized trees in from any
thread.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "NULL_SPAN",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "env_enabled",
    "set_tracer",
    "span_seconds",
    "span_self_seconds",
    "trace",
    "traced",
    "tracing_enabled",
    "walk_spans",
]

TRACE_ENV = "REPRO_TRACE"

_TRUTHY = ("1", "true", "yes", "on")


def env_enabled(default: bool = False) -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (unset → ``default``)."""
    raw = os.environ.get(TRACE_ENV)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


class _NullSpan:
    """The shared disabled-mode span: every operation is a no-op.

    A single module-level instance is returned by :func:`trace` when tracing
    is off, so disabled instrumentation allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> _NullSpan:
        return self

    @property
    def seconds(self) -> float:
        return 0.0

    def to_dict(self) -> None:  # a null span serializes to nothing
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed region of work; also its own context manager.

    Children accumulate as nested spans *finish* (each appends itself to its
    parent on ``__exit__``). ``to_dict`` serializes the finished tree into
    plain JSON primitives — the run-ledger / wire form; already-serialized
    dict children (e.g. spans shipped back from worker processes) may be
    grafted in via :meth:`add_child` and pass through untouched.
    """

    __slots__ = (
        "name", "attrs", "start", "end", "children", "tracer", "_parent",
        "_detached", "_lock",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
        detached: bool = False,
    ):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.children: List[Union[Span, Dict[str, Any]]] = []
        self.tracer = tracer
        self._parent: Optional[Span] = None
        self._detached = detached
        self._lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    # Lifecycle fields (start/end/_parent) are written only by the owning
    # thread; the lock exists solely for `children` appends (add_child).
    def __enter__(self) -> Span:  # repro-lint: ignore[lock-unguarded-write]
        self.start = time.perf_counter()
        if self.tracer is not None:
            if not self._detached:
                self._parent = self.tracer.current()
            self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:  # repro-lint: ignore[lock-unguarded-write]
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self.tracer is not None:
            self.tracer._pop(self)
            if self._parent is not None:
                self._parent.add_child(self)
            elif not self._detached:
                self.tracer._add_root(self)
        return False

    def set(self, **attrs) -> Span:
        """Attach (or update) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def add_child(self, child: Union[Span, Dict[str, Any]]) -> None:
        """Append a finished child span (or an already-serialized tree)."""
        with self._lock:
            self.children.append(child)

    # ------------------------------------------------------------ reporting
    @property
    def seconds(self) -> float:
        """Total wall seconds (0.0 while unfinished)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Total minus the time attributed to (finished) children."""
        return max(0.0, self.seconds - sum(_child_seconds(c) for c in self.children))

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-able tree: ``{name, attrs, seconds, children}``."""
        return {
            "name": self.name,
            "attrs": {k: v for k, v in self.attrs.items() if _jsonable(v)},
            "seconds": round(self.seconds, 6),
            "children": [
                c if isinstance(c, dict) else c.to_dict() for c in self.children
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.seconds * 1e3:.2f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


def _child_seconds(child: Union[Span, Dict[str, Any]]) -> float:
    if isinstance(child, dict):
        return float(child.get("seconds", 0.0))
    return child.seconds


def _jsonable(v: Any) -> bool:
    return isinstance(v, (str, int, float, bool)) or v is None


def span_seconds(tree: Optional[Dict[str, Any]]) -> float:
    """Total seconds of a serialized span tree (0.0 for ``None``)."""
    return float((tree or {}).get("seconds", 0.0))


def span_self_seconds(tree: Dict[str, Any]) -> float:
    """Self time of one serialized node: total minus its children's totals."""
    total = float(tree.get("seconds", 0.0))
    return max(0.0, total - sum(span_seconds(c) for c in tree.get("children", ())))


def walk_spans(tree: Optional[Dict[str, Any]], depth: int = 0):
    """Yield ``(node, depth)`` over a serialized span tree, pre-order."""
    if not tree:
        return
    yield tree, depth
    for child in tree.get("children", ()):
        yield from walk_spans(child, depth + 1)


class Tracer:
    """Collects spans for one process; thread-safe, per-thread span stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []

    # ------------------------------------------------------- span plumbing
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the *calling thread* (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def _add_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)

    # --------------------------------------------------------------- public
    def span(self, name: str, **attrs) -> Span:
        """A new span, parented to the calling thread's current one."""
        return Span(name, attrs, tracer=self)

    def capture(self, name: str, **attrs) -> Span:
        """A *detached* root span: collected by the caller, never added to
        :attr:`roots`. This is the executor's per-job capture — the finished
        tree rides back on the :class:`JobOutcome` instead of accumulating in
        whatever process happened to run the job."""
        return Span(name, attrs, tracer=self, detached=True)


# ------------------------------------------------------- module-level state

_TRACER: Optional[Tracer] = None
_STATE_LOCK = threading.Lock()


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER is not None


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, remove) the process tracer; returns the
    previous one so callers can restore it."""
    global _TRACER
    with _STATE_LOCK:
        previous, _TRACER = _TRACER, tracer
    return previous


def enable_tracing() -> Tracer:
    """Install a fresh :class:`Tracer` (idempotent: reuses a live one)."""
    global _TRACER
    with _STATE_LOCK:
        if _TRACER is None:
            _TRACER = Tracer()
        return _TRACER


def disable_tracing() -> None:
    set_tracer(None)


def trace(name: str, **attrs) -> Union[Span, _NullSpan]:
    """The one instrumentation entry point: ``with trace("engine", m="gptq"):``.

    Returns the shared no-op span when tracing is disabled — one global read
    per call site, nothing allocated — or a live :class:`Span` parented to
    the calling thread's current span.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return Span(name, attrs, tracer=tracer)


def traced(name_or_fn=None, **attrs):
    """Decorator form of :func:`trace`: ``@traced`` or ``@traced("name", k=v)``.

    The span name defaults to the function's qualified name.
    """

    def decorate(fn: Callable, name: Optional[str] = None) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name_or_fn):
        return decorate(name_or_fn)
    return lambda fn: decorate(fn, name_or_fn)


# A process whose environment asks for tracing starts traced — this is what
# lets spawned (non-fork) pool workers join a traced sweep: the runner
# exports REPRO_TRACE before building the pool and each worker's import of
# this module picks it up.
if env_enabled():
    enable_tracing()
