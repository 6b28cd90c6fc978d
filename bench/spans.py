"""In-memory spans around the public functions of each hdx layer.

The tracer wraps functions from outside the package: every loaded ``hdx.*``
module that holds the wrapped object gets the wrapper (``cli``, ``suites`` and
the package root import names directly), methods are patched on their class,
and ``suites.SUITES`` entries are replaced in place.  ``uninstall`` puts every
original back.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# layer -> public functions ("Class.method" for methods); the suites layer is
# filled from hdx.suites.SUITES when the tracer is installed.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("cmd_generate", "cmd_analyze", "cmd_delta1", "cmd_correct", "cmd_verify"),
    "reporting": ("dumps_report",),
    "complexes": (
        "SimplicialComplex.from_text",
        "SimplicialComplex.link",
        "SimplicialComplex.to_text",
    ),
    "spectral": (
        "underlying_graph",
        "second_eigenvalue",
        "local_spectral_lambda",
        "cheeger_quantities",
    ),
    "expansion": (
        "delta1",
        "delta_i",
        "thin_hierarchy",
        "classify_non_local",
        "classify_weakly_non_local",
        "check_delta1_theorem_abelian",
    ),
    "cochains": ("cochain_from_text", "coboundary_abelian", "coboundary_nonabelian_1"),
    "correction": (
        "one_step_abelian",
        "one_step_nonabelian",
        "correct_abelian",
        "correct_nonabelian",
        "cosystolic_certificate",
    ),
    "oracle": (
        "cosystolic_expansion_constants",
        "coboundary_expansion_constant",
        "enumerate_spaces",
        "min_nontrivial_cocycle_weight",
        "link_coboundary_beta",
    ),
    "suites": (),
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "error")

    def __init__(self, sid, parent, op, name, start, end, error):
        self.id, self.parent, self.op, self.name = sid, parent, op, name
        self.start, self.end, self.error = start, end, error

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call into a wrapped function, plus layer counters."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []
        self._links_seen = weakref.WeakKeyDictionary()
        self.origin = perf_counter()

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(sid, parent, tracer.op, name, start, end, error))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hdx" or modname.startswith("hdx.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def install(self) -> None:
        import hdx.cli  # noqa: F401  (loads every layer the CLI reaches)
        import hdx.suites as suites

        hooks = self._hooks()
        for layer, names in LAYERS.items():
            module = sys.modules[f"hdx.{layer}"]
            for name in names:
                before, after = hooks.get(name, (None, None))
                span_name = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span_name, raw.__func__, before, after))
                    else:
                        wrapped = self._wrap(span_name, raw, before, after)
                    setattr(cls, meth, wrapped)
                    self._undo.append(functools.partial(setattr, cls, meth, raw))
                    continue
                original = getattr(module, name)
                self._rebind_everywhere(original, self._wrap(span_name, original, before, after))
        for key, original in list(suites.SUITES.items()):
            wrapper = self._wrap(f"suites.{original.__name__}", original)
            suites.SUITES[key] = wrapper
            self._undo.append(functools.partial(suites.SUITES.__setitem__, key, original))
            self._rebind_everywhere(original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- counters --------------------------------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable], Optional[Callable]]]:
        counters = self.counters

        def link_before(args, kwargs):
            complex_, sigma = args[0], tuple(_arg(args, kwargs, 1, "sigma"))
            seen = self._links_seen.setdefault(complex_, set())
            counters["complexes.link.calls"] += 1
            if sigma in seen:
                counters["complexes.link.repeats"] += 1
            seen.add(sigma)

        def step_after(args, kwargs, result):
            counters["correction.steps"] += 1

        def coboundary_constant_after(args, kwargs, result):
            X, G, k = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "G"), _arg(args, kwargs, 2, "k")
            counters["oracle.nominal_states"] += G.order ** len(X.faces(k))

        def cosystolic_after(args, kwargs, result):
            X, G = _arg(args, kwargs, 0, "X"), _arg(args, kwargs, 1, "G")
            for k, entry in result.per_dim.items():
                if entry.get("skipped") is None:
                    counters["oracle.nominal_states"] += G.order ** len(X.faces(k))

        return {
            "SimplicialComplex.link": (link_before, None),
            "one_step_abelian": (None, step_after),
            "one_step_nonabelian": (None, step_after),
            "coboundary_expansion_constant": (None, coboundary_constant_after),
            "cosystolic_expansion_constants": (None, cosystolic_after),
        }

    # -- summaries ------------------------------------------------------------------

    def self_seconds(self) -> List[Tuple[Span, float]]:
        """Each span with its self time: its duration minus its children's."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [(span, span.duration - child_time[span.id]) for span in self.spans]

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_s (total duration), self_s and errors."""
        table: Dict[str, Dict[str, float]] = {}
        for span, self_s in self.self_seconds():
            row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += self_s
            row["errors"] += span.error is not None
        return table

    def layer_seconds_by_op(self) -> Dict[int, Dict[str, float]]:
        """op id -> layer -> self seconds."""
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, self_s in self.self_seconds():
            out[span.op][span.name.split(".")[0]] += self_s
        return out

    def root_seconds(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def refusals(self) -> Tuple[int, int]:
        """(oracle spans left by BudgetExceededError, oracle spans)."""
        oracle = [s for s in self.spans if s.name.startswith("oracle.")]
        return sum(s.error == "BudgetExceededError" for s in oracle), len(oracle)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "op": s.op,
                            "name": s.name,
                            "start_s": round(s.start - self.origin, 9),
                            "end_s": round(s.end - self.origin, 9),
                            "error": s.error,
                        }
                    )
                    + "\n"
                )
