"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps public module-level functions of ``qbnets``. Each wrapped
name is replaced in every ``qbnets`` module that holds a reference to the
original function, so calls made through any module's globals are seen no
matter which module imported the name. A function the package no longer
has is reported as absent instead of failing the run.

A span's self time is its duration minus the durations of the spans it
directly encloses. Totals are aggregated per span name; nested calls of
the same name count once, at the outermost call.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped as spans; every span reports ``_s`` and
# ``_self_s``. The second element of each entry says whether it also
# reports ``_calls``.
SPANS = (
    ("verify.dsep_forward_census", False),
    ("verify.canonical_separated_cases", False),
    ("verify.enumerate_dags", False),
    ("verify.check_dsep_forward", False),
    ("verify.search_dsep_witness", False),
    ("graph.d_separated", True),
    ("graph.is_polytree", False),
    ("network.amplitude_tensor", True),
    ("qinfo.net_to_density", True),
    ("qinfo.quantum_cmi", True),
    ("qinfo.partial_trace", True),
    ("qinfo.dephase", True),
    ("qinfo.von_neumann_entropy", True),
    ("qinfo.cmi_diagonal", True),
    ("sampling.random_qbnet", True),
    ("construct.density_to_qbnet", False),
    ("construct.reduce_qbnet", False),
    ("qbp.propagate_polytree", False),
    ("qbp.compute_lambda", False),
    ("qbp.compute_pi", False),
    ("qbp.rule1_lambda_to_parent", False),
    ("qbp.rule2_pi_to_child", False),
    ("amplitudes.multiply", True),
    ("bipartite.run_bipartite", False),
    ("bipartite.bipartite_iterate", False),
    ("io.qbnet_from_json", False),
    ("cli.main", False),
    ("squashed.squashed_entanglement", False),
)

# metric names that differ from the span they are read from
RENAMED = {
    "verify.dsep_forward_census_self_s": "verify.census_models_s",
    "cli.main_s": "cli.infer_s",
    "cli.main_self_s": "cli.infer_self_s",
}


def _entries(result) -> int:
    return int(result.data.size)


def _message_entries(state) -> int:
    messages = list(state.to_root.values()) + list(state.to_factor.values())
    return max((int(m.data.size) for m in messages), default=0)


# counters read from return values: span -> [(metric, how, read)]
OBSERVERS = {
    "verify.dsep_forward_census": [
        ("verify.separated_classes", "sum", lambda r: r.separated_classes),
        ("verify.models", "sum", lambda r: r.models),
    ],
    "verify.check_dsep_forward": [("verify.trials_run", "sum", lambda r: r.trials_run)],
    "verify.search_dsep_witness": [("verify.trials_run", "sum", lambda r: r.trials_run)],
    "network.amplitude_tensor": [("network.max_tensor_entries", "max", _entries)],
    "qbp.rule1_lambda_to_parent": [
        ("qbp.messages", "sum", lambda r: 1),
        ("qbp.max_message_entries", "max", lambda r: int(r.data.data.size)),
    ],
    "qbp.rule2_pi_to_child": [
        ("qbp.messages", "sum", lambda r: 1),
        ("qbp.max_message_entries", "max", lambda r: int(r.data.data.size)),
    ],
    "amplitudes.multiply": [("amplitudes.max_product_entries", "max", _entries)],
    "bipartite.bipartite_iterate": [
        ("bipartite.sweeps", "sum", lambda r: 1),
        ("bipartite.max_message_entries", "max", _message_entries),
    ],
    "squashed.squashed_entanglement": [
        ("squashed.evaluations", "sum", lambda r: r.evaluations)
    ],
}

UNITS = {"s": "s", "calls": "count"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer can report, with its unit."""
    out = []
    for span, with_calls in SPANS:
        for suffix in ("s", "self_s") + (("calls",) if with_calls else ()):
            name = f"{span}_{suffix}"
            out.append((RENAMED.get(name, name), UNITS.get(suffix, "s")))
    seen = set()
    for observers in OBSERVERS.values():
        for name, _, _ in observers:
            if name not in seen:
                seen.add(name)
                out.append((name, "count"))
    out.append(("squashed.us_per_evaluation", "us"))
    return out


class Tracer:
    """Install with ``with Tracer() as t:``, set ``t.enabled`` around the
    calls to measure, then read ``t.metrics(passes)``."""

    def __init__(self) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.enabled = False  # spans are recorded only while this is set
        self._stack: list[list] = []  # [name, child seconds]
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        observers = OBSERVERS.get(span, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            self._stack.append(frame)
            self._active[span] = self._active.get(span, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._active[span] -= 1
                if not self._active[span]:
                    self.total[span] = self.total.get(span, 0.0) + elapsed
                self.self_time[span] = self.self_time.get(span, 0.0) + elapsed - frame[1]
                self.calls[span] = self.calls.get(span, 0) + 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            for name, how, read in observers:
                value = int(read(result))
                if how == "sum":
                    self.counters[name] = self.counters.get(name, 0) + value
                else:
                    self.counters[name] = max(self.counters.get(name, 0), value)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items() if k == "qbnets" or k.startswith("qbnets.")]
        for span, _ in SPANS:
            module_name, func = span.split(".")
            home = sys.modules.get(f"qbnets.{module_name}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span times and counts; maxima are not divided."""
        out: dict[str, float] = {}
        for span, with_calls in SPANS:
            if span in self.absent:
                continue
            values = {
                "s": self.total.get(span, 0.0) / passes,
                "self_s": self.self_time.get(span, 0.0) / passes,
            }
            if with_calls:
                values["calls"] = self.calls.get(span, 0) / passes
            for suffix, value in values.items():
                name = f"{span}_{suffix}"
                out[RENAMED.get(name, name)] = value
        for span, observers in OBSERVERS.items():
            if span in self.absent:
                continue
            for name, how, _ in observers:
                value = self.counters.get(name, 0)
                out[name] = value / passes if how == "sum" else value
        if "squashed.squashed_entanglement" not in self.absent:
            evaluations = self.counters.get("squashed.evaluations", 0)
            seconds = self.total.get("squashed.squashed_entanglement", 0.0)
            out["squashed.us_per_evaluation"] = 1e6 * seconds / evaluations if evaluations else 0.0
        return out

    def absent_metrics(self) -> list[str]:
        names = [n for n, _ in metric_names()]
        present = set(self.metrics(1))
        return [n for n in names if n not in present]
