"""In-process tracing for the benchmark's traced run.

The library is not edited: ``instrument`` replaces module attributes of
corr_radiance with wrappers for the duration of a ``with`` block and restores
them afterwards.  Each wrapper records a span (name, start, end, parent) in
memory; all spans of one pass share the pass id.

Functions called once per grid cell are *hot*: recording a span per call would
cost more than the call, so a hot wrapper adds its call to one aggregate span
per (parent span, name) that keeps the call count and the busy time.  Hot
wrappers must wrap leaves, i.e. functions that call no other timed wrapper.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from collections.abc import Callable, Iterator

perf_counter = time.perf_counter


class _Frame:
    __slots__ = ("id", "name", "start", "child", "aggregates")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child = 0.0  # time covered by child spans
        self.aggregates: dict[str, list] = {}  # hot name -> [calls, busy, first start, last end]


class Tracer:
    """Spans and counts of traced passes, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._cells: dict[str, list[int]] = {}  # call counters of ``counted`` wrappers
        self.pass_id = 0
        self._stack: list[_Frame] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, **detail) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        span = {
            "pass": self.pass_id,
            "id": frame.id,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "parent": parent.id if parent else None,
            "self_s": duration - frame.child,
        }
        span.update(detail)
        self.spans.append(span)
        for name, (calls, busy, first, last) in frame.aggregates.items():
            self._next_id += 1
            self.spans.append({
                "pass": self.pass_id,
                "id": self._next_id,
                "name": name,
                "start": first,
                "end": last,
                "parent": frame.id,
                "self_s": busy,
                "calls": calls,
            })

    @contextlib.contextmanager
    def span(self, name: str, **detail) -> Iterator[None]:
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, **detail)

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counts = Counter()
        self._cells = {}

    def pass_counts(self) -> Counter:
        """Counts of the current pass, ``counted`` wrappers included."""
        return self.counts + Counter({name: cell[0] for name, cell in self._cells.items()})

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap ``fn`` in a span; ``observe(result)`` updates counts after the span."""

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def hot(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Wrap a leaf ``fn`` called many times in an aggregate span under its caller."""

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                parent = self._stack[-1]
                parent.child += end - start
                agg = parent.aggregates.get(name)
                if agg is None:
                    parent.aggregates[name] = [1, end - start, start, end]
                else:
                    agg[0] += 1
                    agg[1] += end - start
                    agg[3] = end
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls without timing them."""
        # a bare list cell keeps the per-call cost low for functions called millions of times
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, Callable[[Callable], object]]]) -> Iterator[None]:
    """Set ``module.attr = make(original)`` for each entry, restoring on exit."""
    saved = []
    try:
        for module, attr, make in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


CLI_COMMANDS = ("cmd_fig2", "cmd_fig3", "cmd_fig4", "cmd_fig5", "cmd_transition", "cmd_verify")
KERNEL = ("emission.intensity_closed_x", "emission.g2_closed_werner", "emission.classify")
ORACLES = ("emission.intensity_oracle", "emission.g2_oracle")


def instrument(tracer: Tracer, cli, correlations, qstate, verify) -> list:
    """Replacements for ``patched`` that trace every layer the CLI reaches.

    Functions are wrapped where their callers look them up: the ``cli`` and
    ``verify`` modules bind their own names at import, so their bindings are
    wrapped, while ``discord_werner_closed`` is counted through the
    ``correlations`` global that the discord_to_c bisection calls.
    """
    def rows(result):
        table = result[0] if isinstance(result, tuple) else result
        tracer.counts["cli.rows"] += len(table.rows)

    def rendered(text):
        tracer.counts["cli.render_bytes"] += len(text.encode("utf-8"))

    def g2(value):
        tracer.counts["emission.g2_undefined"] += value is None

    def discord(result):
        tracer.counts["correlations.discord_numeric.evals"] += result.iterations
        tracer.counts["correlations.discord_numeric.unconverged"] += not result.converged

    def timed(name, observe=None):
        return lambda fn: tracer.timed(name, fn, observe)

    def hot(name, observe=None):
        return lambda fn: tracer.hot(name, fn, observe)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    def suites(original):
        return tuple(tracer.timed("verify." + s.__name__, s) for s in original)

    return [
        *[(cli, name, timed("cli." + name, rows)) for name in CLI_COMMANDS],
        (cli, "render_csv", timed("cli.render_csv", rendered)),
        (cli, "render_json", timed("cli.render_json", rendered)),
        (cli, "_emit", timed("cli._emit")),
        (cli, "discord_to_c", hot("correlations.discord_to_c")),
        (verify, "discord_to_c", hot("correlations.discord_to_c")),
        (correlations, "discord_werner_closed", counted("correlations.discord_werner_closed.calls")),
        (verify, "discord_numeric", timed("correlations.discord_numeric", discord)),
        (cli, "intensity_closed_x", hot("emission.intensity_closed_x")),
        (cli, "g2_closed_werner", hot("emission.g2_closed_werner", g2)),
        (cli, "classify", hot("emission.classify")),
        (cli, "find_statistics_transition", timed("emission.find_statistics_transition")),
        (verify, "intensity_oracle", hot("emission.intensity_oracle")),
        (verify, "g2_oracle", hot("emission.g2_oracle")),
        (qstate, "validate_density", hot("qstate.validate_density")),
        (verify, "validate_density", hot("qstate.validate_density")),
        (qstate, "make_x_state", counted("qstate.make_x_state.calls")),
        (verify, "make_x_state", counted("qstate.make_x_state.calls")),
        (verify, "ALL_SUITES", suites),
    ]


LAYERS = ("cli", "correlations", "emission", "qstate", "verify")
COUNTS = (
    "cli.render_bytes",
    "cli.rows",
    "correlations.discord_werner_closed.calls",
    "correlations.discord_numeric.evals",
    "correlations.discord_numeric.unconverged",
    "emission.g2_undefined",
    "qstate.make_x_state.calls",
)


def layer_metrics(spans: list[dict], counts: Counter, suite_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counts.

    ``<name>_s`` is the time inside the named functions, children included;
    ``<layer>.self_s`` is the time spent in a layer's own code, i.e. its spans
    minus the parts of them that child spans cover.
    """
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    self_time: Counter = Counter()
    for span in spans:
        name = span["name"]
        inclusive[name] += span["self_s"] if "calls" in span else span["end"] - span["start"]
        calls[name] += span.get("calls", 1)
        self_time[name] += span["self_s"]

    def total(counter, names):
        return float(sum(counter[n] for n in names))

    commands = ["cli." + c for c in CLI_COMMANDS]
    metrics = {f"{layer}.self_s": total(self_time, [n for n in self_time if n.startswith(layer + ".")])
               for layer in LAYERS}
    metrics.update({
        "cli.sweep_self_s": total(self_time, commands),
        "cli.render_csv_s": inclusive["cli.render_csv"],
        "cli.render_json_s": inclusive["cli.render_json"],
        "cli.write_s": inclusive["cli._emit"],
        "correlations.discord_to_c_s": inclusive["correlations.discord_to_c"],
        "correlations.discord_to_c.calls": calls["correlations.discord_to_c"],
        "correlations.discord_numeric_s": inclusive["correlations.discord_numeric"],
        "correlations.discord_numeric.calls": calls["correlations.discord_numeric"],
        "emission.kernel_s": total(inclusive, KERNEL),
        "emission.kernel.calls": total(calls, KERNEL),
        "emission.transition_s": inclusive["emission.find_statistics_transition"],
        "emission.transition.calls": calls["emission.find_statistics_transition"],
        "emission.oracle_s": total(inclusive, ORACLES),
        "emission.oracle.calls": total(calls, ORACLES),
        "qstate.validate_density_s": inclusive["qstate.validate_density"],
        "qstate.validate_density.calls": calls["qstate.validate_density"],
    })
    metrics.update({name: counts[name] for name in COUNTS})
    for suite in suite_names:
        metrics[f"verify.{suite.removeprefix('suite_')}_s"] = inclusive["verify." + suite]
    return {name: float(value) for name, value in metrics.items()}
