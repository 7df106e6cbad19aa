"""Layer tracing for the benchmark's traced run.

The tracer wraps plasmakit's public functions from outside the package, at
the module attribute each caller looks up (cli calls `dataset.load_run`,
`replay_stream` calls the global `process_frame`, and so on), so `src/`
carries no tracing code.  Boundary functions record a span: name, start,
end, parent span and the benchmark call it served.  Per-row functions only
add to a call count and busy time, since a span per row would cost more
than the row.  Self time is a function's time minus the time its wrapped
children took.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name, per_row).  A layer name appears more than
# once when two callers look the same function up in different modules.
WRAPPED = (
    ("cli", "main", "cli.main", False),
    ("acquisition", "replay_stream", "acquisition.replay_stream", False),
    ("acquisition", "process_frame", "acquisition.process_frame", True),
    ("acquisition", "lux_from_input", "calibration.lux_from_input", True),
    ("acquisition", "write_samples_csv", "acquisition.write_samples_csv", False),
    ("dataset", "detect_ignition", "acquisition.detect_ignition", False),
    ("dataset", "load_run", "dataset.load_run", False),
    ("dataset", "characterize", "dataset.characterize", False),
    ("dataset", "save_characterization", "dataset.save_characterization", False),
    ("dataset", "fit_log_cubic", "calibration.fit_log_cubic", False),
    ("dataset", "fit_residuals", "calibration.fit_residuals", False),
    ("dataset", "trim_refit", "calibration.trim_refit", False),
    ("calibration", "fit_log_cubic", "calibration.fit_log_cubic", False),
    ("calibration", "fit_residuals", "calibration.fit_residuals", False),
    ("calibration", "lux_from_input", "calibration.lux_from_input", True),
    ("svgchart", "render_chart", "svgchart.render_chart", False),
    ("probe", "bode_sweep", "probe.bode_sweep", False),
    ("probe", "transfer_function", "probe.transfer_function", False),
    ("probe", "frequency_response", "probe.frequency_response", True),
    ("probe", "write_sweep_csv", "probe.write_sweep_csv", False),
)

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move).  Values are per benchmark call of the traced phase, except
# the ratios and probe.sweeps_failed (distinct ladders of the corpus).
LAYER_METRICS = (
    ("cli.main.self_s", "s", "lower", "call_p50_s on characterize_shots"),
    ("acquisition.replay_stream.self_s", "s", "lower", "items_per_s on replay_session"),
    ("acquisition.process_frame.calls", "count", "lower", "items_per_s on replay_session"),
    ("acquisition.process_frame.busy_s", "s", "lower", "items_per_s on replay_session"),
    ("acquisition.write_samples_csv.busy_s", "s", "lower", "items_per_s on replay_session"),
    ("acquisition.write_samples_csv.bytes", "bytes", "lower", "items_per_s on replay_session"),
    ("acquisition.rows_rejected", "count", "lower", "fail_frac on replay_session"),
    ("acquisition.detect_ignition.busy_s", "s", "lower", "call_p50_s on characterize_shots"),
    ("calibration.lux_from_input.calls", "count", "lower", "items_per_s on replay_session"),
    ("calibration.lux_from_input.busy_s", "s", "lower", "items_per_s on replay_session"),
    ("calibration.fit_log_cubic.calls", "count", "lower", "call_p50_s on characterize_shots"),
    ("calibration.fit_log_cubic.busy_s", "s", "lower", "call_p50_s on characterize_shots"),
    ("calibration.fit_residuals.busy_s", "s", "lower", "call_p50_s on characterize_shots"),
    ("calibration.trim_refit.self_s", "s", "lower", "call_p50_s on characterize_shots"),
    ("calibration.trim_kept_ratio", "ratio", "higher", "none: shows the trim did real work"),
    ("dataset.load_run.busy_s", "s", "lower", "items_per_s on characterize_shots"),
    ("dataset.load_run.rows", "count", "higher", "items_per_s on characterize_shots"),
    ("dataset.characterize.self_s", "s", "lower", "items_per_s on characterize_shots"),
    ("dataset.save_characterization.busy_s", "s", "lower", "items_per_s on characterize_shots"),
    ("svgchart.render_chart.busy_s", "s", "lower", "call_p90_s on characterize_shots"),
    ("svgchart.render_chart.bytes", "bytes", "lower", "call_p90_s on characterize_shots"),
    ("svgchart.render_chart.points", "count", "lower", "call_p90_s on characterize_shots"),
    ("probe.transfer_function.calls", "count", "lower", "call_p90_s on probe_sweep"),
    ("probe.transfer_function.busy_s", "s", "lower", "call_p90_s on probe_sweep"),
    ("probe.frequency_response.calls", "count", "lower", "items_per_s on probe_sweep"),
    ("probe.frequency_response.busy_s", "s", "lower", "items_per_s on probe_sweep"),
    ("probe.bode_sweep.self_s", "s", "lower", "items_per_s on probe_sweep"),
    ("probe.write_sweep_csv.busy_s", "s", "lower", "items_per_s on probe_sweep"),
    ("probe.write_sweep_csv.bytes", "bytes", "lower", "items_per_s on probe_sweep"),
    ("probe.sweeps_failed", "count", "lower", "fail_frac on probe_sweep"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced against untraced items_per_s"),
)


def _written_bytes(args, kwargs):
    # Every caller in the benchmark passes a freshly opened file.
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    return out.tell()


# Counters taken from an outermost call's arguments and result.
_COUNTERS = {
    "acquisition.replay_stream": lambda a, kw, r: {
        "acquisition.rows_rejected": len(kw.get("diagnostics") or ())},
    "acquisition.write_samples_csv": lambda a, kw, r: {
        "acquisition.write_samples_csv.bytes": _written_bytes(a, kw)},
    "probe.write_sweep_csv": lambda a, kw, r: {
        "probe.write_sweep_csv.bytes": _written_bytes(a, kw)},
    "dataset.load_run": lambda a, kw, r: {"dataset.load_run.rows": len(r.samples)},
    "calibration.trim_refit": lambda a, kw, r: {
        "calibration.trim_refit.kept": len(r[1]), "calibration.trim_refit.usable": len(a[0])},
    "svgchart.render_chart": lambda a, kw, r: {
        "svgchart.render_chart.bytes": len(r.encode()),
        "svgchart.render_chart.points": sum(len(s.x) for s in a[0])},
}


class Tracer:
    """Spans, per-function totals and counters of one traced process."""

    def __init__(self):
        self.request = None          # benchmark call the spans belong to
        self.spans = []              # (id, parent id, request, name, start, end)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []             # open frames: [span id or None, child seconds]
        self._depth = defaultdict(int)

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED attribute present in `modules` (name -> module)."""
        for mod_name, attr, layer, per_row in WRAPPED:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrap = self._per_row if per_row else self._span
            setattr(module, attr, wrap(layer, fn))

    def _per_row(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_s[name] += dt - frame[1]

        return wrapper

    def _span(self, name, fn):
        counters = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            span_id = len(self.spans)
            self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            outer = self._depth[name] == 0
            self._depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[name] -= 1
                stack.pop()
                dt = end - start
                if stack:
                    stack[-1][1] += dt
                self.spans[span_id] = (span_id, parent, self.request, name, start, end)
                self.self_s[name] += dt - frame[1]
                if outer:   # a recursive call's time is already in its caller's
                    self.calls[name] += 1
                    self.busy[name] += dt
            if outer and counters:
                for key, value in counters(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def totals(self) -> dict:
        """Everything the layer metrics are derived from, as plain numbers."""
        out = dict(self.counters)
        for name in self.calls.keys() | self.self_s.keys():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "call": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(totals: dict, calls: int, sweeps_failed: int,
                  overhead_frac: float, scale: float) -> dict:
    """Per-layer metric values from a traced phase of `calls` benchmark calls;
    times in seconds are multiplied by the host speed `scale`."""
    special = {
        "calibration.trim_kept_ratio":
            totals.get("calibration.trim_refit.kept", 0.0)
            / (totals.get("calibration.trim_refit.usable", 0.0) or 1.0),
        "probe.sweeps_failed": sweeps_failed,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit, _better, _moves in LAYER_METRICS:
        value = special[name] if name in special else totals.get(name, 0.0) / calls
        if unit == "s":
            value *= scale
        out[name] = {"value": value, "unit": unit}
    return out
