"""Spans and work counters recorded from outside the kepreg package.

Inside ``with Tracer(run_id)``, public functions and methods of kepreg
are replaced at their module or class attribute by timing wrappers.
kepreg calls across modules, and between the public functions of one
module, through those attributes, so every crossing of a layer boundary
is seen without a change to the package.  Leaving the block puts the
originals back.

Spans (id, name, start, end, parent, run id) stay in memory until
``write_spans``.  The two hot leaves of the field evaluation are called
about 10^5 times per pass, so they are aggregated into a call count and
a total time instead of one span per call; their time still counts as
child time of the span that called them.
"""

import json
import time
from collections import defaultdict, namedtuple

from kepreg import (averaging, cli, flow, manifolds, model, reconstruct,
                    shooting)

# (owner, attribute, span name, extra counters read from the result)
SPANNED = [
    (cli, "main", "cli.main", None),
    (shooting, "continue_in_epsilon", "shooting.continue_in_epsilon", None),
    (shooting, "solve", "shooting.solve", None),
    (shooting, "residual", "shooting.residual", None),
    (shooting, "residual_and_jacobian", "shooting.residual_and_jacobian",
     None),
    (shooting, "energy_band", "shooting.energy_band", None),
    (shooting, "save_orbits", "shooting.save_orbits", None),
    (flow, "integrate", "flow.integrate", lambda r: {"nfev": r.nfev}),
    (flow, "integrate_with_variational", "flow.integrate_with_variational",
     lambda r: {"nfev": r[0].nfev}),
    (flow, "monodromy", "flow.monodromy", None),
    (flow, "detect_events", "flow.detect_events", None),
    (flow, "trajectory_to_csv", "flow.trajectory_to_csv", None),
    (manifolds, "nondegeneracy_certificate",
     "manifolds.nondegeneracy_certificate", None),
    (reconstruct, "to_generalized", "reconstruct.to_generalized", None),
    (reconstruct.TimeMap, "__init__", "reconstruct.TimeMap.__init__", None),
    (reconstruct.TimeMap, "s_of", "reconstruct.TimeMap.s_of", None),
    (reconstruct, "ode_residual", "reconstruct.ode_residual", None),
    (reconstruct, "collision_side_limits",
     "reconstruct.collision_side_limits", None),
    (reconstruct, "sundman_lift", "reconstruct.sundman_lift", None),
    (reconstruct, "remove_collisions", "reconstruct.remove_collisions", None),
    (reconstruct.RemovalResult, "forcing_l1",
     "reconstruct.RemovalResult.forcing_l1", None),
    (reconstruct.RemovalResult, "residual",
     "reconstruct.RemovalResult.residual", None),
    (reconstruct, "generalized_to_csv", "reconstruct.generalized_to_csv",
     None),
    (averaging, "bifurcation_from_infinity",
     "averaging.bifurcation_from_infinity", None),
    (averaging, "solve_scaled_periodic", "averaging.solve_scaled_periodic",
     None),
    (averaging, "family_to_csv", "averaging.family_to_csv", None),
]

LEAVES = [
    (model, "reg_field", "model.reg_field"),
    (model, "reg_field_jacobian", "model.reg_field_jacobian"),
]

# start and end are perf_counter readings; s and self_s leave out the
# time the benchmark's own clock spent sampling inside the span.
Span = namedtuple("Span", "id name start end parent s self_s failed")


class Tracer:
    """Wraps the layer boundaries of kepreg inside its with block."""

    def __init__(self, run_id, paused):
        self.run_id = run_id
        self.paused = paused        # seconds spent outside kepreg so far
        self.spans = []             # Span, by id
        self.counters = defaultdict(lambda: defaultdict(int))
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self._stack = []            # [span id, child time] of open spans
        self._originals = []

    def __enter__(self):
        for owner, attr, name, extra in SPANNED:
            self._patch(owner, attr, self._span_wrapper(
                getattr(owner, attr), name, extra))
        for owner, attr, name in LEAVES:
            self._patch(owner, attr, self._leaf_wrapper(
                getattr(owner, attr), name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, extra):
        clock, paused = time.perf_counter, self.paused
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = True
            start, paused0 = clock(), paused()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                s = end - start - (paused() - paused0)
                stack.pop()
                if stack:
                    stack[-1][1] += s
                self.spans[span_id] = Span(span_id, name, start, end, parent,
                                           s, s - frame[1], failed)
            if extra is not None:
                for key, value in extra(result).items():
                    self.counters[name][key] += int(value)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        clock, paused = time.perf_counter, self.paused
        stack = self._stack

        def wrapper(*args, **kwargs):
            start, paused0 = clock(), paused()
            try:
                return fn(*args, **kwargs)
            finally:
                s = clock() - start - (paused() - paused0)
                self.leaf_calls[name] += 1
                self.leaf_s[name] += s
                if stack:
                    stack[-1][1] += s

        return wrapper

    def stats(self):
        """Per boundary: calls, total and self seconds, failures, counters."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                   "failed": 0})
        for span in self.spans:
            row = out[span.name]
            row["calls"] += 1
            row["s"] += span.s
            row["self_s"] += span.self_s
            row["failed"] += int(span.failed)
        for name, calls in self.leaf_calls.items():
            row = out[name]
            row["calls"] = calls
            row["s"] = row["self_s"] = self.leaf_s[name]
        for name, counts in self.counters.items():
            out[name].update(counts)
        return out

    def write_spans(self, path):
        """One JSON object per span, plus one per aggregated leaf."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({**span._asdict(),
                                     "run": self.run_id}) + "\n")
            for name, calls in self.leaf_calls.items():
                fh.write(json.dumps({
                    "name": name, "run": self.run_id, "calls": calls,
                    "s": self.leaf_s[name]}) + "\n")
