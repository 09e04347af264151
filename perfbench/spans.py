"""Span tracing around rabosim's public functions, from outside the package.

``Tracer.installed()`` replaces each traced name with a timing wrapper and
puts the originals back on exit. Modules import each other's functions by
name, so a function is patched where its caller looks it up (for example
``rabosim.federation.exact_hypergradient``); problem callbacks and
``RngStream.generator`` are patched on their classes. The wrappers only
time and forward the call, so traced artifacts stay byte-identical.

Spans nest through a stack (runs use one worker thread, so one stack is
enough). On close a span adds its duration to its parent, which gives each
name its self time. A span whose parent has the same name (an oracle that
calls another oracle) is left out of that name's totals, so calls and time
count only the outermost call of each name. Spans opened inside a round
are also totalled apart, so per-round figures leave out problem builds
and other work outside the round loop.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

ROUND = "federation.rabo_round"


def targets(cli, federation, hypergrad, masking, quadratic, logistic, rng):
    """(span name, owner, attribute) for every traced lookup site."""
    problem_classes = (quadratic.QuadraticProblem, logistic.LogisticTuneProblem)
    sites = [
        ("cli.resolve_config", cli, "resolve_config"),
        ("cli.build_problem", cli, "build_problem"),
        ("cli.run_experiment", cli, "run_experiment"),
        ("federation.run", cli, "run"),
        ("federation.rabo_round", federation, "rabo_round"),
        ("federation.client_inner_loop", federation, "client_inner_loop"),
        ("federation.aggregate", federation, "aggregate_inner"),
        ("federation.aggregate", federation, "aggregate_outer"),
        ("masking.generate_mask", federation, "generate_mask"),
        ("masking.coverage", federation, "coverage"),
        ("masking.apply_mask", federation, "apply_mask"),
        ("masking.apply_mask", hypergrad, "apply_mask"),
        ("masking.apply_mask", masking, "apply_mask"),
        ("hypergrad.exact_hypergradient", federation, "exact_hypergradient"),
        ("hypergrad.rafbo_hypergradient", federation, "rafbo_hypergradient"),
        ("hypergrad.jacobian_column_fd", hypergrad, "jacobian_column_fd"),
        ("linalg.solve_spd", hypergrad, "solve_spd"),
        ("linalg.solve_spd", quadratic, "solve_spd"),
        ("rng.generator", rng.RngStream, "generator"),
    ]
    for cls in problem_classes:
        sites += [("problems.grad_g_y", cls, "grad_g_y"),
                  ("problems.grad_f", cls, "grad_f_x"),
                  ("problems.grad_f", cls, "grad_f_y"),
                  ("problems.hess_yy_g", cls, "hess_yy_g")]
    sites += [("problems.oracle", quadratic.QuadraticProblem, attr)
              for attr in ("y_star", "jac_y_star", "grad_phi", "phi")]
    return sites


class Tracer:
    """Per-name call count, total and self time of the traced spans."""

    def __init__(self, sites):
        self.sites = sites
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.in_round: dict[str, list] = {}  # the same, for spans in a round
        self._stack: list[list] = []        # open spans: [name, child_s]

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            in_round = any(span[0] == ROUND for span in stack)
            span = [name, 0.0]
            stack.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += took
                if parent is None or parent[0] != name:
                    for table in (self.stats, self.in_round) if in_round \
                            else (self.stats,):
                        entry = table.setdefault(name, [0, 0.0, 0.0])
                        entry[0] += 1
                        entry[1] += took
                        entry[2] += took - span[1]

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, vars(owner)[attr])
                 for _, owner, attr in self.sites]
        try:
            for name, owner, attr in self.sites:
                setattr(owner, attr, self._wrap(name, vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def calls(self, name: str, in_round: bool = False) -> int:
        return self._entry(name, in_round)[0]

    def total_s(self, name: str, in_round: bool = False) -> float:
        return self._entry(name, in_round)[1]

    def self_s(self, name: str) -> float:
        return self._entry(name, False)[2]

    def _entry(self, name: str, in_round: bool) -> list:
        table = self.in_round if in_round else self.stats
        return table.get(name, [0, 0.0, 0.0])
