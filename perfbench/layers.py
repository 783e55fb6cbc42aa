"""Where each layer is wrapped, and the per-layer metrics read from a trace.

Every wrapper is installed on the module attribute its consumer looks up at
call time, and removed again after the run.  The capture hooks (the CLI's
``compare`` results and ``plan_figure8`` plan, which the correctness gates
need) are installed in untraced runs too; they run once per pipeline.
"""

from __future__ import annotations

import os

import scipy
import scipy.optimize

from thermaldrift import (
    cli, control, csvio, equilibrium, figure8, sim, trajopt)

from tracer import AttrProxy

# (name, unit, better); the traced run reports exactly these
PER_LAYER = [
    ("trajopt.solve_s", "s", "lower"),
    ("trajopt.phase1_s", "s", "lower"),
    ("trajopt.phase2_s", "s", "lower"),
    ("trajopt.tail_s", "s", "lower"),
    ("trajopt.iterations", "count", "lower"),
    ("trajopt.terminal_residual", "1", "lower"),
    ("trajopt.J", "1", "lower"),
    ("control.schedule_s", "s", "lower"),
    ("control.knots", "count", "lower"),
    ("control.linearize_s", "s", "lower"),
    ("control.linearize_calls", "count", "lower"),
    ("control.lqr_s", "s", "lower"),
    ("control.lqr_calls", "count", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.us_per_step", "us", "lower"),
    ("sim.pole_trace_s", "s", "lower"),
    ("sim.max_abs_e_m", "m", "lower"),
    ("model.calls", "count", "lower"),
    ("model.s", "s", "lower"),
    ("model.sim.calls", "count", "lower"),
    ("model.sim.s", "s", "lower"),
    ("model.control.calls", "count", "lower"),
    ("model.control.s", "s", "lower"),
    ("model.equilibrium.calls", "count", "lower"),
    ("model.equilibrium.s", "s", "lower"),
    ("model.trajopt.calls", "count", "lower"),
    ("model.trajopt.s", "s", "lower"),
    ("model.batch.calls", "count", "lower"),
    ("model.batch.s", "s", "lower"),
    ("paths.project_calls", "count", "lower"),
    ("paths.project_s", "s", "lower"),
    ("equilibrium.sweep_s", "s", "lower"),
    ("equilibrium.nodes", "count", "lower"),
    ("equilibrium.residual_calls", "count", "lower"),
    ("equilibrium.max_residual", "1", "lower"),
    ("csvio.write_s", "s", "lower"),
    ("csvio.read_s", "s", "lower"),
    ("csvio.bytes", "count", "lower"),
    ("figure8.plan_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.hot_calls", "count", "lower"),
]

MODEL_CONSUMERS = {"sim": sim, "control": control,
                   "equilibrium": equilibrium, "trajopt": trajopt}


def install_capture(patcher, captured):
    def compare(scenarios, _fn=cli.compare):
        captured.compare = _fn(scenarios)
        return captured.compare

    def plan(*args, _fn=cli.plan_figure8, **kwargs):
        captured.figure8_plan = _fn(*args, **kwargs)
        return captured.figure8_plan

    patcher.set(cli, "compare", compare)
    patcher.set(cli, "plan_figure8", plan)


def _sweep_attrs(traj, args, kwargs, attrs):
    attrs["nodes"] = traj.n_nodes
    attrs["max_residual"] = max(eq.residual_norm for eq in traj.equilibria)


def _sim_attrs(res, args, kwargs, attrs):
    attrs["steps"] = len(res.series) - 1
    attrs["scenario"] = res.scenario
    attrs["status"] = res.status
    attrs["max_abs_e"] = res.max_abs_e


def _solve_attrs(traj, args, kwargs, attrs):
    attrs["terminal_residual"] = traj.terminal_residual
    attrs["J"] = traj.J


def _minimize_attrs(res, args, kwargs, attrs):
    attrs["niter"] = int(res.niter)


def _bytes_written(result, args, kwargs, attrs):
    attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1
                                     else kwargs["path"])


def install_trace(patcher, tr):
    def wrap_span(mod, attr, name, on_return=None):
        patcher.set(mod, attr, tr.span(name, getattr(mod, attr), on_return))

    def wrap_hot(mod, attr, name):
        patcher.set(mod, attr, tr.hot(name, getattr(mod, attr)))

    for mod in (cli, figure8):
        wrap_span(mod, "quasi_steady_sweep", "equilibrium.sweep",
                  _sweep_attrs)
        wrap_span(mod, "build_schedule", "control.schedule",
                  lambda r, a, k, at: at.update(knots=len(r)))
    wrap_span(cli, "compare", "sim.compare")
    wrap_span(cli, "pole_trace", "sim.pole_trace")
    wrap_span(cli, "plan_figure8", "figure8.plan")
    wrap_span(sim, "run", "sim.run", _sim_attrs)
    for mod in (trajopt, figure8):
        wrap_span(mod, "solve_transition", "trajopt.solve", _solve_attrs)
    patcher.set(trajopt, "scipy", AttrProxy(scipy, optimize=AttrProxy(
        scipy.optimize, minimize=tr.span(
            "trajopt.minimize", scipy.optimize.minimize, _minimize_attrs))))
    for attr in dir(csvio):
        if attr.startswith("save_"):
            wrap_span(csvio, attr, "csvio.write", _bytes_written)
        elif attr.startswith("load_"):
            wrap_span(csvio, attr, "csvio.read")

    for mod in (equilibrium, figure8):
        wrap_hot(mod, "find_equilibrium", "equilibrium.find")
    wrap_hot(equilibrium, "dynamic_residual", "equilibrium.residual")
    for mod in (control, sim):
        wrap_hot(mod, "linearize", "control.linearize")
    wrap_hot(control, "lqr_gain", "control.lqr")
    wrap_hot(sim, "_project", "paths.project")
    for consumer, mod in MODEL_CONSUMERS.items():
        wrap_hot(mod, "vehicle_derivatives", f"model.{consumer}")
    wrap_hot(trajopt, "_rates_batch", "model.batch")


def layer_metrics(tr, iterations):
    """Per-iteration per-layer metrics (maxima for residual-type values)."""
    def count(name):
        return tr.stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tr.stats.get(name, (0, 0.0, 0.0))[1]

    def spans(name):
        return [(i, sp) for i, sp in enumerate(tr.spans) if sp[0] == name]

    def attr_sum(name, key):
        return sum(sp[6].get(key, 0) for _, sp in spans(name))

    def attr_max(name, key):
        return max((sp[6][key] for _, sp in spans(name) if key in sp[6]),
                   default=0.0)

    phase = [0.0, 0.0]
    tail = 0.0
    for i, solve in spans("trajopt.solve"):
        kids = [tr.spans[c] for c in tr.children(i)
                if tr.spans[c][0] == "trajopt.minimize"]
        for j, kid in enumerate(kids[:2]):
            phase[j] += kid[2] - kid[1]
        tail += solve[2] - (kids[-1][2] if kids else solve[1])

    steps = attr_sum("sim.run", "steps")
    model_calls = sum(count(f"model.{c}") for c in MODEL_CONSUMERS)
    model_s = sum(total(f"model.{c}") for c in MODEL_CONSUMERS)
    tracked = [sp[6]["max_abs_e"] for _, sp in spans("sim.run")
               if sp[6].get("scenario") in ("matched", "figure8")]

    m = {
        "trajopt.solve_s": total("trajopt.solve"),
        "trajopt.phase1_s": phase[0],
        "trajopt.phase2_s": phase[1],
        "trajopt.tail_s": tail,
        "trajopt.iterations": attr_sum("trajopt.minimize", "niter"),
        "control.schedule_s": total("control.schedule"),
        "control.knots": attr_sum("control.schedule", "knots"),
        "control.linearize_s": total("control.linearize"),
        "control.linearize_calls": count("control.linearize"),
        "control.lqr_s": total("control.lqr"),
        "control.lqr_calls": count("control.lqr"),
        "sim.run_s": total("sim.run"),
        "sim.steps": steps,
        "sim.pole_trace_s": total("sim.pole_trace"),
        "model.calls": model_calls,
        "model.s": model_s,
        "model.batch.calls": count("model.batch"),
        "model.batch.s": total("model.batch"),
        "paths.project_calls": count("paths.project"),
        "paths.project_s": total("paths.project"),
        "equilibrium.sweep_s": total("equilibrium.sweep"),
        "equilibrium.nodes": attr_sum("equilibrium.sweep", "nodes"),
        "equilibrium.residual_calls": count("equilibrium.residual"),
        "csvio.write_s": total("csvio.write"),
        "csvio.read_s": total("csvio.read"),
        "csvio.bytes": attr_sum("csvio.write", "bytes"),
        "figure8.plan_s": total("figure8.plan"),
        "trace.spans": len(tr.spans),
        "trace.hot_calls": sum(c for c, _, _ in tr.stats.values())
        - len(tr.spans),
    }
    for consumer in MODEL_CONSUMERS:
        m[f"model.{consumer}.calls"] = count(f"model.{consumer}")
        m[f"model.{consumer}.s"] = total(f"model.{consumer}")
    m = {k: v / iterations for k, v in m.items()}
    m["sim.us_per_step"] = 1e6 * total("sim.run") / steps if steps else 0.0
    m["trajopt.terminal_residual"] = attr_max("trajopt.solve",
                                              "terminal_residual")
    m["trajopt.J"] = attr_max("trajopt.solve", "J")
    m["sim.max_abs_e_m"] = max(tracked, default=0.0)
    m["equilibrium.max_residual"] = attr_max("equilibrium.sweep",
                                             "max_residual")
    return {name: m[name] for name, _, _ in PER_LAYER}
