"""Command-line interface: plan references, build gains, run simulations.

Exit codes: 0 success, 1 configuration error, 2 planner/solver failure,
3 simulation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import csvio
from ._fork import WorkerExitError, fork_map
from .control import build_schedule, linearize_stack, schedule_knots
from .equilibrium import (
    check_arc,
    check_radius,
    check_sideslip,
    quasi_steady_sweep,
)
from .errors import ConfigError, SimulationError, SolverError, ThermalDriftError
from .figure8 import Figure8Plan, plan_figure8
from .model import friction_coefficient
from .params import ThermalParams, default_params, load_params
from .sim import PoleTrace, Scenario, compare, comparison_table, pole_trace
from .trajopt import IX, PlannerConfig, load_planner_config

__all__ = ["main"]

_THETA0 = 30.0  # degC, the plan commands' initial tread temperature
_COMPARE_MU = (0.73, 0.8)  # simulate --scenario steady-compare's plans


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermaldrift",
        description="thermally-aware drifting: planning, gains, simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta0=_THETA0):
        p.add_argument("--params", type=Path, default=None,
                       help="vehicle/tire/thermal parameter file")
        p.add_argument("--planner-config", type=Path, default=None,
                       help="planner settings file (Table-style keys)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--theta0", type=float, default=theta0,
                       help="initial tread temperature, degC")

    def geometry(p):
        p.add_argument("--radius", type=float, default=15.0,
                       help="turn radius of the first circle, m (signed)")
        p.add_argument("--beta", type=float, default=-40.0,
                       help="target sideslip angle, deg")

    p = sub.add_parser("plan-steady", help="quasi-steady circular reference")
    common(p)
    geometry(p)
    p.add_argument("--arc", type=float, default=300.0,
                   help="total arc length, m")
    p.add_argument("--mu-const", type=float, default=None,
                   help="plan at a constant friction coefficient instead of "
                        "the temperature map")

    p = sub.add_parser("plan-figure8", help="figure-8 reference with a "
                                            "dynamic transition")
    common(p)
    geometry(p)
    p.add_argument("--arc", type=float, default=70.0,
                   help="steady arc length per circle, m")

    # the plan kind, arc, radius and sideslip come from the planned files
    p = sub.add_parser("simulate", help="closed-loop simulation of the plan "
                                        "in the output directory")
    common(p, theta0=None)
    p.add_argument("--scenario", default="steady",
                   choices=("steady", "steady-compare"),
                   help="the plan's own run, or a steady plan's comparison")
    return parser


def _load_inputs(args):
    """The parameter set and planner settings, after checking --theta0
    against the friction map's declared range."""
    lo, hi = ThermalParams.THETA_RANGE
    if args.theta0 is not None and not lo <= args.theta0 <= hi:
        raise ConfigError(f"--theta0 {args.theta0:g}: the tread temperature "
                          f"must lie in the friction map's range {lo:g} to "
                          f"{hi:g} degC")
    params = load_params(args.params) if args.params else default_params()
    planner = (load_planner_config(args.planner_config)
               if args.planner_config else PlannerConfig())
    return params, planner


def _check_geometry(args) -> None:
    """The planner's own preconditions on --radius, --beta and --arc, as
    configuration errors that name the option."""
    for option, value, check, arg in (
            ("--radius", args.radius, check_radius, args.radius),
            ("--beta", args.beta, check_sideslip, math.radians(args.beta)),
            ("--arc", args.arc, check_arc, args.arc)):
        try:
            check(arg)
        except ValueError as exc:
            raise ConfigError(f"{option} {value:g}: {exc}") from None


def _check_mu_const(mu: float, thermal: ThermalParams,
                    name: str = "--mu-const") -> None:
    """A constant friction coefficient to plan at, ``name`` in the message,
    must be one the map gives over its declared temperature range."""
    if mu <= 0.0:
        raise ConfigError(f"{name} {mu:g}: the friction coefficient "
                          "must be positive")
    lo, hi = sorted(friction_coefficient(thermal, theta)
                    for theta in thermal.THETA_RANGE)
    if not lo <= mu <= hi:
        t_lo, t_hi = thermal.THETA_RANGE
        raise ConfigError(f"{name} {mu:g}: outside the friction map's "
                          f"range {lo:.3f} to {hi:.3f} over {t_lo:g} to "
                          f"{t_hi:g} degC")


def _check_out(out: Path, other: str, kind: str) -> None:
    """--out must not hold a plan of the other kind (``other`` is its
    trajectory file, ``kind`` the command that writes it): simulate takes a
    directory that holds one plan."""
    if (out / other).exists():
        raise ConfigError(f"{out / other}: --out already holds a {kind} "
                          "plan; plan into another directory")


#: what simulate writes beside its plan, and the gains.csv that the plan
#: commands wrote before simulate designed the gains
_RUN_OUTPUTS = ("sim_*.csv", "poles_*.csv", "gains_*.csv", "report.txt",
                "gains.csv")


def _remove_run_outputs(out: Path) -> None:
    """Remove the outputs of a simulate run on an earlier plan in ``out``,
    named in one stderr line: they do not belong to the new plan."""
    stale = sorted(path for pattern in _RUN_OUTPUTS
                   for path in out.glob(pattern))
    for path in stale:
        path.unlink()
    if stale:
        print(f"removed the earlier plan's simulate outputs from {out}: "
              + ", ".join(path.name for path in stale), file=sys.stderr)


def cmd_plan_steady(args) -> int:
    _check_out(args.out, "trajectory_transition.csv", "plan-figure8")
    _check_geometry(args)
    params, planner = _load_inputs(args)
    if args.mu_const is not None:
        _check_mu_const(args.mu_const, params.thermal)
    beta = math.radians(args.beta)
    traj = quasi_steady_sweep(params, args.radius, beta, args.theta0,
                              args.arc, mu_const=args.mu_const,
                              limits=planner.limits)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _remove_run_outputs(out)
    csvio.save_quasi_steady(traj, out / "trajectory.csv")
    eq0, eqN = traj.equilibria[0], traj.equilibria[-1]
    lines = [
        "plan-steady",
        f"mode {'constant-mu' if args.mu_const is not None else 'thermal'}",
        f"radius_m {args.radius}",
        f"beta_deg {args.beta}",
        f"arc_m {args.arc}",
        f"nodes {traj.n_nodes}",
        f"schedule_knots {len(schedule_knots(*traj.s_span()))}",
        f"initial_theta_C {traj.theta[0]:.3f}",
        f"final_theta_C {traj.theta[-1]:.3f}",
        f"final_mu {eqN.mu_r:.4f}",
        f"initial_V_mps {eq0.V:.3f}",
        f"final_V_mps {eqN.V:.3f}",
        f"delta_range_deg {math.degrees(min(e.delta for e in traj.equilibria)):.2f} "
        f"{math.degrees(max(e.delta for e in traj.equilibria)):.2f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return 0


def cmd_plan_figure8(args) -> int:
    _check_out(args.out, "trajectory.csv", "plan-steady")
    _check_geometry(args)
    params, planner = _load_inputs(args)
    beta = math.radians(args.beta)
    plan = plan_figure8(params, radius=args.radius, beta=beta,
                        theta0=args.theta0, arc=args.arc, planner=planner)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _remove_run_outputs(out)
    csvio.save_quasi_steady(plan.steady1, out / "trajectory_steady1.csv")
    csvio.save_dynamic(plan.transition, out / "trajectory_transition.csv")
    csvio.save_quasi_steady(plan.steady2, out / "trajectory_steady2.csv")
    tr = plan.transition
    xN = tr.states[-1]
    beta_N = math.degrees(math.atan2(xN[IX.Vy], xN[IX.Vx]))
    lines = [
        "plan-figure8",
        f"radius_m {args.radius}",
        f"beta_deg {args.beta}",
        f"steady_arc_m {args.arc}",
        f"k_s {planner.k_s}",
        f"transition_length_m {plan.transition_length:.4f}",
        f"transition_time_s {tr.h * (len(tr.t) - 1):.4f}",
        f"step_s {tr.h:.6f}",
        f"cost_J {tr.J:.4f}",
        f"input_cost {tr.input_cost:.4f}",
        f"distance_cost {tr.distance_cost:.4f}",
        f"terminal_residual {tr.terminal_residual:.3e}",
        f"beta_initial_deg {args.beta:.2f}",
        f"beta_final_deg {beta_N:.2f}",
        f"theta_after_transition_C {xN[IX.theta]:.3f}",
        f"schedule_knots {len(plan.schedule)}",
        f"total_arc_m {plan.total_arc:.3f}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    params, planner = _load_inputs(args)
    out = args.out
    steady = (out / "trajectory.csv").exists()
    if steady == (out / "trajectory_transition.csv").exists():
        raise ConfigError(f"{out} must hold one plan: trajectory.csv from "
                          "plan-steady or trajectory_transition.csv from "
                          "plan-figure8")
    if steady:
        ref = csvio.load_quasi_steady(out / "trajectory.csv")
    elif args.scenario == "steady-compare":
        raise ConfigError(f"{out} holds a figure-8 plan; --scenario "
                          "steady-compare needs a plan-steady plan")
    else:
        ref = Figure8Plan(
            csvio.load_quasi_steady(out / "trajectory_steady1.csv"),
            csvio.load_dynamic(out / "trajectory_transition.csv"),
            csvio.load_quasi_steady(out / "trajectory_steady2.csv"))
    # the plant starts at the plan's tread temperature, if it models one
    theta0 = args.theta0
    if theta0 is None:
        theta0 = (ref.sample(0.0)[0].theta_r if not steady or ref.thermal
                  else _THETA0)
    if steady:
        s_final = float(ref.s[-1])
        plans = [("matched", ref)]
        if args.scenario == "steady-compare":
            for mu in _COMPARE_MU:
                _check_mu_const(mu, params.thermal,
                                "steady-compare's constant mu")
            plans += [(f"mu{mu:g}", quasi_steady_sweep(
                params, ref.radius, ref.beta_target, theta0, s_final,
                mu_const=mu, limits=planner.limits)) for mu in _COMPARE_MU]
    else:
        s_final = ref.total_arc - 0.5
        plans = [("figure8", ref)]
    # every run's gains are designed along its own plan, on this plant
    scenarios = [Scenario(
        name=name, schedule=build_schedule(params, plan), path=plan,
        plant=params, initial_state=plan.sample(0.0)[0].replace(
            theta_r=theta0), s_final=s_final, limits=planner.limits)
        for name, plan in plans]

    results = compare(scenarios)

    def save(sc):
        csvio.save_sim(results[sc.name], out / f"sim_{sc.name}.csv")
        csvio.save_gains(sc.schedule, out / f"gains_{sc.name}.csv")

    # the series reach the writers by fork, so they are not pickled again
    ran = [sc for sc in scenarios
           if not isinstance(results[sc.name], Exception)]
    try:
        fork_map(save, ran)
    except WorkerExitError as exc:
        raise SimulationError(f"{ran[exc.index].name}: {exc}") from None
    # all schedules span the plan's arc on its knots, and are judged
    # against one linearization of the plant at the operating points it
    # actually visits on the plan
    knots = scenarios[0].schedule.s_knots
    plant_lin = linearize_stack(params, [ref.sample(float(s)) for s in knots])
    report = [comparison_table(results)]
    clouds = [(sc.name, pole_trace(sc.schedule, *plant_lin))
              for sc in scenarios]
    for name, trace in clouds:
        csvio.save_poles(trace, out / f"poles_{name}.csv")
    labels = ("circle 1", "transition", "circle 2")
    if not steady:
        # the circles and the transition have closed-loop spectra of their
        # own, so the figure-8 run's one trace is reported per segment
        on = np.array([ref._segment(s) for s in knots.tolist()])
        clouds = [(f"{label:<10}",
                   PoleTrace(knots[on == i], trace.poles[on == i]))
                  for i, label in enumerate(labels) if (on == i).any()]
    report += [f"poles {name:<8} diameter {cloud.cloud_diameter:8.3f}  "
               f"spectral abscissa {cloud.spectral_abscissa:+.3f}"
               for name, cloud in clouds]
    own = results[scenarios[0].name]
    if not steady and not isinstance(own, Exception):
        # the tracking error on each segment of the course the run reached
        segment = np.array([ref._segment(s) for s in own.column("s").tolist()])
        e = np.abs(own.column("e"))
        for i, label in enumerate(labels):
            err = e[segment == i]
            if err.size:
                report.append(f"{label:<11} max|e| {err.max():6.3f} m")
    report = "\n".join(report)
    (out / "report.txt").write_text(report + "\n")
    print(report)
    hard_failures = [r for r in results.values() if isinstance(r, Exception)]
    if hard_failures:
        raise SimulationError("; ".join(str(r) for r in hard_failures))
    if own.status != "finished":
        raise SimulationError(f"{own.scenario} run ended in {own.status}: "
                              f"{own.detail}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: --{name.replace('_', '-')} must be a finite "
                  f"number, got {value}", file=sys.stderr)
            return 1
    handlers = {
        "plan-steady": cmd_plan_steady,
        "plan-figure8": cmd_plan_figure8,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 3
    except (SolverError, ThermalDriftError, ValueError) as exc:
        print(f"planner failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
