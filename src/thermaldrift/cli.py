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
from .control import (
    LqrWeights,
    build_schedule,
    linearize_stack,
    operating_points,
)
from .equilibrium import quasi_steady_sweep
from .errors import ConfigError, SimulationError, SolverError, ThermalDriftError
from .figure8 import plan_figure8
from .params import default_params, load_params
from .sim import Scenario, compare, comparison_table, pole_trace
from .trajopt import IX, PlannerConfig, load_planner_config

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermaldrift",
        description="thermally-aware drifting: planning, gains, simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--params", type=Path, default=None,
                       help="vehicle/tire/thermal parameter file")
        p.add_argument("--planner-config", type=Path, default=None,
                       help="planner settings file (Table-style keys)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--theta0", type=float, default=30.0,
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
    p.add_argument("--k-s", type=float, default=None,
                   help="override the transition-distance weight, m^-2")

    # the arc, radius and sideslip come from the planned trajectory.csv
    p = sub.add_parser("simulate", help="closed-loop simulation of planned "
                                        "files in the output directory")
    common(p)
    p.add_argument("--scenario", default="steady",
                   choices=("steady", "steady-compare"),
                   help="matched run, or the three-way friction comparison")
    return parser


def _load_inputs(args):
    params = load_params(args.params) if args.params else default_params()
    planner = (load_planner_config(args.planner_config)
               if args.planner_config else PlannerConfig())
    return params, planner


def cmd_plan_steady(args) -> int:
    params, planner = _load_inputs(args)
    beta = math.radians(args.beta)
    traj = quasi_steady_sweep(params, args.radius, beta, args.theta0,
                              args.arc, mu_const=args.mu_const,
                              limits=planner.limits)
    schedule = build_schedule(params, traj, weights=LqrWeights.tracking())
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csvio.save_quasi_steady(traj, out / "trajectory.csv")
    csvio.save_gains(schedule, out / "gains.csv")
    eq0, eqN = traj.equilibria[0], traj.equilibria[-1]
    lines = [
        "plan-steady",
        f"mode {'constant-mu' if args.mu_const is not None else 'thermal'}",
        f"radius_m {args.radius}",
        f"beta_deg {args.beta}",
        f"arc_m {args.arc}",
        f"nodes {traj.n_nodes}",
        f"schedule_knots {len(schedule)}",
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
    params, planner = _load_inputs(args)
    beta = math.radians(args.beta)
    k_s = planner.k_s if args.k_s is None else args.k_s
    plan = plan_figure8(params, radius=args.radius, beta=beta,
                        theta0=args.theta0, arc1=args.arc, arc2=args.arc,
                        k_s=k_s, n_steps=planner.n_steps,
                        k_ddelta=planner.k_ddelta, k_dtau=planner.k_dtau,
                        h_bounds=(planner.h_min, planner.h_max),
                        limits=planner.limits, weights=LqrWeights.tracking())
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    csvio.save_quasi_steady(plan.steady1, out / "trajectory_steady1.csv")
    csvio.save_dynamic(plan.transition, out / "trajectory_transition.csv")
    csvio.save_quasi_steady(plan.steady2, out / "trajectory_steady2.csv")
    csvio.save_gains(plan.schedule, out / "gains.csv")
    tr = plan.transition
    xN = tr.states[-1]
    beta_N = math.degrees(math.atan2(xN[IX.Vy], xN[IX.Vx]))
    lines = [
        "plan-figure8",
        f"radius_m {args.radius}",
        f"beta_deg {args.beta}",
        f"steady_arc_m {args.arc}",
        f"k_s {k_s}",
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
    traj_path = out / "trajectory.csv"
    gains_path = out / "gains.csv"
    for path in (traj_path, gains_path):
        if not path.exists():
            raise ConfigError(f"missing input file {path}; run plan-steady first")
    traj = csvio.load_quasi_steady(traj_path)
    schedule = csvio.load_gains(gains_path)
    path = traj.circle
    arc = float(traj.s[-1])

    scenarios = [Scenario(
        name="matched", schedule=schedule, path=path, plant=params,
        initial_state=traj.sample(0.0)[0].replace(theta_r=args.theta0),
        s_final=arc, limits=planner.limits)]
    if args.scenario == "steady-compare":
        beta = traj.beta_target
        for mu in (0.73, 0.8):
            mtraj = quasi_steady_sweep(params, traj.radius, beta, args.theta0,
                                       arc, mu_const=mu, limits=planner.limits)
            msched = build_schedule(params, mtraj,
                                    weights=LqrWeights.tracking())
            scenarios.append(Scenario(
                name=f"mu{mu:g}", schedule=msched, path=path, plant=params,
                initial_state=mtraj.sample(0.0)[0].replace(theta_r=args.theta0),
                s_final=arc, limits=planner.limits))

    results = compare(scenarios)
    for name, res in results.items():
        if isinstance(res, Exception):
            continue
        csvio.save_sim(res, out / f"sim_{name}.csv")
    # all schedules are judged against the operating points the plant
    # actually visits on the planned (thermal) trajectory; schedules on the
    # same knots share one linearization of the plant there
    lin_knots = plant_lin = None
    for sc in scenarios:
        knots = sc.schedule.s_knots
        if plant_lin is None or not np.array_equal(knots, lin_knots):
            lin_knots = knots
            plant_lin = linearize_stack(params, operating_points(traj, knots))
        trace = pole_trace(sc.schedule, params, plant_lin=plant_lin)
        csvio.save_poles(trace, out / f"poles_{sc.name}.csv")
    report = comparison_table(results)
    (out / "report.txt").write_text(report + "\n")
    print(report)
    hard_failures = [r for r in results.values() if isinstance(r, Exception)]
    if hard_failures:
        raise SimulationError("; ".join(str(r) for r in hard_failures))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "plan-steady": cmd_plan_steady,
        "plan-figure8": cmd_plan_figure8,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
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
