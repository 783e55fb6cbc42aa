#!/usr/bin/env python3
"""Plan a figure-8 drifting course and track it closed-loop.

The first circle (R = 15 m, beta = -40 deg) is driven quasi-steadily, the
direction change is solved as a dynamic transition, and the mirrored circle
continues from the transition's terminal temperature.  The planned reference
is then tracked on the thermal plant and the per-segment errors are printed.
"""

import argparse
import math
from pathlib import Path

from thermaldrift import csvio
from thermaldrift.control import LqrWeights
from thermaldrift.figure8 import plan_figure8
from thermaldrift.params import default_params
from thermaldrift.sim import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=15.0)
    ap.add_argument("--beta", type=float, default=-40.0, help="deg")
    ap.add_argument("--theta0", type=float, default=30.0, help="degC")
    ap.add_argument("--arc", type=float, default=70.0,
                    help="steady arc per circle, m")
    ap.add_argument("--k-s", type=float, default=200.0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    params = default_params()
    plan = plan_figure8(params, radius=args.radius,
                        beta=math.radians(args.beta), theta0=args.theta0,
                        arc1=args.arc, arc2=args.arc, k_s=args.k_s,
                        weights=LqrWeights.tracking())
    tr = plan.transition
    xN = tr.states[-1]
    print(f"transition: length {plan.transition_length:.2f} m, "
          f"time {tr.h * (len(tr.t) - 1):.2f} s, J {tr.J:.1f}, "
          f"terminal residual {tr.terminal_residual:.2e}")
    print(f"sideslip {args.beta:+.1f} deg -> "
          f"{math.degrees(math.atan2(xN[1], xN[0])):+.1f} deg, "
          f"tread {args.theta0:.1f} -> {xN[10]:.1f} degC")

    res = run(plan.scenario(params, args.theta0))
    s = res.column("s")
    e = res.column("e")
    for label, lo, hi in (("circle 1", 0.0, plan.s_break1),
                          ("transition", plan.s_break1, plan.s_break2),
                          ("circle 2", plan.s_break2, plan.total_arc)):
        mask = (s >= lo) & (s < hi)
        if mask.any():
            print(f"  {label:<11} max|e| {abs(e[mask]).max():6.3f} m")
    print(f"closed loop: {res.status}, max|e| {res.max_abs_e:.3f} m, "
          f"rms e {res.rms_e:.3f} m, final tread {res.final_theta:.1f} degC")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        csvio.save_quasi_steady(plan.steady1, args.out / "steady1.csv")
        csvio.save_dynamic(tr, args.out / "transition.csv")
        csvio.save_quasi_steady(plan.steady2, args.out / "steady2.csv")
        csvio.save_gains(plan.schedule, args.out / "gains.csv")
        csvio.save_sim(res, args.out / "sim_figure8.csv")
        print(f"series written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
