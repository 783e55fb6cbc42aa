#!/usr/bin/env python3
"""Plan a figure-8 drifting course and track it closed-loop.

The first circle (R = 15 m, beta = -40 deg) is driven quasi-steadily, the
direction change is solved as a dynamic transition, and the mirrored circle
continues from the transition's terminal temperature.  The planned reference
is then tracked on the thermal plant and the per-segment errors are printed.
The study is ``thermaldrift plan-figure8`` followed by ``thermaldrift
simulate``, whose exit code (3 when the course is not finished) it returns.
"""

import argparse
import math
import tempfile
from pathlib import Path

from thermaldrift import cli, csvio
from thermaldrift.trajopt import IX


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=15.0)
    ap.add_argument("--beta", type=float, default=-40.0, help="deg")
    ap.add_argument("--theta0", type=float, default=30.0, help="degC")
    ap.add_argument("--arc", type=float, default=70.0,
                    help="steady arc per circle, m")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        common = ["--out", str(out), "--theta0", str(args.theta0)]
        code = cli.main(["plan-figure8", "--arc", str(args.arc),
                         "--radius", str(args.radius),
                         "--beta", str(args.beta), *common])
        if code != 0:
            return code
        code = cli.main(["simulate", *common])
        sim_path = out / "sim_figure8.csv"
        if code not in (0, 3) or not sim_path.exists():
            return code

        tr = csvio.load_dynamic(out / "trajectory_transition.csv")
        xN = tr.states[-1]
        print(f"transition: length {tr.transition_length:.2f} m, "
              f"time {tr.h * (len(tr.t) - 1):.2f} s, J {tr.J:.1f}, "
              f"terminal residual {tr.terminal_residual:.2e}")
        print(f"sideslip {args.beta:+.1f} deg -> "
              f"{math.degrees(math.atan2(xN[IX.Vy], xN[IX.Vx])):+.1f} deg, "
              f"tread {args.theta0:.1f} -> {xN[IX.theta]:.1f} degC")

        res = csvio.load_sim(sim_path)
        s = res.column("s")
        e = res.column("e")
        for label, lo, hi in (("circle 1", 0.0, tr.s[0]),
                              ("transition", tr.s[0], tr.s[-1]),
                              ("circle 2", tr.s[-1], math.inf)):
            mask = (s >= lo) & (s < hi)
            if mask.any():
                print(f"  {label:<11} max|e| {abs(e[mask]).max():6.3f} m")
        print(f"closed loop: {res.status}, max|e| {res.max_abs_e:.3f} m, "
              f"rms e {res.rms_e:.3f} m, "
              f"final tread {res.final_theta:.1f} degC")
    if args.out is not None:
        print(f"series written to {args.out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
