#!/usr/bin/env python3
"""Three-way steady-state comparison on a thermal plant.

Plans the R = 15 m, beta = -40 deg circle three ways (thermal friction map,
constant mu = 0.73, constant mu = 0.8), tracks each plan on the same thermal
plant starting at 30 degC, and prints the tracking-error table plus the
closed-loop pole-cloud diameters evaluated at the thermal plan's operating
points.  The study is ``thermaldrift plan-steady`` followed by
``thermaldrift simulate --scenario steady-compare``; the thermal plan's run
is the one named ``matched``.
"""

import argparse
import tempfile
from pathlib import Path

from thermaldrift import cli, csvio


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=15.0)
    ap.add_argument("--beta", type=float, default=-40.0, help="deg")
    ap.add_argument("--theta0", type=float, default=30.0, help="degC")
    ap.add_argument("--arc", type=float, default=300.0, help="m")
    ap.add_argument("--out", type=Path, default=None,
                    help="optional directory for CSV series")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        common = ["--out", str(out), "--theta0", str(args.theta0)]
        code = cli.main(["plan-steady", "--arc", str(args.arc),
                         "--radius", str(args.radius),
                         "--beta", str(args.beta), *common])
        if code == 0:
            code = cli.main(["simulate", "--scenario", "steady-compare",
                             *common])
        if code != 0:
            return code

        print("\npole-cloud diameters at the thermal plan's operating points:")
        for path in sorted(out.glob("poles_*.csv")):
            trace = csvio.load_poles(path)
            name = path.stem.removeprefix("poles_")
            print(f"  {name:<8} diameter {trace.cloud_diameter:8.3f}  "
                  f"spectral abscissa {trace.spectral_abscissa:+.3f}")
    if args.out is not None:
        print(f"\nseries written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
