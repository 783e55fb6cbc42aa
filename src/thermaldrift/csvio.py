"""CSV serialization for trajectories, gain schedules, and simulation series.

Numbers are written with ``repr`` (shortest exact decimal), so a written file
reloads bit-identically.  Scalar metadata rides in ``# key value`` comment
lines ahead of the header row.

The writer formats a few hundred rows at a time.  Down each column of such a
block it calls ``repr`` once per run of bit-equal cells (a reference column
holds one knot for many simulator steps) and reuses that string for the run,
so the bytes are those of ``repr`` on every cell.
"""

from __future__ import annotations

import numpy as np

from .control import REF_STATE_FIELDS, GainSchedule
from .equilibrium import DriftEquilibrium, QuasiSteadyTrajectory
from .errors import ConfigError
from .paths import CirclePath
from .sim import SIM_COLUMNS, PoleTrace, SimResult
from .trajopt import IX, DynamicTrajectory

__all__ = [
    "save_quasi_steady", "load_quasi_steady",
    "save_dynamic", "load_dynamic",
    "save_gains", "load_gains",
    "save_sim", "load_sim",
    "save_poles", "load_poles",
]

_QS_COLUMNS = ("s", "t", "theta", "Q", "r", "omega", "dFz", "delta", "tau",
               "mu_r", "residual_norm")

_DYN_STATE_COLUMNS = ("Vx", "Vy", "r", "psi", "omega", "dFz", "X", "Y",
                      "delta", "tau", "theta", "s")
_DYN_COLUMNS = ("t",) + _DYN_STATE_COLUMNS + ("ddelta", "dtau")

_GAIN_COLUMNS = (("s",)
                 + tuple(f"K{i}{j}" for i in range(3) for j in range(6))
                 + tuple(f"ref_{name}" for name in REF_STATE_FIELDS)
                 + ("ref_delta", "ref_Fxf", "ref_tau")
                 + ("kappa",))

_POLE_COLUMNS = ("s",) + tuple(f"{part}{i}" for i in range(6)
                               for part in ("re", "im"))

#: rows formatted per block by _write
_BLOCK_ROWS = 256


def _fmt(x) -> str:
    return repr(float(x))


def _write(path, columns, rows, kind, meta=None):
    data = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"# kind {kind}\n")
        for key, value in (meta or {}).items():
            fh.write(f"# {key} {value}\n")
        fh.write(",".join(columns) + "\n")
        # a block at a time: the whole array's cells as strings would be
        # alive at once
        for start in range(0, len(data), _BLOCK_ROWS):
            block = data[start:start + _BLOCK_ROWS].T.copy()
            # runs of bit-equal cells down each column; bits, not ==, keep
            # 0.0 and -0.0 apart
            bits = block.view(np.uint64)
            first = np.ones(block.shape, dtype=bool)
            np.not_equal(bits[:, 1:], bits[:, :-1], out=first[:, 1:])
            cells = []
            for col, new, run in zip(block, first,
                                     np.cumsum(first, axis=1) - 1):
                # repr once per run, then the run's string for each cell
                text = np.array(list(map(repr, col[new].tolist())),
                                dtype=object)
                cells.append(text[run].tolist())
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read(path, columns, kind):
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
                continue
            if header is None:
                if meta.get("kind") != kind:
                    raise ConfigError(f"{path}: kind {meta.get('kind')!r}, "
                                      f"expected {kind!r}")
                header = tuple(line.split(","))
                if header != tuple(columns):
                    raise ConfigError(
                        f"{path}:{lineno}: unexpected header {header!r}")
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ConfigError(
                    f"{path}:{lineno}: expected {len(columns)} fields, "
                    f"got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad number: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path}: missing header row")
    if not rows:
        raise ConfigError(f"{path}: no data rows after the header")
    data = np.array(rows, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        # the line is looked up only here: after the header, every line
        # that is neither blank nor a comment is a data row
        with open(path) as fh:
            lines = [(lineno, line) for lineno, line in enumerate(fh, start=1)
                     if line.strip() and not line.startswith("#")]
        lineno, line = lines[1 + row]
        cell = line.rstrip("\n").split(",")[col]
        raise ConfigError(f"{path}:{lineno}: {columns[col]} must be a finite "
                          f"number, got {cell!r}")
    return meta, data


def _meta_float(meta, key, path):
    try:
        return float(meta[key])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing metadata key {key!r}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: bad metadata value for {key!r}") from exc


# ---------------------------------------------------------------------------
# quasi-steady trajectories
# ---------------------------------------------------------------------------

def save_quasi_steady(traj: QuasiSteadyTrajectory, path) -> None:
    meta = {
        "radius": _fmt(traj.radius),
        "beta_target": _fmt(traj.beta_target),
        "ds": _fmt(traj.ds),
        "thermal": int(traj.thermal),
    }
    rows = []
    for k, eq in enumerate(traj.equilibria):
        rows.append([traj.s[k], traj.t[k], traj.theta[k], traj.Q[k],
                     eq.r, eq.omega, eq.dFz, eq.delta, eq.tau,
                     eq.mu_r, eq.residual_norm])
    _write(path, _QS_COLUMNS, rows, "quasi_steady", meta)


def load_quasi_steady(path) -> QuasiSteadyTrajectory:
    meta, data = _read(path, _QS_COLUMNS, "quasi_steady")
    radius = _meta_float(meta, "radius", path)
    beta = _meta_float(meta, "beta_target", path)
    cols = {name: data[:, i] for i, name in enumerate(_QS_COLUMNS)}
    equilibria = [
        DriftEquilibrium(radius=radius, beta=beta, theta_r=cols["theta"][k],
                         mu_r=cols["mu_r"][k], r=cols["r"][k],
                         omega=cols["omega"][k], dFz=cols["dFz"][k],
                         delta=cols["delta"][k], tau=cols["tau"][k],
                         residual_norm=cols["residual_norm"][k])
        for k in range(data.shape[0])
    ]
    return QuasiSteadyTrajectory(
        circle=CirclePath(radius), beta_target=beta,
        ds=_meta_float(meta, "ds", path),
        thermal=bool(int(_meta_float(meta, "thermal", path))),
        s=cols["s"], t=cols["t"], theta=cols["theta"], Q=cols["Q"],
        equilibria=equilibria)


# ---------------------------------------------------------------------------
# dynamic transition trajectories
# ---------------------------------------------------------------------------

def save_dynamic(traj: DynamicTrajectory, path) -> None:
    meta = {
        "h": _fmt(traj.h),
        "J": _fmt(traj.J),
        "input_cost": _fmt(traj.input_cost),
        "distance_cost": _fmt(traj.distance_cost),
        "terminal_residual": _fmt(traj.terminal_residual),
        "max_defect": _fmt(traj.max_defect),
        "n_outer": int(traj.n_outer),
    }
    N = traj.inputs.shape[0]
    rows = []
    for k in range(N + 1):
        u = traj.inputs[k] if k < N else np.zeros(2)
        rows.append([traj.t[k], *traj.states[k], *u])
    _write(path, _DYN_COLUMNS, rows, "dynamic", meta)


def load_dynamic(path) -> DynamicTrajectory:
    meta, data = _read(path, _DYN_COLUMNS, "dynamic")
    return DynamicTrajectory(
        t=data[:, 0].copy(),
        states=data[:, 1:1 + IX.n].copy(),
        inputs=data[:-1, 1 + IX.n:].copy(),
        h=_meta_float(meta, "h", path),
        J=_meta_float(meta, "J", path),
        input_cost=_meta_float(meta, "input_cost", path),
        distance_cost=_meta_float(meta, "distance_cost", path),
        terminal_residual=_meta_float(meta, "terminal_residual", path),
        max_defect=_meta_float(meta, "max_defect", path),
        n_outer=int(_meta_float(meta, "n_outer", path)))


# ---------------------------------------------------------------------------
# gain schedules
# ---------------------------------------------------------------------------

def save_gains(schedule: GainSchedule, path) -> None:
    rows = []
    for i in range(len(schedule)):
        rows.append([schedule.s_knots[i], *schedule.K[i].ravel(),
                     *schedule.ref_states[i], *schedule.ref_inputs[i],
                     schedule.kappa[i]])
    _write(path, _GAIN_COLUMNS, rows, "gains")


def load_gains(path) -> GainSchedule:
    _, data = _read(path, _GAIN_COLUMNS, "gains")
    n = data.shape[0]
    return GainSchedule(
        s_knots=data[:, 0].copy(),
        K=data[:, 1:19].reshape(n, 3, 6).copy(),
        ref_states=data[:, 19:31].copy(),
        ref_inputs=data[:, 31:34].copy(),
        kappa=data[:, 34].copy())


# ---------------------------------------------------------------------------
# simulation series and pole traces
# ---------------------------------------------------------------------------

def save_sim(result: SimResult, path) -> None:
    meta = {
        "scenario": result.scenario,
        "status": result.status,
        "detail": result.detail or "-",
        "max_abs_e": _fmt(result.max_abs_e),
        "rms_e": _fmt(result.rms_e),
        "max_abs_beta_err": _fmt(result.max_abs_beta_err),
        "final_theta": _fmt(result.final_theta),
        "final_mu": _fmt(result.final_mu),
    }
    _write(path, SIM_COLUMNS, result.series, "sim", meta)


def load_sim(path) -> SimResult:
    meta, data = _read(path, SIM_COLUMNS, "sim")
    return SimResult(
        scenario=meta.get("scenario", ""),
        status=meta.get("status", ""),
        detail="" if meta.get("detail") == "-" else meta.get("detail", ""),
        series=data,
        max_abs_e=_meta_float(meta, "max_abs_e", path),
        rms_e=_meta_float(meta, "rms_e", path),
        max_abs_beta_err=_meta_float(meta, "max_abs_beta_err", path),
        final_theta=_meta_float(meta, "final_theta", path),
        final_mu=_meta_float(meta, "final_mu", path))


def save_poles(trace: PoleTrace, path) -> None:
    rows = []
    for i in range(len(trace.s_knots)):
        row = [trace.s_knots[i]]
        for lam in trace.poles[i]:
            row.extend([lam.real, lam.imag])
        rows.append(row)
    _write(path, _POLE_COLUMNS, rows, "poles")


def load_poles(path) -> PoleTrace:
    _, data = _read(path, _POLE_COLUMNS, "poles")
    poles = data[:, 1::2] + 1j * data[:, 2::2]
    return PoleTrace(s_knots=data[:, 0].copy(), poles=poles)
