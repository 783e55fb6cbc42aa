"""CSV serialization for trajectories, gain schedules, and simulation series.

Numbers are written with ``repr`` (shortest exact decimal), so a written file
reloads bit-identically.  Scalar metadata rides in ``# key value`` comment
lines ahead of the header row.

Each file kind's layout is stated once, as a tuple of its columns and a
tuple of its float metadata keys; its writer and its reader both follow
those tuples.  The transition's state columns are ``trajopt.IX.names``.  A
metadata value must be a finite number (``n_outer`` a whole number,
``thermal`` 0 or 1), or the file is a configuration error, as is a plan the
planner would refuse or never write: a bad radius, sideslip or ``ds``, an
``s`` column off its ``ds`` grid or not strictly increasing, a repeated
X, Y, or fewer rows than the shortest plan (2 for a sweep, 3 for a
transition).

The writer formats a few hundred rows at a time.  Down each column of such a
block it calls ``repr`` once per run of bit-equal cells (a reference column
holds one knot for many simulator steps) and reuses that string for the run,
so the bytes are those of ``repr`` on every cell.
"""

from __future__ import annotations

import math

import numpy as np

from .control import REF_STATE_FIELDS, GainSchedule
from .equilibrium import (DriftEquilibrium, QuasiSteadyTrajectory,
                          check_radius, check_sideslip)
from .errors import ConfigError, ScheduleError
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

#: DriftEquilibrium field names: each node's equilibrium is read back by name
_QS_EQ = ("r", "omega", "dFz", "delta", "tau", "mu_r", "residual_norm")
_QS_COLUMNS = ("s", "t", "theta", "Q") + _QS_EQ
_QS_META = ("radius", "beta_target", "ds")

_DYN_COLUMNS = ("t",) + IX.names + ("ddelta", "dtau")
_DYN_META = ("h", "J", "input_cost", "distance_cost", "terminal_residual",
             "max_defect")

_GAIN_BLOCKS = (("s",),
                tuple(f"K{i}{j}" for i in range(3) for j in range(6)),
                tuple(f"ref_{name}" for name in REF_STATE_FIELDS),
                ("ref_delta", "ref_Fxf", "ref_tau"),
                ("kappa",))
_GAIN_COLUMNS = sum(_GAIN_BLOCKS, ())

_SIM_META = ("max_abs_e", "rms_e", "max_abs_beta_err", "final_theta",
             "final_mu")

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


def _read(path, columns, kind, min_rows=1):
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
    if len(rows) < min_rows:
        raise ConfigError(f"{path}: the planner writes at least {min_rows} "
                          f"data rows, this file holds {len(rows)}")
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


def _meta_float(meta, key, path, expected="a finite number",
                valid=math.isfinite):
    text = meta.get(key)
    if text is None:
        raise ConfigError(f"{path}: missing metadata key {key!r}")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not valid(value):
        raise ConfigError(f"{path}: metadata {key} must be {expected}, "
                          f"got {text!r}")
    return value


# ---------------------------------------------------------------------------
# quasi-steady trajectories
# ---------------------------------------------------------------------------

def save_quasi_steady(traj: QuasiSteadyTrajectory, path) -> None:
    meta = {key: _fmt(getattr(traj, key)) for key in _QS_META}
    meta["thermal"] = int(traj.thermal)
    eq_columns = ([getattr(eq, name) for eq in traj.equilibria]
                  for name in _QS_EQ)
    _write(path, _QS_COLUMNS,
           np.column_stack([traj.s, traj.t, traj.theta, traj.Q, *eq_columns]),
           "quasi_steady", meta)


def load_quasi_steady(path) -> QuasiSteadyTrajectory:
    # the shortest sweep (check_arc) is one step long
    meta, data = _read(path, _QS_COLUMNS, "quasi_steady", min_rows=2)
    radius, beta = (_meta_float(meta, key, path) for key in _QS_META[:2])
    for value, check in ((radius, check_radius), (beta, check_sideslip)):
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: metadata {exc}, got {value:g}") from None
    ds = _meta_float(meta, "ds", path, "a positive number",
                     lambda value: 0.0 < value < math.inf)
    thermal = _meta_float(meta, "thermal", path, "0 or 1",
                          lambda value: value in (0.0, 1.0))
    s, t, theta, Q = data[:, :-len(_QS_EQ)].T
    # sample() reads node k at s[0] + k*ds
    if np.any(np.abs(s - s[0] - ds * np.arange(len(s))) > 1e-9 * ds):
        raise ConfigError(f"{path}: column s is off its ds grid of {ds!r} m")
    equilibria = [
        DriftEquilibrium(radius=radius, beta=beta, theta_r=theta_r,
                         **dict(zip(_QS_EQ, row)))
        for theta_r, row in zip(theta, data[:, -len(_QS_EQ):])
    ]
    return QuasiSteadyTrajectory(
        circle=CirclePath(radius), beta_target=beta, ds=ds,
        thermal=bool(thermal), s=s, t=t, theta=theta, Q=Q,
        equilibria=equilibria)


# ---------------------------------------------------------------------------
# dynamic transition trajectories
# ---------------------------------------------------------------------------

def save_dynamic(traj: DynamicTrajectory, path) -> None:
    meta = {key: _fmt(getattr(traj, key)) for key in _DYN_META}
    meta["n_outer"] = int(traj.n_outer)
    # the last row starts no step: its slew rates are written as zero
    inputs = np.pad(traj.inputs, ((0, 1), (0, 0)))
    _write(path, _DYN_COLUMNS,
           np.column_stack([traj.t, traj.states, inputs]), "dynamic", meta)


def load_dynamic(path) -> DynamicTrajectory:
    # the fewest steps PlannerConfig allows is 2
    meta, data = _read(path, _DYN_COLUMNS, "dynamic", min_rows=3)
    if np.any(np.diff(data[:, _DYN_COLUMNS.index("s")]) <= 0.0):
        raise ConfigError(f"{path}: column s must be strictly increasing")
    xy = data[:, [_DYN_COLUMNS.index("X"), _DYN_COLUMNS.index("Y")]]
    if np.any((np.diff(xy, axis=0) ** 2).sum(axis=1) <= 0.0):
        raise ConfigError(f"{path}: two consecutive rows share X and Y")
    return DynamicTrajectory(
        t=data[:, 0].copy(),
        states=data[:, 1:1 + IX.n].copy(),
        inputs=data[:-1, 1 + IX.n:].copy(),
        n_outer=int(_meta_float(meta, "n_outer", path, "a whole number",
                                float.is_integer)),
        **{key: _meta_float(meta, key, path) for key in _DYN_META})


# ---------------------------------------------------------------------------
# gain schedules
# ---------------------------------------------------------------------------

def save_gains(schedule: GainSchedule, path) -> None:
    _write(path, _GAIN_COLUMNS,
           np.column_stack([schedule.s_knots,
                            schedule.K.reshape(len(schedule), -1),
                            schedule.ref_states, schedule.ref_inputs,
                            schedule.kappa]), "gains")


def load_gains(path) -> GainSchedule:
    _, data = _read(path, _GAIN_COLUMNS, "gains")
    s, K, ref_states, ref_inputs, kappa = np.split(
        data, np.cumsum([len(block) for block in _GAIN_BLOCKS[:-1]]), axis=1)
    try:
        return GainSchedule(
            s_knots=s[:, 0].copy(),
            K=K.reshape(-1, 3, 6).copy(),
            ref_states=ref_states.copy(),
            ref_inputs=ref_inputs.copy(),
            kappa=kappa[:, 0].copy())
    except ScheduleError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# simulation series and pole traces
# ---------------------------------------------------------------------------

def save_sim(result: SimResult, path) -> None:
    meta = {
        "scenario": result.scenario,
        "status": result.status,
        "detail": result.detail or "-",
        **{key: _fmt(getattr(result, key)) for key in _SIM_META},
    }
    _write(path, SIM_COLUMNS, result.series, "sim", meta)


def load_sim(path) -> SimResult:
    meta, data = _read(path, SIM_COLUMNS, "sim")
    return SimResult(
        scenario=meta.get("scenario", ""),
        status=meta.get("status", ""),
        detail="" if meta.get("detail") == "-" else meta.get("detail", ""),
        series=data,
        **{key: _meta_float(meta, key, path) for key in _SIM_META})


def save_poles(trace: PoleTrace, path) -> None:
    # re0, im0, re1, im1, ...
    parts = np.stack([trace.poles.real, trace.poles.imag], axis=-1)
    _write(path, _POLE_COLUMNS,
           np.column_stack([trace.s_knots,
                            parts.reshape(len(trace.s_knots), -1)]), "poles")


def load_poles(path) -> PoleTrace:
    _, data = _read(path, _POLE_COLUMNS, "poles")
    poles = data[:, 1::2] + 1j * data[:, 2::2]
    return PoleTrace(s_knots=data[:, 0].copy(), poles=poles)
