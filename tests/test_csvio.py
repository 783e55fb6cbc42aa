import dataclasses
import math

import numpy as np
import pytest

from thermaldrift import csvio
from thermaldrift.cli import main
from thermaldrift.equilibrium import quasi_steady_sweep
from thermaldrift.errors import ConfigError
from thermaldrift.sim import SIM_COLUMNS, PoleTrace
from thermaldrift.trajopt import IX, DynamicTrajectory

from conftest import BETA, RADIUS, THETA0, edit_cell


@pytest.fixture(scope="module")
def small_sweep(params):
    return quasi_steady_sweep(params, RADIUS, BETA, THETA0, 2.0)


def assert_fields_equal(loaded, original):
    """Every dataclass field of ``loaded`` equals ``original``'s, arrays
    through ``np.array_equal``."""
    for f in dataclasses.fields(original):
        value, expected = getattr(loaded, f.name), getattr(original, f.name)
        if isinstance(expected, np.ndarray):
            assert np.array_equal(value, expected), f.name
        else:
            assert value == expected, f.name


def test_quasi_steady_round_trip(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    assert_fields_equal(csvio.load_quasi_steady(path), small_sweep)


def synthetic_dynamic():
    rng = np.random.default_rng(3)
    N = 7
    states = rng.normal(size=(N + 1, 12))
    # a transition travels forward: its s column strictly increases
    states[:, IX.s] = np.cumsum(np.abs(states[:, IX.s]))
    return DynamicTrajectory(
        t=0.05 * np.arange(N + 1),
        states=states,
        inputs=rng.normal(size=(N, 2)),
        h=0.05, J=12.5, input_cost=10.0, distance_cost=2.5,
        terminal_residual=1e-9, max_defect=1e-8, n_outer=42)


def test_dynamic_round_trip(tmp_path):
    traj = synthetic_dynamic()
    path = tmp_path / "dyn.csv"
    csvio.save_dynamic(traj, path)
    assert_fields_equal(csvio.load_dynamic(path), traj)


def test_dynamic_state_columns_follow_ix():
    """IX.names, the transition file's state columns, lists the components
    in index order."""
    assert [getattr(IX, name) for name in IX.names] == list(range(IX.n))


def test_gains_round_trip(tmp_path, params, small_sweep):
    from thermaldrift.control import build_schedule
    sched = build_schedule(params, small_sweep)
    path = tmp_path / "gains.csv"
    csvio.save_gains(sched, path)
    assert_fields_equal(csvio.load_gains(path), sched)


def test_sim_round_trip(tmp_path, steady_results):
    res = steady_results["thermal"]
    path = tmp_path / "sim.csv"
    csvio.save_sim(res, path)
    assert_fields_equal(csvio.load_sim(path), res)


def synthetic_poles():
    rng = np.random.default_rng(5)
    return PoleTrace(s_knots=0.25 * np.arange(9),
                     poles=rng.normal(size=(9, 6))
                     + 1j * rng.normal(size=(9, 6)))


def test_poles_round_trip(tmp_path):
    trace = synthetic_poles()
    path = tmp_path / "poles.csv"
    csvio.save_poles(trace, path)
    assert_fields_equal(csvio.load_poles(path), trace)


def test_writers_match_row_loops(tmp_path, params, small_sweep):
    """Each writer stacks its columns into the rows a per-row loop builds,
    bit for bit: the loops are the reference for the column layout."""
    from thermaldrift.control import build_schedule
    sweep, dyn, trace = small_sweep, synthetic_dynamic(), synthetic_poles()
    sched = build_schedule(params, sweep)
    N = dyn.inputs.shape[0]
    cases = [
        (csvio.save_quasi_steady, sweep, csvio._QS_COLUMNS, "quasi_steady",
         [[sweep.s[k], sweep.t[k], sweep.theta[k], sweep.Q[k], eq.r,
           eq.omega, eq.dFz, eq.delta, eq.tau, eq.mu_r, eq.residual_norm]
          for k, eq in enumerate(sweep.equilibria)]),
        (csvio.save_dynamic, dyn, csvio._DYN_COLUMNS, "dynamic",
         [[dyn.t[k], *dyn.states[k], *(dyn.inputs[k] if k < N else [0, 0])]
          for k in range(N + 1)]),
        (csvio.save_gains, sched, csvio._GAIN_COLUMNS, "gains",
         [[s, *K.ravel()] for s, K in zip(sched.s_knots, sched.K)]),
        (csvio.save_poles, trace, csvio._POLE_COLUMNS, "poles",
         [[s, *(part for lam in poles for part in (lam.real, lam.imag))]
          for s, poles in zip(trace.s_knots, trace.poles)]),
    ]
    for save, value, columns, kind, rows in cases:
        path = tmp_path / f"{kind}.csv"
        save(value, path)
        _, data = csvio._read(path, columns, kind)
        assert np.array_equal(data.view(np.uint64),
                              np.array(rows, dtype=float).view(np.uint64)), \
            kind


#: signed zeros, the smallest subnormal, another subnormal, huge values,
#: integer-valued floats and values with long shortest reprs
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -2.0,
               2.0 ** 53, 1e16, 12345678.0, 0.1, 1.0 / 3.0, math.pi,
               math.inf, -math.inf, math.nan]
EDGE_INTS = [0, -1, 7, 2 ** 31, -(2 ** 53), 10 ** 17]


def repr_formatted(columns, rows, meta):
    """A CSV file's text with every number written as repr(float(x))."""
    lines = [f"# {key} {value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(repr(float(x)) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("form", ["mixed_list", "ndarray"])
def test_write_matches_repr_formatting(tmp_path, form):
    """The writer's bytes equal repr(float(x)) per value, for rows of numpy
    floats, Python floats and Python ints."""
    rows = [[np.float64(v), v, EDGE_INTS[i % len(EDGE_INTS)], -v]
            for i, v in enumerate(EDGE_FLOATS)]
    if form == "ndarray":
        rows = np.array(rows, dtype=float)
    columns, meta = ("a", "b", "c", "d"), {"kind": "edge", "n": 4}
    path = tmp_path / "edge.csv"
    csvio._write(path, columns, rows, "edge", {"n": 4})
    assert path.read_bytes() == repr_formatted(columns, rows, meta).encode()


def run_column_rows():
    """Rows whose columns hold runs of bit-equal cells: runs longer than a
    block, a run across a block boundary, alternating 0.0 and -0.0 runs,
    runs of NaN and of each infinity, an all-equal column and a column
    with no run."""
    B = csvio._BLOCK_ROWS
    n = 2 * B + 37
    rng = np.random.default_rng(11)
    across = rng.normal(size=n)
    # one run across the first block boundary, then one longer than a
    # block across the second
    across[B - 9:B + 7] = 0.1
    across[B + 7:2 * B + 20] = 1.0 / 3.0
    lengths = np.arange(n) % 5 + 1
    signs = np.repeat(np.resize([1.0, -1.0], n), lengths)[:n]
    zeros = np.copysign(0.0, signs)
    special = np.repeat(np.resize([math.nan, math.inf, -math.inf, 2.5], n),
                        lengths[::-1])[:n]
    return np.column_stack([np.full(n, math.pi), across, zeros, special,
                            rng.normal(size=n)])


@pytest.mark.parametrize("n_rows", [None, 1, 0], ids=["runs", "one", "none"])
def test_write_runs_match_repr_formatting(tmp_path, n_rows):
    """Formatting once per run of bit-equal cells writes the bytes of
    repr(float(x)) on every cell."""
    rows = run_column_rows()[:n_rows]
    columns = ("equal", "across", "zeros", "special", "noise")
    path = tmp_path / "runs.csv"
    csvio._write(path, columns, rows, "runs", {"n": 5})
    assert path.read_bytes() == \
        repr_formatted(columns, rows, {"kind": "runs", "n": 5}).encode()


def test_cli_outputs_match_repr_formatting(tmp_path):
    """Every CSV that plan-steady and simulate --scenario steady-compare
    write equals the per-cell repr of its own loaded array and metadata."""
    out = tmp_path / "out"
    assert main(["plan-steady", "--out", str(out), "--arc", "20"]) == 0
    assert main(["simulate", "--out", str(out),
                 "--scenario", "steady-compare"]) == 0
    # the plan commands write no gains.csv: simulate writes each run's
    assert not (out / "gains.csv").exists()
    files = [("trajectory.csv", csvio._QS_COLUMNS, "quasi_steady")]
    for name in ("matched", "mu0.73", "mu0.8"):
        files += [(f"sim_{name}.csv", SIM_COLUMNS, "sim"),
                  (f"poles_{name}.csv", csvio._POLE_COLUMNS, "poles"),
                  (f"gains_{name}.csv", csvio._GAIN_COLUMNS, "gains")]
    for name, columns, kind in files:
        meta, data = csvio._read(out / name, columns, kind)
        assert (out / name).read_bytes() == \
            repr_formatted(columns, data, meta).encode(), name


def test_corrupt_row_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = path.read_text().splitlines()
    lines[8] = lines[8].replace(",", ",,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r":9"):
        csvio.load_quasi_steady(path)


def test_bad_number_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[2] = "oops"
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r":8"):
        csvio.load_quasi_steady(path)


def test_transition_s_must_increase(tmp_path, transition):
    """Two swapped s cells of a transition are a configuration error naming
    the file and the column."""
    path = tmp_path / "dyn.csv"
    csvio.save_dynamic(transition[1], path)
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = csvio._DYN_COLUMNS.index("s")
    first, second = (lines[header + k].split(",") for k in (3, 4))
    first[col], second[col] = second[col], first[col]
    lines[header + 3], lines[header + 4] = ",".join(first), ",".join(second)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="dyn.csv: column s must be "
                                          "strictly increasing"):
        csvio.load_dynamic(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "qs.csv"
    path.write_text("# kind quasi_steady\na,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        csvio.load_quasi_steady(path)


@pytest.mark.parametrize("loader, columns, kind", [
    (csvio.load_quasi_steady, csvio._QS_COLUMNS, "quasi_steady"),
    (csvio.load_dynamic, csvio._DYN_COLUMNS, "dynamic"),
    (csvio.load_gains, csvio._GAIN_COLUMNS, "gains"),
    (csvio.load_sim, SIM_COLUMNS, "sim"),
    (csvio.load_poles, csvio._POLE_COLUMNS, "poles"),
], ids=["quasi_steady", "dynamic", "gains", "sim", "poles"])
def test_header_without_rows_rejected(tmp_path, loader, columns, kind):
    """A file cut after its header row is a ConfigError naming the file."""
    path = tmp_path / "cut.csv"
    path.write_text(f"# kind {kind}\n" + ",".join(columns) + "\n")
    with pytest.raises(ConfigError, match="cut.csv: no data rows"):
        loader(path)


@pytest.fixture
def gains_file(tmp_path, params, small_sweep):
    """A gain schedule's file, as simulate writes it."""
    from thermaldrift.control import build_schedule
    path = tmp_path / "gains.csv"
    csvio.save_gains(build_schedule(params, small_sweep), path)
    return path


def test_non_finite_gain_named(gains_file):
    """An infinite K cell is a ConfigError naming its line and column."""
    edit_cell(gains_file, 0, "K01", "inf")
    with pytest.raises(ConfigError, match="gains.csv:3: K01 must be a finite "
                                          "number, got 'inf'"):
        csvio.load_gains(gains_file)


def test_gains_repeated_knot_named(gains_file):
    """Knots that repeat are a ConfigError naming the file."""
    edit_cell(gains_file, 3, "s", "0.5")
    with pytest.raises(ConfigError) as info:
        csvio.load_gains(gains_file)
    assert str(info.value) == (f"{gains_file}: schedule knots must be "
                               "strictly increasing")


def test_gains_with_reference_columns_rejected(gains_file, small_sweep):
    """The former 35-column layout, which repeated the plan's reference
    after the gains (12 ref_ states, 3 ref_ inputs and kappa), is refused on
    its header like any other: a ConfigError naming the file and line."""
    gains = csvio.load_gains(gains_file)
    states = ("Vx", "Vy", "r", "omega", "dFz", "theta_r", "e", "s", "dpsi",
              "X", "Y", "psi")
    columns = ("s", *(f"K{i}{j}" for i in range(3) for j in range(6)),
               *(f"ref_{name}" for name in states),
               "ref_delta", "ref_Fxf", "ref_tau", "kappa")
    rows = []
    for s, K in zip(gains.s_knots.tolist(), gains.K):
        st, u, kappa = small_sweep.sample(s)
        rows.append([s, *K.ravel(), *(getattr(st, name) for name in states),
                     u.delta, u.Fxf, u.tau, kappa])
    assert len(columns) == len(rows[0]) == 35
    csvio._write(gains_file, columns, rows, "gains")
    with pytest.raises(ConfigError) as info:
        csvio.load_gains(gains_file)
    message = str(info.value)
    assert message.startswith(f"{gains_file}:2: unexpected header "
                              "('s', 'K00', ")
    assert "'ref_Vx'" in message


def test_wrong_kind_rejected(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    with pytest.raises(ConfigError,
                       match="kind 'quasi_steady', expected 'gains'"):
        csvio.load_gains(path)


def test_missing_metadata_named(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("# radius")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="radius"):
        csvio.load_quasi_steady(path)


def with_metadata(path, key, text):
    """Rewrite ``path``'s ``# key`` metadata line to hold ``text``."""
    lines = [f"# {key} {text}" if ln.startswith(f"# {key} ") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("key, text, expected", [
    ("h", "nan", "a finite number"),
    ("n_outer", "inf", "a whole number"),
    ("n_outer", "1.5", "a whole number"),
], ids=["h_nan", "n_outer_inf", "n_outer_fraction"])
def test_bad_dynamic_metadata_named(tmp_path, key, text, expected):
    path = tmp_path / "dyn.csv"
    csvio.save_dynamic(synthetic_dynamic(), path)
    with_metadata(path, key, text)
    with pytest.raises(ConfigError, match=f"dyn.csv: metadata {key} must be "
                                          f"{expected}, got '{text}'"):
        csvio.load_dynamic(path)


def test_thermal_flag_must_be_zero_or_one(tmp_path, small_sweep):
    path = tmp_path / "qs.csv"
    csvio.save_quasi_steady(small_sweep, path)
    with_metadata(path, "thermal", "2")
    with pytest.raises(ConfigError,
                       match="qs.csv: metadata thermal must be 0 or 1"):
        csvio.load_quasi_steady(path)
