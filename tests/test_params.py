from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermaldrift.errors import ConfigError
from thermaldrift.params import (
    ThermalParams,
    VehicleParams,
    default_params,
    load_params,
    parse_keyvalue,
    save_params,
)


def test_default_values():
    p = default_params()
    assert p.vehicle.m == 1496.0
    assert p.vehicle.L == pytest.approx(2.45)
    assert p.thermal.mu_r0 == 1.070
    assert p.thermal.mu_r1 == -3.967e-3
    assert p.thermal.C_tire == 4905.0   # J/K, internal SI
    assert p.thermal.KA_tire == 762.0   # W/K


def test_wheelbase_is_sum():
    vp = VehicleParams(m=1000.0, Iz=1500.0, a=1.0, b=1.5, h_cg=0.5,
                       Kz=5.0, J=10.0, Re=0.3)
    assert vp.L == vp.a + vp.b


def test_save_load_round_trip(tmp_path):
    p = default_params()
    path = tmp_path / "params.txt"
    save_params(p, path)
    q = load_params(path)
    assert q == p


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(C_tire=_positive, KA_tire=_positive)
@example(C_tire=4024.0319291453975, KA_tire=762.0)
@settings(max_examples=300, deadline=None)
def test_save_load_round_trip_kilo_units(tmp_path_factory, C_tire, KA_tire):
    """The heat capacity and conductance, which the file holds in kJ/K and
    kW/K, read back bit for bit at any positive value."""
    p = default_params()
    p = replace(p, thermal=replace(p.thermal, C_tire=C_tire, KA_tire=KA_tire))
    path = tmp_path_factory.mktemp("params") / "params.txt"
    save_params(p, path)
    q = load_params(path)
    assert (q.thermal.C_tire, q.thermal.KA_tire) == (C_tire, KA_tire)
    assert q == p


def test_load_converts_thermal_units(tmp_path):
    p = default_params()
    path = tmp_path / "params.txt"
    save_params(p, path)
    text = path.read_text()
    # the file carries kJ/K and kW/K
    assert "C_tire 4.905" in text
    assert "KA_tire 0.762" in text


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "params.txt"
    save_params(default_params(), path)
    with open(path, "a") as fh:
        fh.write("mas 1500\n")
    with pytest.raises(ConfigError, match="mas"):
        load_params(path)


def test_missing_key_is_named(tmp_path):
    path = tmp_path / "params.txt"
    save_params(default_params(), path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("Kz ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="Kz"):
        load_params(path)


def test_bad_number_reports_line(tmp_path):
    """A value that is not a finite number is a configuration error naming
    its line, for the parameter and planner files alike, whether it is read
    as a float or, as the parameter file is, as a decimal."""
    path = tmp_path / "params.txt"
    for text in ("twelve", "nan", "inf", "-inf", "sNaN", "1e400"):
        path.write_text(f"mass 1496\nIz {text}\n")
        with pytest.raises(ConfigError, match=r":2: "):
            parse_keyvalue(path)
        with pytest.raises(ConfigError, match=r":2: "):
            load_params(path)


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("mass 1496\nmass 1497\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_keyvalue(path)


def test_comments_and_equals_accepted(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("# a comment\nmass = 1496  # trailing\n")
    assert parse_keyvalue(path) == {"mass": 1496.0}


def test_nonpositive_vehicle_param_rejected():
    with pytest.raises(ConfigError):
        VehicleParams(m=-1.0, Iz=1.0, a=1.0, b=1.0, h_cg=0.5,
                      Kz=5.0, J=10.0, Re=0.3)


def test_friction_map_must_stay_positive():
    with pytest.raises(ConfigError):
        ThermalParams(mu_r0=1.0, mu_r1=-0.02, C_tire=4905.0, KA_tire=762.0,
                      alpha_tire=0.5, eps_tire=0.01, theta_out=45.0)
