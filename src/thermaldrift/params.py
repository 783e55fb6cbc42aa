"""Physical parameter sets and the flat key-value parameter file format.

Internally everything is SI (N, m, s, J, W, rad) except temperatures, which
stay in deg C because the thermal model is affine in temperature.  The
parameter file carries heat capacity in kJ/K and conductance in kW/K (the
conventional units for these quantities on a datasheet); they are converted
to J/K and W/K at load time by moving the decimal point, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    InvalidOperation,
)

from .errors import ConfigError

__all__ = [
    "VehicleParams",
    "TireParams",
    "ThermalParams",
    "ParamSet",
    "default_params",
    "load_params",
    "save_params",
]


@dataclass(frozen=True)
class VehicleParams:
    m: float        # vehicle mass, kg
    Iz: float       # yaw moment of inertia, kg m^2
    a: float        # CG to front axle, m
    b: float        # CG to rear axle, m
    h_cg: float     # CG height, m
    Kz: float       # weight-transfer first-order gain, 1/s
    J: float        # drivetrain inertia at the rear axle, kg m^2
    Re: float       # effective tire radius, m
    g: float = 9.81  # gravity, m/s^2

    @property
    def L(self) -> float:
        """Wheelbase, m."""
        return self.a + self.b

    def __post_init__(self):
        for name in ("m", "Iz", "a", "b", "h_cg", "Kz", "J", "Re", "g"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"vehicle parameter {name!r} must be positive")


@dataclass(frozen=True)
class TireParams:
    C_alpha0: float  # front cornering stiffness offset, N/rad
    C_alpha1: float  # front cornering stiffness load slope, 1/rad
    Cx: float        # rear longitudinal stiffness, N/rad
    Cy: float        # rear lateral stiffness, N/rad
    mu_f: float      # front friction coefficient (never identified on the
                     # test tire; front axle stays sub-limit, so results are
                     # insensitive to the exact value)

    def __post_init__(self):
        if self.Cx <= 0.0 or self.Cy <= 0.0:
            raise ConfigError("rear tire stiffnesses must be positive")
        if self.mu_f <= 0.0:
            raise ConfigError("front friction coefficient must be positive")


@dataclass(frozen=True)
class ThermalParams:
    mu_r0: float      # rear friction at 0 degC
    mu_r1: float      # rear friction slope, 1/degC
    C_tire: float     # rear tread heat capacity, J/K
    KA_tire: float    # rear tread thermal conductance, W/K
    alpha_tire: float  # fraction of slip power heating the tire
    eps_tire: float   # rolling resistance coefficient
    theta_out: float  # lumped sink temperature (ambient air + track), degC

    #: declared validity range of the friction map, degC
    THETA_RANGE = (0.0, 120.0)

    def __post_init__(self):
        if self.C_tire <= 0.0 or self.KA_tire <= 0.0:
            raise ConfigError("thermal capacity and conductance must be positive")
        if not 0.0 <= self.alpha_tire <= 1.0:
            raise ConfigError("partition coefficient must lie in [0, 1]")
        if self.eps_tire < 0.0:
            raise ConfigError("rolling resistance coefficient must be >= 0")
        lo, hi = self.THETA_RANGE
        for theta in (lo, hi):
            if self.mu_r0 + self.mu_r1 * theta <= 0.0:
                raise ConfigError(
                    f"friction map non-positive at {theta} degC; "
                    "mu_r0/mu_r1 invalid over the operating range"
                )


@dataclass(frozen=True)
class ParamSet:
    vehicle: VehicleParams
    tire: TireParams
    thermal: ThermalParams


def default_params() -> ParamSet:
    """Identified full-size test vehicle parameter set."""
    vehicle = VehicleParams(
        m=1496.0, Iz=2241.0, a=1.22, b=1.23, h_cg=0.45,
        Kz=5.0, J=15.0, Re=0.32,
    )
    tire = TireParams(
        C_alpha0=-18215.0, C_alpha1=34.50,
        Cx=101e3, Cy=103e3, mu_f=0.95,
    )
    thermal = ThermalParams(
        mu_r0=1.070, mu_r1=-3.967e-3,
        C_tire=4905.0, KA_tire=762.0,
        alpha_tire=0.5, eps_tire=0.01,
        # Lumped sink temperature.  The conductance folds in contact-patch
        # conduction, so this sits near the track surface temperature rather
        # than the air temperature.
        theta_out=45.0,
    )
    return ParamSet(vehicle, tire, thermal)


#: a decimal context that never rounds, so a decimal point moves exactly
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# file key -> (group, attribute, power of ten applied when loading)
_KEYMAP = {
    "mass":       ("vehicle", "m", 0),
    "Iz":         ("vehicle", "Iz", 0),
    "a":          ("vehicle", "a", 0),
    "b":          ("vehicle", "b", 0),
    "h_cg":       ("vehicle", "h_cg", 0),
    "Kz":         ("vehicle", "Kz", 0),
    "J":          ("vehicle", "J", 0),
    "Re":         ("vehicle", "Re", 0),
    "g":          ("vehicle", "g", 0),
    "C_alpha0":   ("tire", "C_alpha0", 0),
    "C_alpha1":   ("tire", "C_alpha1", 0),
    "Cx":         ("tire", "Cx", 0),
    "Cy":         ("tire", "Cy", 0),
    "mu_f":       ("tire", "mu_f", 0),
    "mu_r0":      ("thermal", "mu_r0", 0),
    "mu_r1":      ("thermal", "mu_r1", 0),
    "C_tire":     ("thermal", "C_tire", 3),     # kJ/K -> J/K
    "KA_tire":    ("thermal", "KA_tire", 3),    # kW/K -> W/K
    "alpha_tire": ("thermal", "alpha_tire", 0),
    "eps_tire":   ("thermal", "eps_tire", 0),
    "theta_out":  ("thermal", "theta_out", 0),
}


def parse_keyvalue(path, number=float) -> dict:
    """Parse a flat ``key value`` text file of finite numbers.  '#' starts a
    comment.  ``number`` converts each value's text (``float``, or
    ``Decimal`` to keep its decimal digits)."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace("=", " ").split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key value', got {raw!r}")
            key, text = parts
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                value = number(text)
                finite = math.isfinite(value)
            except (ValueError, InvalidOperation) as exc:
                raise ConfigError(f"{path}:{lineno}: bad number {text!r} for {key!r}") from exc
            if not finite:
                raise ConfigError(
                    f"{path}:{lineno}: {key} must be a finite number, got {text!r}")
            values[key] = value
    return values


def load_params(path) -> ParamSet:
    """Load a parameter set; unknown keys are errors so typos cannot pass."""
    values = parse_keyvalue(path, Decimal)
    unknown = sorted(set(values) - set(_KEYMAP))
    if unknown:
        raise ConfigError(f"{path}: unknown parameter keys: {', '.join(unknown)}")
    missing = sorted(k for k in _KEYMAP if k not in values and k != "g")
    if missing:
        raise ConfigError(f"{path}: missing parameter keys: {', '.join(missing)}")
    groups = {"vehicle": {}, "tire": {}, "thermal": {}}
    for key, value in values.items():
        group, attr, places = _KEYMAP[key]
        groups[group][attr] = float(value.scaleb(places, _EXACT))
    return ParamSet(
        vehicle=VehicleParams(**groups["vehicle"]),
        tire=TireParams(**groups["tire"]),
        thermal=ThermalParams(**groups["thermal"]),
    )


def save_params(params: ParamSet, path) -> None:
    """Write a parameter file that :func:`load_params` reads back exactly:
    each value's shortest round-trip digits, with the decimal point moved
    for the file's units."""
    with open(path, "w") as fh:
        for key, (group, attr, places) in _KEYMAP.items():
            value = Decimal(repr(getattr(getattr(params, group), attr)))
            fh.write(f"{key} {value.scaleb(-places, _EXACT)}\n")
