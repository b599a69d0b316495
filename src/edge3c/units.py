"""Human-unit parsing and formatting for the config boundary.

Config files may state quantities either as plain numbers (interpreted as base
SI units: bits, Hz, seconds, watts, W/Hz) or as strings with a unit suffix,
e.g. ``"400 MB"``, ``"4 GHz"``, ``"0.143 s"``. Power spectral densities
additionally accept a quotient form matching how such numbers are usually
quoted, e.g. ``"250 mW/180 kHz"``. Everything is normalized to SI here, at the
boundary; the rest of the package never sees a unit string.
"""

from __future__ import annotations

import re

from .errors import InvalidFieldError

# Byte units follow SI decimal prefixes (1 MB = 8e6 bits).
_BIT_UNITS = {
    "bit": 1.0,
    "kbit": 1e3,
    "Mbit": 1e6,
    "Gbit": 1e9,
    "B": 8.0,
    "kB": 8e3,
    "KB": 8e3,
    "MB": 8e6,
    "GB": 8e9,
}

_HZ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

_SECOND_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "min": 60.0}

_WATT_UNITS = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "kW": 1e3}

_UNIT_TABLES = {
    "bits": _BIT_UNITS,
    "hz": _HZ_UNITS,
    "seconds": _SECOND_UNITS,
    "watts": _WATT_UNITS,
}

_NUMBER = r"([+-]?[\d.]+(?:[eE][+-]?\d+)?)"
#: number [unit] [/ [number] unit], matched against the stripped string; no two
#: whitespace runs can touch, so a failed match backtracks in linear time
_QUANTITY_RE = re.compile(rf"{_NUMBER}(?:\s*([A-Za-z]+))?(?:\s*/\s*(?:{_NUMBER}\s*)?([A-Za-z]+))?")


def parse_quantity(value, dimension: str, field: str = "value") -> float:
    """Normalize ``value`` to base SI units for the given dimension.

    dimension: one of "bits", "hz", "seconds", "watts", "watts_per_hz",
    "dimensionless". Numbers pass through unchanged; strings must carry a
    recognized unit (or none, meaning base units).
    """
    if isinstance(value, bool):
        raise InvalidFieldError(field, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer past float range
            raise InvalidFieldError(field, "must be within float range") from None
    if not isinstance(value, str):
        raise InvalidFieldError(field, f"expected number or quantity string, got {type(value).__name__}")

    m = _QUANTITY_RE.fullmatch(value.strip())
    if not m:
        raise InvalidFieldError(field, f"unparseable quantity {value!r}")
    num_s, unit, den_num_s, den_unit = m.groups()
    try:
        num = float(num_s)
        den = float(den_num_s) if den_num_s else 1.0
    except ValueError:
        raise InvalidFieldError(field, f"bad number in {value!r}") from None

    if dimension == "watts_per_hz":
        # "1.4e-6", "1.4e-6 W/Hz", or the quoted form "250 mW/180 kHz".
        if unit is None and den_unit is None:
            return num
        if den_unit is None:
            raise InvalidFieldError(field, f"{value!r}: PSD needs the form '<power>/<bandwidth>'")
        if unit not in _WATT_UNITS:
            raise InvalidFieldError(field, f"unknown power unit {unit!r}")
        if den_unit not in _HZ_UNITS:
            raise InvalidFieldError(field, f"unknown bandwidth unit {den_unit!r}")
        if den == 0:
            raise InvalidFieldError(field, f"{value!r}: zero bandwidth in PSD")
        return num * _WATT_UNITS[unit] / (den * _HZ_UNITS[den_unit])

    if den_unit is not None:
        raise InvalidFieldError(field, f"{value!r}: quotient units not valid for {dimension}")
    if dimension == "dimensionless":
        if unit is not None:
            raise InvalidFieldError(field, f"{value!r}: expected a bare number")
        return num
    table = _UNIT_TABLES.get(dimension)
    if table is None:
        raise InvalidFieldError(field, f"unknown dimension {dimension!r}")
    if unit is None:
        return num
    if unit not in table:
        raise InvalidFieldError(field, f"unknown {dimension} unit {unit!r}")
    return num * table[unit]


def format_hz(value: float) -> str:
    """Engineering-notation frequency, e.g. "4 GHz" or "180 kHz"."""
    for factor, suffix in ((1e9, "GHz"), (1e6, "MHz"), (1e3, "kHz")):
        if abs(value) >= factor:
            return f"{value / factor:.4g} {suffix}"
    return f"{value:.4g} Hz"
