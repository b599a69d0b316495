import math

import pytest

from edge3c import InvalidFieldError, parse_quantity
from edge3c.units import format_hz


def test_plain_numbers_pass_through():
    assert parse_quantity(3, "bits") == 3.0
    assert parse_quantity(1.5e9, "hz") == 1.5e9
    assert parse_quantity(0.143, "seconds") == 0.143
    assert parse_quantity("2.5e7", "bits") == 2.5e7


@pytest.mark.parametrize("text,dim,expect", [
    ("400 MB", "bits", 3.2e9),
    ("16 Mbit", "bits", 1.6e7),
    ("1 kB", "bits", 8e3),
    ("2 Gbit", "bits", 2e9),
    ("7 B", "bits", 56.0),
    ("4 GHz", "hz", 4e9),
    ("180 kHz", "hz", 1.8e5),
    ("143 ms", "seconds", 143 * 1e-3),
    ("2 us", "seconds", 2e-6),
    ("35 W", "watts", 35.0),
    ("250 mW", "watts", 0.25),
])
def test_suffixed_quantities(text, dim, expect):
    assert parse_quantity(text, dim) == pytest.approx(expect, rel=0, abs=0)


def test_psd_quotient_form():
    assert parse_quantity("250 mW/180 kHz", "watts_per_hz") == 0.25 / 180e3
    assert parse_quantity("5 W/180 kHz", "watts_per_hz") == 5.0 / 180e3
    # bare Hz denominator defaults to 1
    assert parse_quantity("2 mW/kHz", "watts_per_hz") == 2e-3 / 1e3
    assert parse_quantity("1.4e-6", "watts_per_hz") == 1.4e-6


def test_dimensionless_rejects_units():
    assert parse_quantity("10", "dimensionless") == 10.0
    with pytest.raises(InvalidFieldError):
        parse_quantity("10 W", "dimensionless")


@pytest.mark.parametrize("bad,dim", [
    ("400 parsecs", "bits"),
    ("GHz", "hz"),
    ("1 W/0 Hz", "watts_per_hz"),
    ("4 GHz", "seconds"),
    ("1/2", "bits"),
    (True, "bits"),
    (None, "bits"),
    ([1], "hz"),
    ("1 W/. kHz", "watts_per_hz"),  # a denominator that float() rejects
    ("1.4 W", "watts_per_hz"),  # a PSD without a bandwidth
    ("1 Hz/kHz", "watts_per_hz"),
    ("1 W/s", "watts_per_hz"),
    ("1 W/kHz", "bits"),
])
def test_rejects_garbage(bad, dim):
    with pytest.raises(InvalidFieldError):
        parse_quantity(bad, dim)


def test_error_carries_field_name():
    with pytest.raises(InvalidFieldError) as exc:
        parse_quantity("1 bogon", "bits", field="device.cache_bits")
    assert exc.value.field == "device.cache_bits"


def test_formatting_round_numbers():
    assert format_hz(4e9) == "4 GHz"
    assert format_hz(1.8e5) == "180 kHz"
    assert math.isclose(parse_quantity(format_hz(123456.0), "hz"), 123456.0, rel_tol=1e-3)
