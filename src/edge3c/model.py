"""System model: task/device/server/channel parameters and derived scalars.

A workload is ``task_count`` identical tasks, equally likely to be requested.
Each task needs two inputs: one generated at the device (must be uploaded if
the task runs remotely) and one originating remotely (must be downloaded or
cached if the task runs locally), plus it produces an output that lives where
the computation ran. Three service routes follow:

1. compute locally with the remote input already cached (no air traffic),
2. compute locally after downloading the remote input,
3. offload: upload the local input, compute at the server, download the output.

This module owns the configuration types, their validation, and the two
derived per-task power draws that drive the allocation policy:

* local computing power  ``k1 = mu * f_D^2 * w * (I_local + I_remote) / (tau * F)``
* uplink transmit power  ``k2 = P_U * I_local / (F * tau * SE_up)``

Spectral efficiency is ``log2(1 + psd * gain^2 / noise_psd)`` in bit/s/Hz; an
explicit SNR-in-dB override on the channel takes precedence over the PSD
triple (a warning is emitted at load time when both are usable).
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigParseError, DegenerateChannelError, InvalidConfigError, InvalidFieldError
from .units import parse_quantity

_LN2 = math.log(2.0)


class TaskSpec(NamedTuple):
    input_local_bits: float        # generated at the device
    input_remote_bits: float       # originates remotely; cacheable
    output_bits: float
    cycles_per_bit: float
    deadline_s: float


class DeviceParams(NamedTuple):
    cpu_hz: float
    switched_capacitance: float    # effective switched capacitance of the CPU
    cache_bits: float
    avg_power_w: float             # average power budget across the task set
    uplink_psd: float              # transmit PSD, W/Hz


class ServerParams(NamedTuple):
    cpu_hz: float
    downlink_psd: float            # W/Hz


class ChannelParams(NamedTuple):
    gain: float                    # amplitude gain; SNR uses gain^2
    noise_psd: float               # W/Hz
    snr_up_db: float | None = None     # optional overrides; dB wins over the
    snr_down_db: float | None = None   # PSD triple when both are present


class SystemConfig(NamedTuple):
    task_count: int
    task: TaskSpec
    device: DeviceParams
    server: ServerParams
    channel: ChannelParams


def spectral_efficiency(psd: float, gain: float, noise_psd: float) -> float:
    """bit/s/Hz of a link with the given transmit PSD over this channel.

    Strictly increasing in psd; 0 exactly when the SNR rounds to 0, which for
    any practical gain and noise floor means psd == 0.
    """
    for name, v in (("psd", psd), ("gain", gain), ("noise_psd", noise_psd)):
        if not math.isfinite(v):
            raise InvalidFieldError(name, "must be finite")
    if psd < 0:
        raise InvalidFieldError("psd", "must be >= 0")
    if gain <= 0:
        raise InvalidFieldError("gain", "must be > 0")
    if noise_psd <= 0:
        raise InvalidFieldError("noise_psd", "must be > 0")
    # log1p keeps the result nonzero for tiny SNR, where 1 + x rounds to 1
    return math.log1p(psd * gain * gain / noise_psd) / _LN2


def snr_db_to_spectral_efficiency(snr_db: float) -> float:
    if not math.isfinite(snr_db):
        raise InvalidFieldError("snr_db", "must be finite")
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        # past float range (above about 3083 dB), log2(1 + snr) equals
        # log2(snr) to double precision
        return snr_db / 10.0 * math.log2(10.0)
    return math.log1p(snr) / _LN2


def uplink_spectral_efficiency(config: SystemConfig) -> float:
    ch = config.channel
    if ch.snr_up_db is not None:
        return snr_db_to_spectral_efficiency(ch.snr_up_db)
    return spectral_efficiency(config.device.uplink_psd, ch.gain, ch.noise_psd)


def downlink_spectral_efficiency(config: SystemConfig) -> float:
    ch = config.channel
    if ch.snr_down_db is not None:
        return snr_db_to_spectral_efficiency(ch.snr_down_db)
    return spectral_efficiency(config.server.downlink_psd, ch.gain, ch.noise_psd)


def power_coefficients(config: SystemConfig) -> tuple[float, float]:
    """Per-task power draws (k1 local computing, k2 uplink transmission), in W.

    Both scale as 1/F and 1/tau; k1 additionally scales with f_D squared.
    """
    t = config.task
    se_up = uplink_spectral_efficiency(config) if t.input_local_bits > 0 else 0.0
    return _power_draws(config, t.deadline_s, config.device.cpu_hz, se_up)


def _power_draws(config: SystemConfig, tau: float, cpu_hz: float,
                 se_up: float) -> tuple[float, float]:
    """power_coefficients at deadline ``tau`` and device CPU speed ``cpu_hz``,
    given the uplink spectral efficiency (read only with local input)."""
    t, d = config.task, config.device
    f = config.task_count
    k1 = d.switched_capacitance * cpu_hz * cpu_hz * t.cycles_per_bit \
        * (t.input_local_bits + t.input_remote_bits) / (tau * f)
    if t.input_local_bits > 0:
        if se_up <= 0:
            raise DegenerateChannelError("uplink spectral efficiency is 0 but the local input must be uploaded")
        denom = f * tau * se_up
        # a denominator that underflows to 0 puts k2 past float range
        k2 = d.uplink_psd * t.input_local_bits / denom if denom > 0 else math.inf
    else:
        k2 = 0.0
    return k1, k2


# --- validation ------------------------------------------------------------

def _check(violations, cond: bool, field: str, reason: str):
    if not cond:
        violations.append(InvalidFieldError(field, reason))


def _converts_to_float(n: int) -> bool:
    """Whether float(n) succeeds; the power draws divide by F as a float."""
    try:
        float(n)
    except OverflowError:
        return False
    return True


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _nonneg(x) -> str | None:
    if not _finite(x):
        return "must be a finite number"
    return "must be >= 0" if x < 0 else None


def _pos(x) -> str | None:
    if not _finite(x):
        return "must be a finite number"
    return "must be > 0" if x <= 0 else None


def _finite_pos(x) -> str | None:
    return None if _finite(x) and x > 0 else "must be a finite number > 0"


def _finite_if_present(x) -> str | None:
    return None if x is None or _finite(x) else "must be a finite number when present"


#: section -> type -> (field, unit dimension, rule), in field order. A rule
#: gives the reason a value is invalid, or None; a field whose rule is
#: _finite_if_present is optional.
_FIELDS = (
    ("task", TaskSpec, (
        ("input_local_bits", "bits", _nonneg),
        ("input_remote_bits", "bits", _nonneg),
        ("output_bits", "bits", _nonneg),
        ("cycles_per_bit", "dimensionless", _nonneg),
        ("deadline_s", "seconds", _finite_pos))),
    ("device", DeviceParams, (
        ("cpu_hz", "hz", _pos),
        ("switched_capacitance", "dimensionless", _nonneg),
        ("cache_bits", "bits", _nonneg),
        ("avg_power_w", "watts", _pos),
        ("uplink_psd", "watts_per_hz", _pos))),
    ("server", ServerParams, (
        ("cpu_hz", "hz", _finite_pos),
        ("downlink_psd", "watts_per_hz", _finite_pos))),
    ("channel", ChannelParams, (
        ("gain", "dimensionless", _finite_pos),
        ("noise_psd", "watts_per_hz", _finite_pos),
        ("snr_up_db", "dimensionless", _finite_if_present),
        ("snr_down_db", "dimensionless", _finite_if_present))),
)
#: dotted field name -> (unit dimension, rule)
_FIELD_SPECS = {f"{section}.{name}": (dim, rule)
                for section, _, fields in _FIELDS for name, dim, rule in fields}


def field_violation(dotted: str, value) -> InvalidFieldError | None:
    """The violation of one numeric field's own rule by ``value``, or None.

    Rules that relate several fields are checked by derived_violation.
    """
    reason = _FIELD_SPECS[dotted][1](value)
    return None if reason is None else InvalidFieldError(dotted, reason)


def derived_violation(config: SystemConfig) -> InvalidFieldError | None:
    """The violation of a rule on the derived power draws, or None, for a
    config whose fields each pass their own rule.

    Both draws must be finite: a local input uploaded over a link whose
    spectral efficiency underflows to 0 has no finite k2, and a huge CPU
    speed can overflow k1. Either would give the closed form and the oracles
    no common answer.
    """
    try:
        k1, k2 = power_coefficients(config)
    except DegenerateChannelError:
        return InvalidFieldError(_uplink_field(config), "gives an uplink spectral efficiency of 0, "
                                                        "but the local input must be uploaded")
    return _draws_violation(config, k1, k2)


def _uplink_field(config: SystemConfig) -> str:
    return "device.uplink_psd" if config.channel.snr_up_db is None else "channel.snr_up_db"


def _draws_violation(config: SystemConfig, k1: float, k2: float) -> InvalidFieldError | None:
    """The violation of the rule that the power draws k1, k2 are finite, or None."""
    if not math.isfinite(k1):
        return InvalidFieldError("device.cpu_hz", "makes the local computing power k1 overflow")
    if not math.isfinite(k2):
        return InvalidFieldError(_uplink_field(config), "makes the uplink power k2 overflow")
    return None


def config_violations(config: SystemConfig) -> list[InvalidFieldError]:
    """All invariant violations of the config, in field order. Empty means valid."""
    v: list[InvalidFieldError] = []
    _check(v, isinstance(config.task_count, int) and not isinstance(config.task_count, bool),
           "task_count", "must be an integer")
    if isinstance(config.task_count, int) and not isinstance(config.task_count, bool):
        _check(v, config.task_count >= 1, "task_count", "must be >= 1")
        _check(v, _converts_to_float(config.task_count), "task_count", "must be within float range")

    for section, _, fields in _FIELDS:
        values = getattr(config, section)
        for name, _, rule in fields:
            reason = rule(getattr(values, name))
            if reason is not None:
                v.append(InvalidFieldError(f"{section}.{name}", reason))

    if not v:
        derived = derived_violation(config)
        if derived is not None:
            v.append(derived)
    return v


def validate_config(config: SystemConfig) -> SystemConfig:
    """Return the config unchanged iff every invariant holds; otherwise raise
    InvalidConfigError carrying the complete violation list."""
    violations = config_violations(config)
    if violations:
        raise InvalidConfigError(violations)
    return config


# --- loading / serialization ----------------------------------------------

def config_from_dict(raw: dict) -> SystemConfig:
    """Build and validate a SystemConfig from a JSON-shaped dict.

    Accepts human units in string values ("400 MB", "4 GHz", "250 mW/180 kHz").
    Unknown keys are reported as violations rather than ignored.
    """
    if not isinstance(raw, dict):
        raise ConfigParseError("top level must be a JSON object")
    violations: list[InvalidFieldError] = []
    known_top = {"task_count", *(section for section, _, _ in _FIELDS)}
    for key in raw:
        if key not in known_top:
            violations.append(InvalidFieldError(key, "unknown top-level field"))

    task_count = raw.get("task_count")
    if task_count is None:
        violations.append(InvalidFieldError("task_count", "missing"))
        task_count = 1
    elif not isinstance(task_count, int) or isinstance(task_count, bool):
        violations.append(InvalidFieldError("task_count", "must be a JSON integer"))
        task_count = 1

    sections = {}
    for section, section_type, fields in _FIELDS:
        src = raw.get(section)
        if src is None:
            violations.append(InvalidFieldError(section, "missing section"))
            src = {}
        elif not isinstance(src, dict):
            violations.append(InvalidFieldError(section, "must be an object"))
            src = {}
        values = {}
        for key in src:
            if f"{section}.{key}" not in _FIELD_SPECS:
                violations.append(InvalidFieldError(f"{section}.{key}", "unknown field"))
        for name, dim, rule in fields:
            optional = rule is _finite_if_present
            if name not in src:
                if optional:
                    values[name] = None
                else:
                    violations.append(InvalidFieldError(f"{section}.{name}", "missing"))
                    values[name] = 1.0
                continue
            if src[name] is None and optional:
                values[name] = None
                continue
            try:
                values[name] = parse_quantity(src[name], dim, f"{section}.{name}")
            except InvalidFieldError as exc:
                violations.append(exc)
                values[name] = 1.0
        sections[section] = section_type(**values)

    config = SystemConfig(task_count=task_count, task=sections["task"],
                          device=sections["device"], server=sections["server"],
                          channel=sections["channel"])
    violations.extend(config_violations(config))
    if violations:
        raise InvalidConfigError(violations)

    ch = config.channel
    if ch.snr_up_db is not None:
        warnings.warn("channel.snr_up_db overrides the uplink PSD/gain/noise triple", stacklevel=2)
    if ch.snr_down_db is not None:
        warnings.warn("channel.snr_down_db overrides the downlink PSD/gain/noise triple", stacklevel=2)
    return config


def load_config(path) -> SystemConfig:
    """Load, unit-normalize and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: SystemConfig) -> dict:
    out = {"task_count": config.task_count}
    for section, _, fields in _FIELDS:
        values = getattr(config, section)
        # an absent optional field (an SNR override) is left out
        out[section] = {name: getattr(values, name) for name, _, rule in fields
                        if rule is not _finite_if_present or getattr(values, name) is not None}
    return out


def replace_field(config: SystemConfig, dotted: str, value) -> SystemConfig:
    """Return a copy with one dotted field replaced, e.g. ("device.cpu_hz", 2e9)."""
    section, _, name = dotted.partition(".")
    if not name:
        return config._replace(**{section: value})
    return config._replace(**{section: getattr(config, section)._replace(**{name: value})})
