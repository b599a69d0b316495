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

Spectral efficiency is ``log2(1 + psd * gain^2 / noise_psd)`` in bit/s/Hz.
A channel's ``snr_up_db`` / ``snr_down_db``, when present, sets its link's
spectral efficiency instead, and the PSD triple of that link goes unused.
The SNR, k1 and k2 are range-safe, as ``bounds._ratio`` is: a rejected draw is past range exactly.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .bounds import _HUGE, _TINY, _exact, _ratio
from .errors import ConfigParseError, DegenerateChannelError, InvalidConfigError, InvalidFieldError
from .units import parse_quantity

_LN2 = math.log(2.0)

#: largest config file load_config reads; the shipped configs take about 550 bytes
_MAX_CONFIG_BYTES = 1 << 20


# --- the configuration records ---------------------------------------------

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _nonneg(x) -> str | None:
    if not _finite(x):
        return "must be a finite number"
    return "must be >= 0" if x < 0 else None


def _finite_pos(x) -> str | None:
    return None if _finite(x) and x > 0 else "must be a finite number > 0"


def _finite_if_present(x) -> str | None:
    return None if x is None or _finite(x) else "must be a finite number when present"


#: section, record name, then each field's (name, unit dimension, rule), in
#: field order: the one list of the config's fields. A rule gives the reason
#: a value is invalid, or None; a field whose rule is _finite_if_present is
#: optional, defaults to None, and comes after every required field.
_FIELDS = (
    ("task", "TaskSpec", (
        ("input_local_bits", "bits", _nonneg),                 # generated at the device
        ("input_remote_bits", "bits", _nonneg),                # originates remotely; cacheable
        ("output_bits", "bits", _nonneg),
        ("cycles_per_bit", "dimensionless", _nonneg),
        ("deadline_s", "seconds", _finite_pos))),
    ("device", "DeviceParams", (
        ("cpu_hz", "hz", _finite_pos),
        ("switched_capacitance", "dimensionless", _nonneg),    # effective switched capacitance of the CPU
        ("cache_bits", "bits", _nonneg),
        ("avg_power_w", "watts", _finite_pos),                 # average power budget across the task set
        ("uplink_psd", "watts_per_hz", _finite_pos))),         # transmit PSD, W/Hz
    ("server", "ServerParams", (
        ("cpu_hz", "hz", _finite_pos),
        ("downlink_psd", "watts_per_hz", _finite_pos))),       # W/Hz
    ("channel", "ChannelParams", (
        ("gain", "dimensionless", _finite_pos),                # amplitude gain; SNR uses gain^2
        ("noise_psd", "watts_per_hz", _finite_pos),            # W/Hz
        ("snr_up_db", "dimensionless", _finite_if_present),    # optional overrides of the PSD
        ("snr_down_db", "dimensionless", _finite_if_present))),  # triple (see the module docstring)
)
#: one immutable record per section, in _FIELDS order
_RECORDS = tuple(
    namedtuple(record, [name for name, _, _ in fields], module=__name__,
               defaults=[None for _, _, rule in fields if rule is _finite_if_present])
    for _, record, fields in _FIELDS)
TaskSpec, DeviceParams, ServerParams, ChannelParams = _RECORDS
SystemConfig = namedtuple("SystemConfig", ["task_count", *(section for section, _, _ in _FIELDS)],
                          module=__name__)
#: dotted field name -> (unit dimension, rule)
_FIELD_SPECS = {f"{section}.{name}": (dim, rule)
                for section, _, fields in _FIELDS for name, dim, rule in fields}


def spectral_efficiency(psd: float, gain: float, noise_psd: float) -> float:
    """bit/s/Hz of a link with the given transmit PSD over this channel.

    Strictly increasing in psd; 0 exactly when the exact SNR rounds to 0,
    which for any practical gain and noise floor means psd == 0. An SNR past
    float range is taken as a sum of logarithms.
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
    if not (_TINY <= (snr := psd * gain) and _TINY <= (snr := snr * gain)
            and _TINY <= (snr := snr / noise_psd) <= _HUGE):
        snr = _exact((psd, gain, gain), (noise_psd,))
        if snr == math.inf:  # log2(1 + SNR) is log2(SNR) to double precision
            return (math.log(psd) + 2.0 * math.log(gain) - math.log(noise_psd)) / _LN2
    return math.log1p(snr) / _LN2


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
    f, mu, w = config.task_count, d.switched_capacitance, t.cycles_per_bit
    i_total = t.input_local_bits + t.input_remote_bits
    if not (_TINY <= (n := mu * cpu_hz) and _TINY <= (n := n * cpu_hz) and _TINY <= (n := n * w)
            and _TINY <= (n := n * i_total) and _TINY <= (den := tau * f)
            and _TINY <= (k1 := n / den) <= _HUGE):
        # an I_total past float range is half of each input, which is exact, times 2
        bits = (i_total,) if i_total <= _HUGE else (t.input_local_bits / 2 + t.input_remote_bits / 2, 2.0)
        k1 = _exact((mu, cpu_hz, cpu_hz, w, *bits), (tau, f))
    if t.input_local_bits > 0 and se_up <= 0:
        raise DegenerateChannelError("uplink spectral efficiency is 0 but the local input must be uploaded")
    return k1, _ratio(d.uplink_psd, t.input_local_bits, f, tau, se_up) if t.input_local_bits > 0 else 0.0


# --- validation ------------------------------------------------------------

def _task_count(n) -> str | None:
    if not isinstance(n, int) or isinstance(n, bool):
        return "must be an integer"
    float(n)  # OverflowError past float range: the power draws divide by F as a float
    return "must be >= 1" if n < 1 else None


def _reason(rule, x) -> str | None:
    """rule(x), where an integer that float() cannot hold fails every rule."""
    try:
        return rule(x)
    except OverflowError:  # from float() or math.isfinite
        return "must be within float range"


def field_violation(dotted: str, value) -> InvalidFieldError | None:
    """The violation of one numeric field's own rule by ``value``, or None.

    Rules that relate several fields are checked by derived_violation.
    """
    reason = _reason(_FIELD_SPECS[dotted][1], value)
    return None if reason is None else InvalidFieldError(dotted, reason)


def derived_violation(config: SystemConfig) -> InvalidFieldError | None:
    """The violation of a rule on the derived power draws, or None, for a
    config whose fields each pass their own rule.

    Both draws must be finite in exact arithmetic: a local input uploaded
    over a dead link has no finite k2, and a huge CPU speed puts k1 past
    float range. Either leaves the closed form and the oracles no common answer.
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
    reason = _reason(_task_count, config.task_count)
    v = [] if reason is None else [InvalidFieldError("task_count", reason)]
    for (section, _, fields), values in zip(_FIELDS, config[1:]):
        for (name, _, rule), value in zip(fields, values, strict=True):
            reason = _reason(rule, value)
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

    task_count = raw.get("task_count")  # any other value is config_violations' to judge
    if task_count is None:
        violations.append(InvalidFieldError("task_count", "missing"))
        task_count = 1

    sections = []
    for (section, _, fields), record in zip(_FIELDS, _RECORDS):
        src = raw.get(section)
        if src is None:
            violations.append(InvalidFieldError(section, "missing section"))
            src = {}
        elif not isinstance(src, dict):
            violations.append(InvalidFieldError(section, "must be an object"))
            src = {}
        values = []
        for key in src:
            if f"{section}.{key}" not in _FIELD_SPECS:
                violations.append(InvalidFieldError(f"{section}.{key}", "unknown field"))
        for name, dim, rule in fields:
            optional = rule is _finite_if_present
            if name not in src:
                if not optional:
                    violations.append(InvalidFieldError(f"{section}.{name}", "missing"))
                values.append(None if optional else 1.0)
            elif src[name] is None and optional:
                values.append(None)
            else:
                try:
                    values.append(parse_quantity(src[name], dim, f"{section}.{name}"))
                except InvalidFieldError as exc:
                    violations.append(exc)
                    values.append(1.0)
        sections.append(record(*values))

    config = SystemConfig(task_count, *sections)
    violations.extend(config_violations(config))
    if violations:
        raise InvalidConfigError(violations)
    return config


def load_config(path) -> SystemConfig:
    """Load, unit-normalize and validate a UTF-8 JSON config file. One that
    cannot be read, or decoded, or is over the cap raises ConfigParseError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(_MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    if len(data) > _MAX_CONFIG_BYTES:
        raise ConfigParseError(f"{path}: larger than {_MAX_CONFIG_BYTES} bytes")
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(config: SystemConfig) -> dict:
    out = {"task_count": config.task_count}
    for (section, _, fields), values in zip(_FIELDS, config[1:]):
        # an absent optional field (an SNR override) is left out
        out[section] = {name: value for (name, _, rule), value in zip(fields, values)
                        if rule is not _finite_if_present or value is not None}
    return out


def replace_field(config: SystemConfig, dotted: str, value) -> SystemConfig:
    """Return a copy with one dotted field replaced, e.g. ("device.cpu_hz", 2e9)."""
    section, _, name = dotted.partition(".")
    if not name:
        return config._replace(**{section: value})
    return config._replace(**{section: getattr(config, section)._replace(**{name: value})})
