"""Shared fixtures: hand-constructed configs with exactly representable arithmetic.

build_config defaults describe a 10-task system with 0 dB overrides on both
links (spectral efficiency exactly 1 bit/s/Hz) chosen so every derived scalar
is an exact small float: k1 = 2, k2 = 1, B2 = 1, B3 = 2, cache capacity 3.
Tests override individual fields to steer the solver into specific branches.

numpy_sample_config feeds the stratified sampler's construction numpy's PCG64
stream, on which the pins of sampled configs and of the answers on them were
recorded.
"""

from pathlib import Path

import numpy as np
import pytest

from edge3c import (
    ChannelParams,
    DeviceParams,
    ServerParams,
    SystemConfig,
    TaskSpec,
    load_config,
    validate_config,
)
from edge3c.sampling import _draw

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


def build_config(*, task_count=10, input_local_bits=1.0, input_remote_bits=1.0,
                 output_bits=0.0, cycles_per_bit=1.0, deadline_s=2.0,
                 cpu_hz=2.0, switched_capacitance=5.0, cache_bits=3.5,
                 avg_power_w=15.0, uplink_psd=20.0,
                 server_cpu_hz=4.0 / 3.0, downlink_psd=1.0,
                 gain=1.0, noise_psd=1.0, snr_up_db=0.0, snr_down_db=0.0,
                 validate=True) -> SystemConfig:
    config = SystemConfig(
        task_count=task_count,
        task=TaskSpec(input_local_bits=input_local_bits,
                      input_remote_bits=input_remote_bits,
                      output_bits=output_bits,
                      cycles_per_bit=cycles_per_bit,
                      deadline_s=deadline_s),
        device=DeviceParams(cpu_hz=cpu_hz,
                            switched_capacitance=switched_capacitance,
                            cache_bits=cache_bits,
                            avg_power_w=avg_power_w,
                            uplink_psd=uplink_psd),
        server=ServerParams(cpu_hz=server_cpu_hz, downlink_psd=downlink_psd),
        channel=ChannelParams(gain=gain, noise_psd=noise_psd,
                              snr_up_db=snr_up_db, snr_down_db=snr_down_db),
    )
    if validate:
        validate_config(config)
    return config


class _NumpyStream:
    """numpy's ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(trial,))))``
    behind the two methods the sampler calls, returning plain Python numbers."""

    def __init__(self, seed: int, trial: int):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.gen.uniform(lo, hi))

    def randrange(self, lo: int, hi: int) -> int:
        return int(self.gen.integers(lo, hi))


def numpy_sample_config(seed: int, trial: int) -> SystemConfig:
    """sample_config(seed, trial) as drawn from numpy's PCG64 stream."""
    return _draw(_NumpyStream(seed, trial), trial)


def power_floor_config() -> SystemConfig:
    """k1 = 1 < k2 = 2, B2 = 3 > B3 = 1, cache capacity 2: the power budget
    forces tasks onto the pricier download route, optimum (2, 3, 5)."""
    return build_config(input_remote_bits=3.0, cpu_hz=4.0,
                        switched_capacitance=0.3125, cache_bits=7.0,
                        uplink_psd=40.0, server_cpu_hz=4.0)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(CONFIG_DIR / "reference.json")


@pytest.fixture(scope="session")
def relaxed_deadline_config():
    return load_config(CONFIG_DIR / "relaxed_deadline.json")
