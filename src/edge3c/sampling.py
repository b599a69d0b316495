"""Deterministic random-config generator stratified across the nine regimes.

Drawing raw parameters uniformly would leave some regimes practically
unreachable (they need specific orderings of the power bound, cache capacity
and task count). Instead each trial targets the regime ``trial % 9`` and
works backwards: the bandwidth ordering is forced through the output size,
the power ordering through the switched capacitance, and the bound positions
through the cache size and power budget. All other parameters stay random, so
the targeted construction does not narrow the solver inputs to special cases.

Determinism contract: trial ``i`` of seed ``s`` uses numpy's PCG64 stream
seeded by ``SeedSequence(entropy=s, spawn_key=(i,))``; the draw sequence below
is part of the package's compatibility surface for reproducible verify runs.
"""

from __future__ import annotations

import math

from .model import (
    ChannelParams,
    DeviceParams,
    ServerParams,
    SystemConfig,
    TaskSpec,
    snr_db_to_spectral_efficiency,
    validate_config,
)
from .policy import REGIMES

# regimes whose defining orderings need room between 0, Q, U and F
_NEEDS_F3 = ("cache-then-power", "cache-limited", "forced-local")


def sample_config(seed: int, trial: int) -> SystemConfig:
    """Validated random config targeting regime ``REGIMES[trial % 9]``."""
    import numpy as np  # imported here so that commands other than verify never load numpy

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))
    target = REGIMES[trial % 9]
    k1_gt, b3_gt, detail = target.k1_gt_k2, target.b3_gt_b2, target.detail

    f = int(rng.integers(3, 201)) if detail in _NEEDS_F3 else int(rng.integers(1, 201))
    tau = float(10.0 ** rng.uniform(-2.0, 0.3))
    w = float(rng.uniform(1.0, 20.0))
    i_local = float(10.0 ** rng.uniform(3.0, 6.5))
    i_remote = float(10.0 ** rng.uniform(3.0, 7.0))
    snr_up_db = float(rng.uniform(3.0, 25.0))
    snr_down_db = float(rng.uniform(3.0, 30.0))
    p_u = float(10.0 ** rng.uniform(-7.0, -5.0))
    frac_local = float(rng.uniform(0.15, 0.85))   # local compute time / deadline
    frac_server = float(rng.uniform(0.05, 0.7))   # server compute time / deadline

    se_up = snr_db_to_spectral_efficiency(snr_up_db)
    se_down = snr_db_to_spectral_efficiency(snr_down_db)
    b2 = i_remote / (tau * (1.0 - frac_local) * se_down)
    a3 = tau * (1.0 - frac_server)

    # force the B3/B2 ordering via the output size
    ratio = float(10.0 ** rng.uniform(0.05, 0.8)) if b3_gt else float(10.0 ** rng.uniform(-0.8, -0.05))
    target_b3 = ratio * b2
    a1 = i_local / se_up
    if a1 > 0.25 * target_b3 * a3:
        # uplink cost alone would exceed the target; shrink the local input
        i_local = 0.25 * target_b3 * a3 * se_up
        a1 = i_local / se_up
    a2 = (math.sqrt(target_b3 * a3) - math.sqrt(a1)) ** 2
    out_bits = a2 * se_down

    f_d = (i_local + i_remote) * w / (tau * frac_local)
    f_s = (i_local + i_remote) * w / (tau * frac_server)

    # force the k1/k2 ordering via the switched capacitance
    k2 = p_u * i_local / (f * tau * se_up)
    k_ratio = float(10.0 ** rng.uniform(0.05, 0.8)) if k1_gt else float(10.0 ** rng.uniform(-0.8, -0.05))
    k1 = k_ratio * k2
    mu = k1 * tau * f / (f_d * f_d * w * (i_local + i_remote))

    # place the cache capacity Q and the power bound per the targeted case
    if detail == "power-limited":
        q_t = int(rng.integers(0, f + 4))
        bound_t = float(rng.uniform(0.0, min(q_t + 0.9, f - 0.05)))
    elif detail in ("cache-then-power", "cache-limited"):
        q_t = int(rng.integers(0, f - 1))          # <= F - 2
        bound_t = float(rng.uniform(q_t + 1.05, f - 0.02))
    elif detail == "power-ample":
        q_t = int(rng.integers(0, f + 4))
        bound_t = float(rng.uniform(f + 0.05, 3.0 * f + 5.0))
    elif detail == "local-always":
        q_t = int(rng.integers(0, f + 4))
        bound_t = float(rng.uniform(-f, 0.9 * f))
    elif detail == "mec-unconstrained":
        q_t = int(rng.integers(0, f + 4))
        bound_t = float(rng.uniform(-f, min(q_t, f) - 0.05))
    else:  # forced-local
        q_t = int(rng.integers(0, f - 1))
        bound_t = float(rng.uniform(q_t + 0.5, f - 0.02))

    cache_bits = (q_t + float(rng.uniform(0.08, 0.92))) * i_remote
    pbar = f * k2 + (k1 - k2) * bound_t

    config = SystemConfig(
        task_count=f,
        task=TaskSpec(input_local_bits=i_local, input_remote_bits=i_remote,
                      output_bits=out_bits, cycles_per_bit=w, deadline_s=tau),
        device=DeviceParams(cpu_hz=f_d, switched_capacitance=mu, cache_bits=cache_bits,
                            avg_power_w=pbar, uplink_psd=p_u),
        server=ServerParams(cpu_hz=f_s, downlink_psd=1e-6),
        channel=ChannelParams(gain=1.0, noise_psd=1e-9,
                              snr_up_db=snr_up_db, snr_down_db=snr_down_db),
    )
    return validate_config(config)
