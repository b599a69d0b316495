"""Deterministic random-config generator stratified across the nine regimes.

Drawing raw parameters uniformly would leave some regimes practically
unreachable (they need specific orderings of the power bound, cache capacity
and task count). Instead each trial targets the regime ``trial % 9`` and
works backwards: the bandwidth ordering is forced through the output size,
the power ordering through the switched capacitance, and the bound positions
through the cache size and power budget. All other parameters stay random, so
the targeted construction does not narrow the solver inputs to special cases.

Determinism contract: trial ``i`` of seed ``s`` uses numpy's PCG64 stream
seeded by ``SeedSequence(entropy=s, spawn_key=(i,))``, reproduced here in pure
Python (``_Pcg64``); the draw sequence below is part of the package's
compatibility surface for reproducible verify runs.
"""

from __future__ import annotations

import functools
import math

from .errors import InvalidFieldError
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

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# the 128-bit LCG multiplier of PCG64 (O'Neill, 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _require_int(name: str, n, least: int) -> None:
    """Raise InvalidFieldError unless ``n`` is an integer >= ``least``; a
    bool is not one, as for the task count."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidFieldError(name, "must be an integer")
    if n < least:
        raise InvalidFieldError(name, f"must be >= {least}")


def _uint32_words(n: int) -> list[int]:
    """The integer ``n`` >= 0 as little-endian 32-bit words; ``[0]`` for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash(value: int, hash_const: int, mult: int) -> tuple[int, int]:
    """One step of SeedSequence's hash: the hashed value and the next constant."""
    value ^= hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y: int) -> int:
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _mix_in(pool: list[int], words: list[int], hash_const: int) -> int:
    """Mix each of ``words`` into every word of ``pool``, as SeedSequence
    does with the entropy past the pool size; returns the next constant."""
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return hash_const


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool once the run entropy ``seed`` is mixed in, and
    its hash constant then; every trial of a seed starts from them."""
    # with a spawn key, the run entropy is zero-padded to the pool size
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    hash_const = _INIT_A
    pool = []
    for word in run[:_POOL_SIZE]:
        hashed, hash_const = _hash(word, hash_const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    hash_const = _mix_in(pool, run[_POOL_SIZE:], hash_const)
    return tuple(pool), hash_const


class _Pcg64:
    """numpy's ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(trial,))))``,
    for the two draws the sampler makes; each returns the value numpy's
    method of the same name returns.

    ``SeedSequence`` hashes the entropy words, the seed's and then the
    trial's, into a pool of four 32-bit words, and expands the pool into the
    LCG's 128-bit state and increment. Each step of the LCG yields 64 bits
    by XSL-RR. A 32-bit draw takes the low half and keeps the high half for
    the next one.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, seed: int, trial: int):
        pool, hash_const = _seed_pool(seed)
        pool = list(pool)
        _mix_in(pool, _uint32_words(trial), hash_const)
        # generate_state(4, uint64): eight 32-bit words, paired little-endian
        hash_const = _INIT_B
        words = []
        for i in range(8):
            word, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
            words.append(word)
        u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        # PCG64's seeding: an odd increment, then one step from 0, the seed
        # added, and one more step
        self.inc = (u64[2] << 65 | u64[3] << 1 | 1) & _MASK128
        self.state = (self.inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + self.inc & _MASK128
        self.half = None  # the buffered high half of the last 64-bit output

    def _next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self._next64()
        self.half = word >> 32
        return word & _MASK32

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) times the top 53 bits of one 64-bit output, as a double in [0, 1)."""
        return lo + (hi - lo) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi) by Lemire's bounded method on 32-bit draws,
        for 1 <= hi - lo < 2**32 - 1, the spans on which numpy takes this
        path too."""
        span = hi - lo - 1  # the inclusive range, as numpy counts it
        if span == 0:
            return lo
        m = self._next32() * (span + 1)
        if m & _MASK32 <= span:
            threshold = (_MASK32 - span) % (span + 1)
            while m & _MASK32 < threshold:
                m = self._next32() * (span + 1)
        return lo + (m >> 32)


def sample_config(seed: int, trial: int) -> SystemConfig:
    """Validated random config targeting regime ``REGIMES[trial % 9]``;
    ``seed`` and ``trial`` are integers >= 0."""
    _require_int("seed", seed, 0)
    _require_int("trial", trial, 0)
    rng = _Pcg64(seed, trial)
    target = REGIMES[trial % 9]
    k1_gt, b3_gt, detail = target.k1_gt_k2, target.b3_gt_b2, target.detail

    f = rng.integers(3, 201) if detail in _NEEDS_F3 else rng.integers(1, 201)
    tau = 10.0 ** rng.uniform(-2.0, 0.3)
    w = rng.uniform(1.0, 20.0)
    i_local = 10.0 ** rng.uniform(3.0, 6.5)
    i_remote = 10.0 ** rng.uniform(3.0, 7.0)
    snr_up_db = rng.uniform(3.0, 25.0)
    snr_down_db = rng.uniform(3.0, 30.0)
    p_u = 10.0 ** rng.uniform(-7.0, -5.0)
    frac_local = rng.uniform(0.15, 0.85)   # local compute time / deadline
    frac_server = rng.uniform(0.05, 0.7)   # server compute time / deadline

    se_up = snr_db_to_spectral_efficiency(snr_up_db)
    se_down = snr_db_to_spectral_efficiency(snr_down_db)
    b2 = i_remote / (tau * (1.0 - frac_local) * se_down)
    a3 = tau * (1.0 - frac_server)

    # force the B3/B2 ordering via the output size
    ratio = 10.0 ** rng.uniform(0.05, 0.8) if b3_gt else 10.0 ** rng.uniform(-0.8, -0.05)
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
    k_ratio = 10.0 ** rng.uniform(0.05, 0.8) if k1_gt else 10.0 ** rng.uniform(-0.8, -0.05)
    k1 = k_ratio * k2
    mu = k1 * tau * f / (f_d * f_d * w * (i_local + i_remote))

    # place the cache capacity Q and the power bound per the targeted case
    if detail == "power-limited":
        q_t = rng.integers(0, f + 4)
        bound_t = rng.uniform(0.0, min(q_t + 0.9, f - 0.05))
    elif detail in ("cache-then-power", "cache-limited"):
        q_t = rng.integers(0, f - 1)          # <= F - 2
        bound_t = rng.uniform(q_t + 1.05, f - 0.02)
    elif detail == "power-ample":
        q_t = rng.integers(0, f + 4)
        bound_t = rng.uniform(f + 0.05, 3.0 * f + 5.0)
    elif detail == "local-always":
        q_t = rng.integers(0, f + 4)
        bound_t = rng.uniform(-f, 0.9 * f)
    elif detail == "mec-unconstrained":
        q_t = rng.integers(0, f + 4)
        bound_t = rng.uniform(-f, min(q_t, f) - 0.05)
    else:  # forced-local
        q_t = rng.integers(0, f - 1)
        bound_t = rng.uniform(q_t + 0.5, f - 0.02)

    cache_bits = (q_t + rng.uniform(0.08, 0.92)) * i_remote
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
