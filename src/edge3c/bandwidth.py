"""Minimum per-task bandwidth of each service route.

Every route must finish inside the deadline ``tau``. The bandwidth a route
needs is found by making the deadline tight, which is optimal because latency
is strictly decreasing in allocated bandwidth:

* route 1 (cached input, local compute): no transfer, so 0 Hz; feasible iff
  the local compute time ``(I_remote + I_local) * w / f_D`` fits the deadline.
* route 2 (download then local compute): the remote input must be fetched in
  the slack left over after computing,
  ``B2 = I_remote / ((tau - compute_local) * SE_down)``.
* route 3 (offload): uplink and downlink shares are chosen jointly. With
  ``a1 = I_local / SE_up`` (uplink Hz-seconds), ``a2 = O / SE_down`` (downlink
  Hz-seconds) and ``a3 = tau - (I_remote + I_local) * w / f_S`` (air time
  available around the server's compute), minimizing ``B_up + B_down`` under
  ``a1/B_up + a2/B_down <= a3`` gives

      B_up  = (a1 + sqrt(a1*a2)) / a3
      B_down = (a2 + sqrt(a1*a2)) / a3
      B3    = (sqrt(a1) + sqrt(a2))^2 / a3

  with the constraint tight at the optimum.

Bandwidths beyond ``DEFAULT_BANDWIDTH_CAP`` are reported infeasible; the cap
guards near-singular denominators just before true infeasibility.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateChannelError, InvalidFieldError
from .model import (
    SystemConfig,
    _power_draws,
    downlink_spectral_efficiency,
    uplink_spectral_efficiency,
)

DEFAULT_BANDWIDTH_CAP = 1e12  # Hz

_TINY, _HUGE = 2.0 ** -1022, 1.7976931348623157e308  # the least and greatest normal floats


class RouteCosts(NamedTuple):
    """Per-route bandwidths and power draws of a config, with feasibility flags.

    b2/b3 are None when the corresponding route cannot meet the deadline
    (conceptually infinite); route 1 needs no bandwidth. route12_feasible
    (b2 is not None) covers both local-compute routes, and route3_feasible is
    b3 is not None. route1_feasible is the weaker condition that local compute
    alone fits the deadline (they differ only when the compute time exactly
    equals the deadline and a remote input still needs downloading).
    """

    b2: float | None
    b3: float | None
    bu3: float | None
    bd3: float | None
    a1: float
    a2: float
    a3: float
    k1: float
    k2: float
    route1_feasible: bool
    route12_feasible = property(lambda self: self.b2 is not None)
    route3_feasible = property(lambda self: self.b3 is not None)

    def to_dict(self) -> dict:
        """JSON-ready fields. A non-finite float, such as the transfer cost a2
        over a dead downlink, becomes None, because JSON has no Infinity."""
        def finite(x: float | None) -> float | None:
            return x if x is not None and math.isfinite(x) else None

        return {
            "b1_hz": 0.0, "b2_hz": self.b2, "b3_hz": self.b3,
            "b3_up_hz": self.bu3, "b3_down_hz": self.bd3,
            "a1_hz_s": finite(self.a1), "a2_hz_s": finite(self.a2), "a3_s": finite(self.a3),
            "k1_w": finite(self.k1), "k2_w": finite(self.k2),
            "route1_feasible": self.route1_feasible,
            "route12_feasible": self.route12_feasible,
            "route3_feasible": self.route3_feasible,
        }


def local_compute_latency(config: SystemConfig) -> float:
    t = config.task
    return (t.input_local_bits + t.input_remote_bits) * t.cycles_per_bit / config.device.cpu_hz


def server_compute_latency(config: SystemConfig) -> float:
    t = config.task
    return (t.input_local_bits + t.input_remote_bits) * t.cycles_per_bit / config.server.cpu_hz


def kkt_split(a1: float, a2: float, a3: float) -> tuple[float, float]:
    """Bandwidth-minimal (uplink, downlink) split for transfer costs a1, a2
    within air time a3. Degenerate legs get exactly 0, shares past float range inf."""
    if not (0 <= a1 < math.inf and 0 <= a2 < math.inf):
        raise InvalidFieldError("a1/a2", "must be finite and >= 0")
    if not a3 > 0:
        raise InvalidFieldError("a3", "must be > 0")
    # sqrt(a1*a2), but the product of the roots where a1*a2 would overflow or
    # lose bits
    g = a1 * a2
    g = math.sqrt(g) if _TINY <= g <= _HUGE else math.sqrt(a1) * math.sqrt(a2)
    return (a1 + g) / a3, (a2 + g) / a3


def _ratio(x: float, y: float, a: float, b: float, c: float = 1.0) -> float:
    """x*y / (a*b*c) for x, y >= 0 and a, b, c > 0 in exact arithmetic, with
    no intermediate outside the normal floats: the float division where x*y,
    a*b, a*b*c and the quotient are normal, else the exact quotient rounded
    once. Past float range, or over a factor that underflowed to 0, it is inf;
    over an infinite one, 0."""
    if _TINY <= (n := x * y) <= _HUGE and _TINY <= (ab := a * b) <= _HUGE \
            and _TINY <= (den := ab * c) <= _HUGE and _TINY <= (q := n / den) <= _HUGE:
        return q
    if math.inf in (a, b, c):
        return 0.0
    from fractions import Fraction
    try:
        return float(Fraction(x) * Fraction(y) / (Fraction(a) * Fraction(b) * Fraction(c)))
    except (OverflowError, ZeroDivisionError):  # past float range, or over a 0 factor
        return math.inf


def route_latency(route: int, config: SystemConfig,
                  uplink_hz: float = 0.0, downlink_hz: float = 0.0) -> float:
    """End-to-end latency of one task on the given route at the given bandwidths.

    Transfer terms with zero payload contribute 0 regardless of bandwidth;
    a positive payload requires a positive bandwidth on its leg. Each leg's
    time ``bits / (se * bw)`` is one range-safe quotient (``_ratio``), so a
    tiny spectral efficiency or bandwidth costs no precision.
    """
    t = config.task

    def transfer(bits: float, bw: float, se: float, leg: str) -> float:
        if bits == 0:
            return 0.0
        if se <= 0:
            raise DegenerateChannelError(f"{leg} spectral efficiency is 0 with {bits} bits to move")
        if not bw > 0:
            raise InvalidFieldError(f"{leg}_hz", "must be > 0 when there are bits to move")
        return _ratio(bits, 1.0, se, bw)

    if route == 1:
        return local_compute_latency(config)
    if route == 2:
        return transfer(t.input_remote_bits, downlink_hz, downlink_spectral_efficiency(config),
                        "downlink") + local_compute_latency(config)
    if route == 3:
        up = transfer(t.input_local_bits, uplink_hz, uplink_spectral_efficiency(config), "uplink")
        down = transfer(t.output_bits, downlink_hz, downlink_spectral_efficiency(config), "downlink")
        return up + server_compute_latency(config) + down
    raise InvalidFieldError("route", "must be 1, 2 or 3")


def route_costs(config: SystemConfig) -> RouteCosts:
    """Evaluate all three routes once, recording infeasibility in flags so the
    policy layer can reason over subsets. A route is infeasible when it
    misses the deadline at every bandwidth, or needs more than
    ``DEFAULT_BANDWIDTH_CAP``.

    In two parts, so that a deadline or CPU sweep reruns only the second:
    ``_link_costs`` (spectral efficiencies, a1, a2) and ``_point_costs``."""
    return _point_costs(config, _link_costs(config), config.task.deadline_s,
                        config.device.cpu_hz)


def _link_costs(config: SystemConfig) -> tuple[float, float, float, float]:
    """(SE_up, SE_down, a1, a2): the part of route_costs that no deadline or CPU speed changes."""
    t = config.task
    se_up = uplink_spectral_efficiency(config)
    se_down = downlink_spectral_efficiency(config)
    # transfer costs in Hz-s: inf over a dead link or past float range (see _point_costs)
    a1 = 0.0 if t.input_local_bits == 0 else t.input_local_bits / se_up if se_up > 0 else math.inf
    a2 = 0.0 if t.output_bits == 0 else t.output_bits / se_down if se_down > 0 else math.inf
    return se_up, se_down, a1, a2


def _point_costs(config: SystemConfig, link: tuple[float, float, float, float],
                 tau: float, cpu_hz: float) -> RouteCosts:
    """route_costs of the config at deadline ``tau`` and device CPU speed
    ``cpu_hz``, given its ``_link_costs``: compute times, slack, a3, B2, B3,
    k1, k2 and the flags."""
    t = config.task
    se_up, se_down, a1, a2 = link
    work = (t.input_local_bits + t.input_remote_bits) * t.cycles_per_bit
    compute_local = work / cpu_hz
    slack = tau - compute_local
    a3 = tau - work / config.server.cpu_hz

    b2 = None
    if t.input_remote_bits == 0:
        if not slack < 0:
            b2 = 0.0
    elif slack > 0:
        b2 = _ratio(t.input_remote_bits, 1.0, slack, se_down)
        if b2 > DEFAULT_BANDWIDTH_CAP:
            b2 = None
        elif 0 < b2 < _TINY:  # subnormal, so short of bits: one ulp up meets the deadline
            b2 = math.nextafter(b2, math.inf)

    b3 = bu3 = bd3 = None
    if a3 > 0:
        if (not a1 or _TINY <= a1 < math.inf) and (not a2 or _TINY <= a2 < math.inf):
            bu3, bd3 = kkt_split(a1, a2, a3)
        if bu3 is None or math.inf in (bu3, bd3):
            # a cost, or a1 + sqrt(a1*a2), outside the normal floats: per second of air time first
            t1 = _ratio(t.input_local_bits, 1.0, se_up, a3) if a1 else 0.0
            t2 = _ratio(t.output_bits, 1.0, se_down, a3) if a2 else 0.0
            g = math.sqrt(t1) * math.sqrt(t2) if t1 and t2 else 0.0
            bu3, bd3 = t1 + g, t2 + g
        if 0 < bu3 < _TINY:  # as for B2
            bu3 = math.nextafter(bu3, math.inf)
        if 0 < bd3 < _TINY:
            bd3 = math.nextafter(bd3, math.inf)
        b3 = bu3 + bd3
        if b3 > DEFAULT_BANDWIDTH_CAP:
            b3 = bu3 = bd3 = None

    k1, k2 = _power_draws(config, tau, cpu_hz, se_up)
    # by position: keywords cost about 0.5 us, a tenth of this function
    return RouteCosts(b2, b3, bu3, bd3, a1, a2, a3, k1, k2, compute_local <= tau)
