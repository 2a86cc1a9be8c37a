"""Collecting-period transmission schedules and their energy accounting.

Given the per-period backlogs, every strategy here delivers exactly
``b_i * B`` bits per node over the period ``T`` (one channel use per second,
so power x time is energy in joules):

* ``minmax``: time shares the decoding-order vertices with the min-max
  solver's weights, so the time-averaged power vector is the min-max fair
  base; all three strategies spend the same total energy in a symmetric
  channel, but this one minimizes the largest per-node share.
* ``minicost``: the same time sharing with one vertex, a single epoch at the
  average rates with the decoding order that puts higher-gain nodes later
  on the chain -- the minimum total-energy schedule.
* ``tdma``: each node transmits alone for a time slice proportional to its
  backlog; proportional slicing equalizes the slot rates and is the
  minimum-energy time-division split.

Nodes with zero backlog are removed before scheduling and reported with zero
power and rate.  One table maps each strategy name to its schedule builder
and to its per-node energies in closed form; :func:`build_schedule` and the
lifetime simulation, which needs no schedule, both read it.

Public names: :class:`Backlog`, :class:`Epoch`, :class:`Schedule`,
:class:`EnergyReport`, ``STRATEGIES``, :func:`build_schedule` and
:func:`energy_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import minmax
from .polymatroid import (
    LN2,
    NoiseModel,
    _as_order,
    _as_vector,
    _chain_received_trusted,
    _check_sum_rate,
)


@dataclass(frozen=True)
class Backlog:
    """Per-node packet queues for one collecting period.

    Packets may be fractional (a packet can be split and encoded at any
    rate); ``packet_bits`` is the fixed packet length B.
    """

    packets: np.ndarray
    packet_bits: float

    def __post_init__(self):
        p = _as_vector(self.packets, "packets")
        if not 0 < self.packet_bits < np.inf:
            raise ValueError("packet_bits must be positive and finite")
        p.flags.writeable = False
        object.__setattr__(self, "packets", p)

    @property
    def bits(self) -> np.ndarray:
        return self.packets * self.packet_bits


@dataclass(frozen=True)
class Epoch:
    """One constant-rate segment: duration share, powers, rates, and the
    decoding chain (the receiver decodes ``decode_order[-1]`` first and
    ``decode_order[0]`` last)."""

    duration_fraction: float
    powers: np.ndarray
    rates: np.ndarray
    decode_order: tuple[int, ...]

    def __post_init__(self):
        for name in ("powers", "rates"):
            v = _as_vector(getattr(self, name), name)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(
            self, "decode_order", _as_order(self.decode_order, self.powers.size))
        if not 0.0 <= self.duration_fraction <= 1.0 + 1e-12:
            raise ValueError("duration_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class Schedule:
    """A full collecting-period schedule: epochs whose fractions sum to one."""

    kind: str
    epochs: tuple[Epoch, ...]
    period: float

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"kind must be one of {STRATEGIES}, got {self.kind!r}")
        if not 0 < self.period < np.inf:
            raise ValueError("period must be positive and finite")
        object.__setattr__(self, "epochs", tuple(self.epochs))
        total = sum(e.duration_fraction for e in self.epochs)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"epoch fractions sum to {total}, expected 1")

    @property
    def n_nodes(self) -> int:
        return self.epochs[0].powers.size


@dataclass(frozen=True)
class EnergyReport:
    """Per-node energies over a period, with the period-normalized peak."""

    per_node_energy: np.ndarray
    max_power: float
    sum_energy: float

    def __post_init__(self):
        v = _as_vector(self.per_node_energy, "per_node_energy")
        v.flags.writeable = False
        object.__setattr__(self, "per_node_energy", v)


def _active(backlog: Backlog, period: float, noise: NoiseModel):
    """The nodes with a positive backlog, their packets, their channel and
    their average rates ``b_i * B / T``, the constant rates that clear the
    backlog: every strategy leaves the other nodes out.  The sum rate is
    range checked as :func:`minmax.solve` checks it."""
    if not 0 < period < np.inf:
        raise ValueError("period must be positive and finite")
    # A rate or a sum past the largest double is inf, which the check
    # rejects.
    with np.errstate(over="ignore"):
        rates = backlog.bits / period
        total = rates.sum()
    active = np.nonzero(backlog.packets > 0.0)[0]
    if active.size == 0:
        raise ValueError("at least one node must have a positive backlog")
    _check_sum_rate(total, noise.sigma_sq)
    packets = backlog.packets[active]
    if noise.gains is not None:
        gains = noise.gains_for(backlog.packets.size)
        noise = NoiseModel(noise.sigma_sq, gains[active])
    return active, packets, noise, rates[active]


def _embed(values: np.ndarray, active: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[active] = values
    return out


def _minmax_shares(rates: np.ndarray, noise: NoiseModel):
    """The solver's ``(decoding order, weight)`` pairs for the fair base."""
    return minmax.solve(rates, noise).coefficients


def _minicost_shares(rates: np.ndarray, noise: NoiseModel):
    """One vertex at weight 1, for a rate vector or for every row of a rate
    matrix: the minimum-energy order puts higher-gain nodes later on the
    chain (decoded first), which in the symmetric channel is the node
    order."""
    gains = noise.gains_for(rates.shape[-1])
    return ((np.argsort(-(1.0 / gains), kind="stable"), 1.0),)


def _time_sharing(shares, backlog: Backlog, period: float,
                  noise: NoiseModel) -> tuple[Epoch, ...]:
    """One epoch per ``(decoding order, weight)`` pair of
    ``shares(rates, noise)`` over the active nodes, each at the chain vertex
    of its order.

    Every epoch runs the average rates, so the delivered bits do not depend
    on the weights.  The orders index the active nodes; the silent nodes
    are appended to every decode order.
    """
    n = backlog.packets.size
    active, _, sub, rates = _active(backlog, period, noise)
    gains = sub.gains_for(active.size)
    full_rates = _embed(rates, active, n)
    silent = np.flatnonzero(backlog.packets == 0.0).tolist()
    epochs = []
    for order, weight in shares(rates, sub):
        idx = np.asarray(order, dtype=np.intp)
        received = _chain_received_trusted(rates, sub.sigma_sq, idx)
        epochs.append(Epoch(
            duration_fraction=weight,
            powers=_embed(received / gains, active, n),
            rates=full_rates,
            decode_order=active[idx].tolist() + silent,
        ))
    return tuple(epochs)


def _tdma_slots(packets: np.ndarray, packet_bits: float, period: float,
                noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot fractions of the active nodes, their common slot rate, and the
    transmit power of each node in its slot, for a backlog vector or for
    every row of a backlog matrix (the slot rate keeps a length-one last
    axis)."""
    total = packets.sum(axis=-1, keepdims=True)
    slot_rate = total * packet_bits / period
    slot_received = noise.sigma_sq * np.expm1(2.0 * LN2 * slot_rate)
    return (packets / total, slot_rate,
            slot_received / noise.gains_for(packets.shape[-1]))


def _tdma_epochs(backlog: Backlog, period: float,
                 noise: NoiseModel) -> tuple[Epoch, ...]:
    """Each node transmits alone for a slice proportional to its backlog.

    Proportional slices give every slot the same rate ``sum(b) * B / T``,
    which is the minimum-sum-energy time-division allocation.
    """
    n = backlog.packets.size
    active, packets, sub, _ = _active(backlog, period, noise)
    fractions, slot_rate, slot_powers = _tdma_slots(
        packets, backlog.packet_bits, period, sub)
    return tuple(Epoch(duration_fraction=float(frac),
                       powers=_embed(power, i, n),
                       rates=_embed(slot_rate[0], i, n),
                       decode_order=tuple(range(n)))
                 for frac, i, power in zip(fractions, active, slot_powers))


def energy_report(schedule: Schedule) -> EnergyReport:
    """Per-node energies of a schedule and the period-normalized peak power.

    ``max_power`` divides each node's energy by the full period, which is
    how bursty (TDMA) and continuous schedules are compared on one axis.
    """
    energy = np.zeros(schedule.n_nodes)
    for e in schedule.epochs:
        energy += e.duration_fraction * schedule.period * e.powers
    return EnergyReport(
        per_node_energy=energy,
        max_power=float(energy.max()) / schedule.period,
        sum_energy=float(energy.sum()),
    )


def _minmax_energy(packets: np.ndarray, packet_bits: float, period: float,
                   noise: NoiseModel) -> np.ndarray:
    rates = packets * packet_bits / period
    return period * minmax._fair_transmit(rates, noise)


def _minicost_energy(packets: np.ndarray, packet_bits: float, period: float,
                     noise: NoiseModel) -> np.ndarray:
    rates = packets * packet_bits / period
    ((order, _),) = _minicost_shares(rates, noise)
    received = _chain_received_trusted(rates.T, noise.sigma_sq, order).T
    return period * (received / noise.gains_for(rates.shape[-1]))


def _tdma_energy(packets: np.ndarray, packet_bits: float, period: float,
                 noise: NoiseModel) -> np.ndarray:
    fractions, _, slot_powers = _tdma_slots(packets, packet_bits, period,
                                            noise)
    return (fractions * period) * slot_powers


# Each strategy's schedule builder, epochs(backlog, period, noise), and its
# per-node energy over one period for every row of a matrix of positive
# backlogs, energy(packets, packet_bits, period, noise).  Every dispatch by
# strategy name reads this table.
_TABLE = {
    "minmax": (partial(_time_sharing, _minmax_shares), _minmax_energy),
    "minicost": (partial(_time_sharing, _minicost_shares), _minicost_energy),
    "tdma": (_tdma_epochs, _tdma_energy),
}
STRATEGIES = tuple(_TABLE)


def build_schedule(strategy: str, backlog: Backlog, period: float,
                   noise: NoiseModel) -> Schedule:
    """Construct the named strategy's schedule for one period."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    epochs, _ = _TABLE[strategy]
    return Schedule(kind=strategy, epochs=epochs(backlog, period, noise),
                    period=period)

