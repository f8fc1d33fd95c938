"""Exact and heuristic QUBO minimizers.

``brute_force`` is the ground truth on small problems, ``simulated_anneal``
is a single-bit-flip Metropolis sampler standing in for special-purpose
annealing hardware, and ``count_local_minima`` takes a census of the
single-flip landscape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .errors import LimitError
from .qubo import DENSE_MAX_BYTES, QuboMatrix, energy

__all__ = [
    "AnnealSchedule",
    "SampleSet",
    "default_schedule",
    "brute_force",
    "brute_force_energies",
    "minimum_assignments",
    "simulated_anneal",
    "count_local_minima",
    "save_sampleset",
]

BRUTE_FORCE_MAX_N = 26
ENERGY_TABLE_MAX_N = 20
LOCAL_MINIMA_MAX_N = 22

_BLOCK_BITS = 18


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric inverse-temperature ramp plus restart budget."""

    sweeps: int
    beta_start: float
    beta_end: float
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if 8 * self.sweeps > DENSE_MAX_BYTES:
            raise LimitError(f"sweeps={self.sweeps} needs {8 * self.sweeps} bytes of betas, "
                             f"over the limit of {DENSE_MAX_BYTES}")
        if not (math.isfinite(self.beta_start) and math.isfinite(self.beta_end)):
            raise ValueError(f"betas must be finite, got beta_start={self.beta_start}, beta_end={self.beta_end}")
        if not (0.0 < self.beta_start <= self.beta_end):
            raise ValueError(
                f"need 0 < beta_start <= beta_end, got {self.beta_start}, {self.beta_end}"
            )

    def betas(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.beta_start])
        ratio = self.beta_end / self.beta_start
        t = np.arange(self.sweeps) / (self.sweeps - 1)
        return self.beta_start * ratio**t


@dataclass(frozen=True)
class SampleSet:
    """Solver output: one (assignment, energy) pair per restart."""

    samples: tuple[tuple[tuple[int, ...], float], ...]
    best: int

    def best_energy(self) -> float:
        return self.samples[self.best][1]

    def to_json_dict(self) -> dict:
        return {
            "samples": [
                {"bits": "".join(str(b) for b in bits), "energy": e}
                for bits, e in self.samples
            ],
            "best": self.best,
        }


def default_schedule(q: QuboMatrix, sweeps: int, restarts: int, seed: int) -> AnnealSchedule:
    """Schedule scaled to the largest coefficient magnitude of the problem.

    It ends at beta = 10 / max|Q|, which is cold enough only when the moves
    that matter cost about max|Q|.  A knapsack encoding violates that: its
    penalty coefficients exceed the item values by orders of magnitude, so
    the run never cools (on ``gen mkp --n 100 --m 1 --alpha 0.25 --seed 0``
    it ends at 2.7e-7).  Pass an explicit schedule there, such as the one
    ``experiments.mkp_gap`` uses: beta from 0.01 / max|Q| to
    20 / mean(item values).
    """
    scale = float(np.abs(q.vals).max()) if q.vals.size else 1.0
    return AnnealSchedule(
        sweeps=sweeps,
        beta_start=0.01 / scale,
        beta_end=10.0 / scale,
        restarts=restarts,
        seed=seed,
    )


# ----------------------------------------------------------------------
# exhaustive enumeration


def _bit_rows(lo: int, count: int, width: int) -> np.ndarray:
    """Rows are the binary expansions of lo..lo+count-1, bit b in column b."""
    return ((np.arange(lo, lo + count)[:, None] >> np.arange(width)[None, :]) & 1).astype(
        np.float64
    )


def _index_bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> b) & 1 for b in range(n))


def _block_energies(q: QuboMatrix):
    """Yield (base_index, energies) per block covering all 2**n assignments.

    Assignment ``base_index + t`` has bit ``b`` equal to bit ``b`` of that
    integer.  Splits variables into a low group enumerated in one shot and a
    high group iterated block by block, so memory stays at O(2**min(n, 18)).
    """
    n = q.n
    if n == 0:
        yield 0, np.zeros(1)
        return
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    low = min(n, _BLOCK_BITS)
    xl = _bit_rows(0, 2**low, low)
    # energy(x) = (x A x + diag . x) / 2, both terms integral so halving is exact
    e_low = 0.5 * (np.einsum("ij,ij->i", xl @ a[:low, :low], xl) + xl @ diag[:low])
    if n == low:
        yield 0, e_low
        return
    a_lh = a[:low, low:]
    a_hh = a[low:, low:]
    diag_h = diag[low:]
    for h in range(2 ** (n - low)):
        xh = _bit_rows(h, 1, n - low)[0]
        e_high = 0.5 * (xh @ a_hh @ xh + diag_h @ xh)
        cross = xl @ (a_lh @ xh)
        yield h << low, e_low + cross + e_high


def brute_force(q: QuboMatrix) -> tuple[float, tuple[int, ...], int]:
    """Exact minimum over all assignments: (energy, one argmin, argmin count).

    The returned argmin is the first one in enumeration order (assignments
    read as integers with bit b holding x_b).
    """
    if q.n > BRUTE_FORCE_MAX_N:
        raise LimitError(
            f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}, got n={q.n}"
        )
    best = math.inf
    best_index = 0
    count = 0
    for base, energies in _block_energies(q):
        block_min = energies.min()
        if block_min < best:
            best = block_min
            count = int((energies == block_min).sum())
            best_index = base + int(np.argmin(energies))
        elif block_min == best:
            count += int((energies == block_min).sum())
    return float(best), _index_bits(best_index, q.n), count


def brute_force_energies(q: QuboMatrix) -> np.ndarray:
    """Energies of all 2**n assignments, indexed with bit b holding x_b."""
    if q.n > ENERGY_TABLE_MAX_N:
        raise LimitError(
            f"full energy table is limited to n <= {ENERGY_TABLE_MAX_N}, got n={q.n}"
        )
    out = np.empty(2**q.n)
    for base, energies in _block_energies(q):
        out[base : base + energies.size] = energies
    return out


def minimum_assignments(q: QuboMatrix) -> list[tuple[int, ...]]:
    """All argmin assignments (small n only)."""
    energies = brute_force_energies(q)
    best = energies.min()
    return [_index_bits(int(i), q.n) for i in np.flatnonzero(energies == best)]


# ----------------------------------------------------------------------
# simulated annealing


def _anneal_one(a: np.ndarray, diag: np.ndarray, betas: np.ndarray, rng) -> list[float]:
    n = diag.shape[0]
    x0 = rng.integers(0, 2, size=n).astype(np.float64)
    g = a @ x0
    x, d, rows, exp = x0.tolist(), diag.tolist(), list(a), math.exp
    for beta in betas.tolist():
        nb = -beta
        order = rng.permutation(n).tolist()
        us = rng.random(n).tolist()
        for i, u in zip(order, us):
            # a has a zeroed diagonal here, so g_i = sum_{j != i} a_ij x_j;
            # delta = (1 - 2 x_i) * (d_i + g_i), the sign taken by the branch
            if x[i]:
                delta = -(d[i] + g.item(i))
                if delta <= 0.0 or u < exp(nb * delta):
                    g -= rows[i]
                    x[i] = 0.0
            else:
                delta = d[i] + g.item(i)
                if delta <= 0.0 or u < exp(nb * delta):
                    g += rows[i]
                    x[i] = 1.0
    return x


def simulated_anneal(q: QuboMatrix, schedule: AnnealSchedule) -> SampleSet:
    """Metropolis single-bit-flip annealing; one sample per restart.

    Each restart draws its own generator from ``(seed, restart)``, so a
    restart's sample does not depend on the number of restarts before it:
    a random start, then per sweep one visiting order and one uniform per
    visit.  The flip loop runs on Python floats and keeps the local fields
    ``g = A x`` (off-diagonal part) in one array, adding or subtracting a
    row of ``A`` on each accepted flip.  Sample energies are recomputed
    from scratch before being recorded.
    """
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    np.fill_diagonal(a, 0.0)
    betas = schedule.betas()
    samples = []
    for r in range(schedule.restarts):
        rng = np.random.default_rng((schedule.seed, r))
        x = _anneal_one(a, diag, betas, rng)
        bits = tuple(int(b) for b in x)
        samples.append((bits, energy(q, bits)))
    best = min(range(len(samples)), key=lambda k: samples[k][1])
    return SampleSet(tuple(samples), best)


# ----------------------------------------------------------------------
# landscape census


def count_local_minima(q: QuboMatrix) -> int:
    """Number of assignments no single bit flip can strictly improve.

    The neighbourhood is one flip with a non-strict test, so plateau states
    count as minima.  The zero matrix therefore has 2**n of them.
    """
    if q.n > LOCAL_MINIMA_MAX_N:
        raise LimitError(
            f"local-minima census is limited to n <= {LOCAL_MINIMA_MAX_N}, got n={q.n}"
        )
    n = q.n
    if n == 0:
        return 1
    a = q.dense_symmetric()
    diag = a.diagonal().copy()
    total = 0
    block_bits = min(n, 16)
    blocks = 2 ** (n - block_bits)
    for h in range(blocks):
        x = _bit_rows(h << block_bits, 2**block_bits, n)
        f = x @ a
        # field_i = diag_i + sum_{j != i} a_ij x_j; the row product already
        # carries diag_i x_i, hence the (1 - x) factor on the diagonal part
        deltas = (1.0 - 2.0 * x) * (diag[None, :] * (1.0 - x) + f)
        total += int(np.all(deltas >= 0.0, axis=1).sum())
    return total


def save_sampleset(result: SampleSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict()) + "\n")
