"""Synthetic QUBO families for reduction-rate and runtime experiments.

Two generators: a dense family whose propensity to admit precedence edges
is controlled by a single parameter ``p`` (larger ``p`` spreads the diagonal
wider, so more pairs certify), and a "hard" family with i.i.d. entries from
``{-1, 0, 1}`` on which essentially no pair certifies.  Both emit integer
coefficients and are bit-reproducible per seed via numpy's PCG64 stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubo import _TERM_BYTES, QuboMatrix, _check_bytes

__all__ = ["SynthParams", "generate_synthetic", "generate_hard"]


@dataclass(frozen=True)
class SynthParams:
    """Parameters of the dense synthetic family."""

    n: int
    p: float
    seed: int
    s: int = 10

    @property
    def offset(self) -> int:
        """Common positive shift of all entries, ``round(s * p)``."""
        return int(round(self.s * self.p))


def generate_synthetic(params: SynthParams) -> QuboMatrix:
    """Dense matrix with positive off-diagonals and negative diagonals.

    Off-diagonal entries are uniform integers in ``[1 + o, s + o]`` and
    diagonals uniform in ``[-floor(p * (n - 1) * (s + 1)) - o, -1 - o]``
    with ``o = round(s * p)``, so the associated graph is complete and the
    diagonal spread grows with ``p``.  Draw order: off-diagonals row-major,
    then diagonals.
    """
    n, s, p = params.n, params.s, params.p
    if n < 2:
        raise ValueError(f"need at least 2 variables, got n={n}")
    if not 1 <= s < 2**53:
        raise ValueError(f"scale must be a positive integer below 2**53, got s={s}")
    if not 0 < p < math.inf:
        raise ValueError(f"propensity must be positive and finite, got p={p}")
    _check_bytes("term arrays", n, _TERM_BYTES * (n * (n + 1) // 2))
    # float64 holds every integer below 2**53; compared in floats, where an
    # overflow reads inf instead of raising in round or floor
    if s * p + max(s, p * (n - 1) * (s + 1)) >= 2**53:
        raise ValueError(f"coefficients of n={n}, s={s}, p={p} reach 2**53")
    o = params.offset
    diag_span = math.floor(p * (n - 1) * (s + 1))
    if diag_span < 1:
        raise ValueError(f"p={p} too small for n={n}, s={s}: empty diagonal range")
    rng = np.random.default_rng(params.seed)
    rows, cols = np.triu_indices(n)
    on = rows == cols
    vals = np.empty(rows.size)
    vals[~on] = rng.integers(1 + o, s + o, size=rows.size - n, endpoint=True)
    vals[on] = rng.integers(-diag_span - o, -1 - o, size=n, endpoint=True)
    return QuboMatrix.from_arrays(n, rows, cols, vals)


def generate_hard(n: int, seed: int) -> QuboMatrix:
    """Matrix with every upper-triangle entry (diagonal included) i.i.d. uniform on {-1, 0, 1}."""
    if n < 2:
        raise ValueError(f"need at least 2 variables, got n={n}")
    _check_bytes("term arrays", n, _TERM_BYTES * (n * (n + 1) // 2))
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n)
    vals = rng.integers(-1, 1, size=rows.size, endpoint=True)
    return QuboMatrix.from_arrays(n, rows, cols, vals)
