"""Per-iteration computation and memory cost model (paper Table 1).

The paper compares three iterations on a batch of ``m`` points with ``n``
training points, ``d`` features, ``l`` labels, subsample (fixed coordinate
block) size ``s`` and EigenPro parameter ``q``:

====================  =========================  =======================
Method                Computation                Memory
====================  =========================  =======================
Improved EigenPro     ``s*m*q + n*m*(d+l)``      ``s*q + n*(m+d+l)``
Original EigenPro     ``n*m*q + n*m*(d+l)``      ``n*q + n*(m+d+l)``
SGD                   ``n*m*(d+l)``              ``n*(m+d+l)``
====================  =========================  =======================

The overhead terms (in bold in the paper) are ``s*m*q`` vs ``n*m*q`` — the
improvement of Section 4 is exactly replacing ``n`` by ``s`` there.  The
``*_cost`` functions express that *leading-order* table as printed.

The code evaluates the correction chain ``V D V^T Phi g`` with ``g``
first, as row vectors: ``g^T Phi``, then ``(.) V``, then ``(. D) V^T``,
transposing the small ``(l, .)`` results (see
:mod:`repro.core.preconditioner`; every GEMM reads ``Phi`` and ``V``
along their contiguous rows).  What it actually performs — and what the
``exact_*`` functions count, for the instrumentation tests to assert
equality against — is

- improved: ``s*m*l + 2*s*q*l``
- original: ``n*m*l + 2*n*q*l``

Their ratio is exactly ``n/s``, as in the table.  The batch term ``s*m*l``
is bounded by the SGD step's own prediction GEMM ``n*m*l`` (``s <= n``),
whereas the table's ``s*m*q`` exceeds that GEMM whenever ``s*q > n*l``.

The sharded trainer sizes its shards with the same counts
(:meth:`repro.shard.ShardPlan.balanced`): ``exact_sgd_ops(1, m, d, l)``
per center, plus ``exact_improved_overhead_ops(m, l, s, q) / s`` per
subsample center on the shard that runs the correction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "IterationCost",
    "sgd_cost",
    "improved_eigenpro_cost",
    "original_eigenpro_cost",
    "exact_sgd_ops",
    "exact_improved_overhead_ops",
    "exact_original_overhead_ops",
    "overhead_fraction",
]


def _check_dims(**dims: int) -> None:
    for name, value in dims.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class IterationCost:
    """Leading-order per-iteration cost of one training method.

    Attributes
    ----------
    computation:
        Scalar operations per iteration.
    memory:
        Scalars resident during the iteration.
    overhead_computation, overhead_memory:
        The parts attributable to the EigenPro preconditioner (0 for SGD);
        the bolded entries of Table 1.
    """

    computation: int
    memory: int
    overhead_computation: int = 0
    overhead_memory: int = 0


def sgd_cost(n: int, m: int, d: int, l: int) -> IterationCost:
    """Cost of one standard kernel SGD iteration (Table 1, row 3)."""
    _check_dims(n=n, m=m, d=d, l=l)
    return IterationCost(
        computation=n * m * (d + l),
        memory=n * (m + d + l),
    )


def improved_eigenpro_cost(
    n: int, m: int, d: int, l: int, s: int, q: int
) -> IterationCost:
    """Cost of one improved EigenPro iteration (Table 1, row 1)."""
    _check_dims(n=n, m=m, d=d, l=l, s=s, q=q)
    base = sgd_cost(n, m, d, l)
    return IterationCost(
        computation=base.computation + s * m * q,
        memory=base.memory + s * q,
        overhead_computation=s * m * q,
        overhead_memory=s * q,
    )


def original_eigenpro_cost(
    n: int, m: int, d: int, l: int, q: int
) -> IterationCost:
    """Cost of one original EigenPro iteration (Table 1, row 2)."""
    _check_dims(n=n, m=m, d=d, l=l, q=q)
    base = sgd_cost(n, m, d, l)
    return IterationCost(
        computation=base.computation + n * m * q,
        memory=base.memory + n * q,
        overhead_computation=n * m * q,
        overhead_memory=n * q,
    )


# --------------------------------------------------------------------------
# Exact operation counts matching the implementation's matrix chains, used
# by tests to tie the cost model to the instrumented code.
# --------------------------------------------------------------------------

def exact_sgd_ops(n: int, m: int, d: int, l: int) -> int:
    """Operations the SGD iteration actually records: the kernel block
    (``m*n*d``) plus the prediction GEMM (``m*n*l``)."""
    _check_dims(n=n, m=m, d=d, l=l)
    return m * n * d + m * n * l


def exact_improved_overhead_ops(m: int, l: int, s: int, q: int) -> int:
    """Operations of the improved preconditioner chain
    ``V D V^T Phi^T g`` evaluated as
    ``g^T Phi -> (l,s)``, ``@ V -> (l,q)``, ``* D @ V^T -> (l,s)``:
    ``s*m*l + 2*s*q*l``."""
    _check_dims(m=m, l=l, s=s, q=q)
    return s * m * l + 2 * s * q * l


def exact_original_overhead_ops(n: int, m: int, l: int, q: int) -> int:
    """Operations of the original preconditioner chain with the full-data
    eigenvector matrix ``V`` of shape ``(n, q)``, evaluated in the same
    order as the improved one: ``n*m*l + 2*n*q*l``."""
    _check_dims(n=n, m=m, l=l, q=q)
    return n * m * l + 2 * n * q * l


def overhead_fraction(
    n: int, m: int, d: int, l: int, s: int, q: int
) -> float:
    """Relative overhead of improved EigenPro over SGD (computation).

    The paper's realistic example — ``n=1e6, s=1e4, d,m ~ 1e3, q,l ~ 1e2``
    — gives under 1 %; ``benchmarks/bench_table1.py`` reproduces it.
    """
    base = sgd_cost(n, m, d, l).computation
    if base == 0:
        raise ConfigurationError("SGD base cost is zero; dimensions degenerate")
    return improved_eigenpro_cost(n, m, d, l, s, q).overhead_computation / base
