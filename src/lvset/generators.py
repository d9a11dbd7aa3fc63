"""Random exact objects for law checks and transfer sweeps.

Everything is driven by a caller-supplied random.Random so sweeps are
reproducible. Entries are small rationals: independence of random rational
vectors is overwhelming, and small numerators keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from . import exactmat as xm
from .exactnum import GQ
from .projections import LatticeError, Projection, SpectralData, proj_from_span


ENTRY_SPREAD = 3       # numerators and denominators of vector entries
EIGENVALUE_SPREAD = 6  # numerators and denominators of eigenvalues
POOL_MAX_ENTRIES = 3   # largest domain of a random pool member


def random_rational(rng: random.Random, spread: int = ENTRY_SPREAD) -> Fraction:
    return Fraction(rng.randint(-spread, spread), rng.randint(1, spread))


def random_gq(rng: random.Random) -> GQ:
    return GQ(random_rational(rng), random_rational(rng))


def random_vector(rng: random.Random, dim: int) -> tuple:
    while True:
        v = tuple(random_gq(rng) for _ in range(dim))
        if any(not x.is_zero() for x in v):
            return v


def random_projection(rng: random.Random, dim: int,
                      rank: Optional[int] = None) -> Projection:
    """Projection onto the span of `rank` random rational vectors."""
    if rank is None:
        rank = rng.randint(0, dim)
    if not 0 <= rank <= dim:
        raise LatticeError(f"rank {rank} out of range 0..{dim}")
    vectors = [random_vector(rng, dim) for _ in range(rank)]
    return proj_from_span(vectors, dim)


def random_orthogonal_basis(rng: random.Random, dim: int) -> list:
    """A full orthogonal (not normalized) basis of exact vectors."""
    while True:
        candidates = [random_vector(rng, dim) for _ in range(dim)]
        basis = xm.orthogonalize(candidates)
        if len(basis) == dim:
            return basis


def random_commuting_pair(rng: random.Random, dim: int) -> tuple:
    """Two projections diagonal in a common orthogonal basis; they commute."""
    basis = random_orthogonal_basis(rng, dim)
    first = [b for b in basis if rng.random() < 0.5]
    second = [b for b in basis if rng.random() < 0.5]
    return proj_from_span(first, dim), proj_from_span(second, dim)


def random_projection_pair(rng: random.Random, dim: int) -> tuple:
    return random_projection(rng, dim), random_projection(rng, dim)


def random_spectral_data(rng: random.Random, dim: int,
                         n_eigenvalues: Optional[int] = None) -> SpectralData:
    """A random exact observable: orthogonal eigenspaces filling the space,
    distinct rational eigenvalues."""
    if n_eigenvalues is None:
        n_eigenvalues = rng.randint(1, dim)
    if not 1 <= n_eigenvalues <= dim:
        raise LatticeError(f"need 1..{dim} eigenvalues, got {n_eigenvalues}")
    basis = random_orthogonal_basis(rng, dim)
    rng.shuffle(basis)
    # Split the basis into n nonempty groups.
    cuts = sorted(rng.sample(range(1, dim), n_eigenvalues - 1)) if n_eigenvalues > 1 else []
    groups = []
    start = 0
    for cut in cuts + [dim]:
        groups.append(basis[start:cut])
        start = cut
    values: set = set()
    while len(values) < n_eigenvalues:
        values.add(random_rational(rng, EIGENVALUE_SPREAD))
    eigen = tuple(
        (v, proj_from_span(g, dim))
        for v, g in zip(sorted(values), groups)
    )
    return SpectralData(dim=dim, eigen=eigen)


def random_state_vector(rng: random.Random, dim: int) -> tuple:
    """A nonzero exact vector; probability code normalizes by ratio."""
    return random_vector(rng, dim)


def random_qset_pool(rng: random.Random, lattice, values, size: int) -> list:
    """Random lattice-valued sets grown bottom-up from the empty set.

    Each new member draws its domain from the pool built so far and its
    truth values from the given list, so ranks and sharing vary while
    every value stays inside the supplied finite set.
    """
    from .universe import empty_qset, make_qset
    values = list(values)
    if not values:
        raise LatticeError("value list must be nonempty")
    pool = [empty_qset(lattice)]
    while len(pool) < size:
        width = rng.randint(0, POOL_MAX_ENTRIES)
        domain = rng.sample(pool, min(width, len(pool)))
        entries = tuple((d, rng.choice(values)) for d in domain)
        pool.append(make_qset(lattice, entries))
    return pool
