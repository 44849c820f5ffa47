"""Exhaustive code enumeration over small models, and the non-normal probe.

Both entry points refuse oversized inputs instead of truncating: a partial
enumeration would silently break the completeness claims downstream tests
rely on.  Their max_order and max_dim replace the environment caps,
max_group_order() and max_ambient_dim(16), in either direction; None keeps
them.  The order cap is the one all_subgroups is given.

The codes of one subgroup come from the constituent walk in codes
(_constituent_phases); this module loops over subgroups and deduplicates.
"""

from __future__ import annotations

import numpy as np

from . import _tol
from ._linalg import orthonormal_columns
from .cocycles import PhaseFunction
from .codes import (
    CodeReport,
    CodeSpace,
    _constituent_phases,
    classify,
    clifford_code,
    weak_stabilizer_code,
)
from .groups import Subgroup, max_group_order
from .models import ProjectiveErrorModel, max_ambient_dim
from .projreps import MakeRepError, ProjectiveRep, _intertwiner_count, hom_space, is_irreducible, restrict

__all__ = [
    "SearchError",
    "enumerate_weak_stabilizer_codes",
    "q3_probe",
]


class SearchError(ValueError):
    """Raised when an input exceeds the search caps."""


def _check_caps(model: ProjectiveErrorModel, max_order: int | None, max_dim: int | None) -> int:
    """Raise SearchError past either cap (None: the environment's); return the order cap."""
    if max_order is None:
        max_order = max_group_order()
    if max_dim is None:
        max_dim = max_ambient_dim(16)
    if model.group.order > max_order:
        raise SearchError(
            f"group order {model.group.order} exceeds the search cap {max_order}"
        )
    if model.dim > max_dim:
        raise SearchError(f"ambient dimension {model.dim} exceeds the search cap {max_dim}")
    return max_order


class _ProjectorSet:
    """Projectors kept so far, for dedup by Frobenius distance < _tol.DERIVED.

    Kept projectors are grouped by rank, round(tr p), in one buffer per
    rank that doubles when full, so no call copies them all.  A new
    projector is compared against the kept ones of its own rank in one
    vectorized norm.  Skipping the other ranks is exact: for projectors P,
    Q of ranks r != s, |P - Q|^2 = r + s - 2 tr(PQ) >= |r - s| >= 1, since
    tr(PQ) <= min(r, s).
    """

    def __init__(self, dim: int):
        self._dim = dim
        self._bufs: dict[int, np.ndarray] = {}
        self._counts: dict[int, int] = {}

    def add_if_new(self, p: np.ndarray) -> bool:
        """Keep p and return True unless a kept projector is within _tol.DERIVED of it."""
        rank = round(np.trace(p).real)
        count = self._counts.get(rank, 0)
        if count:
            buf = self._bufs[rank]
            if (np.linalg.norm(buf[:count] - p, axis=(1, 2)) < _tol.DERIVED).any():
                return False
            if count == len(buf):
                buf = self._bufs[rank] = np.concatenate([buf, np.empty_like(buf)])
        else:
            buf = self._bufs[rank] = np.empty((16, self._dim, self._dim), dtype=complex)
        buf[count] = p
        self._counts[rank] = count + 1
        return True


def enumerate_weak_stabilizer_codes(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
) -> list[tuple[Subgroup, PhaseFunction, CodeSpace]]:
    """Every weak stabilizer code of the model, one (H, f) witness per space.

    For each subgroup the trivializing phase fixes the coset of admissible
    phase functions; the 1-dimensional constituents of the untwisted
    restriction supply exactly the members of that coset with nonzero code.
    Deduplicated by projector, first witness kept, subgroups in order.
    """
    max_order = _check_caps(model, max_order, max_dim)
    g = model.group
    results: list[tuple[Subgroup, PhaseFunction, CodeSpace]] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups(max_order):
        for f in _constituent_phases(model, sub):
            code = weak_stabilizer_code(model, sub, f)
            if code is None:
                raise RuntimeError("constituent with an empty code space")
            if kept.add_if_new(code.projector()):
                results.append((sub, f, code))
    return results


_SPLIT_SEED = 11
_SPLIT_ATTEMPTS = 8


def _irreducible_constituents(rep: ProjectiveRep) -> list[ProjectiveRep]:
    """Split a projective rep into irreducible invariant-subspace restrictions.

    A random Hermitian element of the commutant generically has one
    eigenvalue per irreducible constituent; degenerate draws are detected by
    the per-piece irreducibility check and retried with the next seed.
    Pieces are rep.on_subspace, so they keep the cocycle of rep.
    """
    if is_irreducible(rep):
        return [rep]
    maps = hom_space(rep, rep)
    dim = rep.dim
    for attempt in range(_SPLIT_ATTEMPTS):
        rng = np.random.default_rng(_SPLIT_SEED + attempt)
        coeff = rng.normal(size=len(maps)) + 1j * rng.normal(size=len(maps))
        t = sum(c * m for c, m in zip(coeff, maps))
        t = t + t.conj().T
        evals, evecs = np.linalg.eigh(t)
        pieces: list[ProjectiveRep] = []
        start = 0
        for k in range(1, dim + 1):
            if k < dim and evals[k] - evals[k - 1] < _tol.EIGENGAP * max(1.0, abs(evals[k])):
                continue
            basis = orthonormal_columns(evecs[:, start:k])
            start = k
            try:
                piece = rep.on_subspace(basis)
            except MakeRepError:
                break
            if not is_irreducible(piece):
                break
            pieces.append(piece)
        else:
            return pieces
    raise RuntimeError("commutant sampling failed to split the representation")


def q3_probe(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
    return_candidates: bool = False,
):
    """Clifford codes of a central-type model whose stabilizer is not normal
    yet satisfies the weak stabilizer order criterion.

    Returns the list of hits; with return_candidates=True also returns every
    Clifford-code report examined.
    """
    if not model.is_central_type():
        raise SearchError("the probe only applies to central-type models")
    max_order = _check_caps(model, max_order, max_dim)
    g = model.group
    hits: list[CodeReport] = []
    candidates: list[CodeReport] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups(max_order):
        index = sub.index()
        if model.dim % index != 0:
            continue
        target = model.dim // index
        res = restrict(model.rep, sub)
        for rho in _irreducible_constituents(res):
            if rho.dim != target:
                continue
            if _intertwiner_count(rho, res) != 1:
                continue
            code = clifford_code(model, sub, rho)
            if not kept.add_if_new(code.projector()):
                continue
            report = classify(model, code)
            candidates.append(report)
            order_match = g.order == len(report.logical) * len(report.stabilizer)
            if order_match and not report.stabilizer.is_normal():
                hits.append(report)
    if return_candidates:
        return hits, candidates
    return hits
