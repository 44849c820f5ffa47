"""Exhaustive code enumeration over small models, and the non-normal probe.

Both entry points refuse oversized inputs instead of truncating: a partial
enumeration would silently break the completeness claims downstream tests
rely on.
"""

from __future__ import annotations

import numpy as np

from ._linalg import compress, nullspace, orthonormal_columns
from .cocycles import PhaseFunction, _greedy_generators, find_trivializing_phase
from .codes import CodeReport, CodeSpace, classify, clifford_code, weak_stabilizer_code
from .groups import Subgroup
from .models import ProjectiveErrorModel
from .projreps import MakeRepError, ProjectiveRep, hom_space, inner_product, restrict

__all__ = [
    "SearchError",
    "enumerate_weak_stabilizer_codes",
    "q3_probe",
]


class SearchError(ValueError):
    """Raised when an input exceeds the search caps."""


def _check_caps(model: ProjectiveErrorModel, max_order: int, max_dim: int) -> None:
    if model.group.order > max_order:
        raise SearchError(
            f"group order {model.group.order} exceeds the search cap {max_order}"
        )
    if model.dim > max_dim:
        raise SearchError(f"ambient dimension {model.dim} exceeds the search cap {max_dim}")


class _ProjectorSet:
    """Projectors kept so far, for dedup by Frobenius distance < 1e-7.

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
        """Keep p and return True unless a kept projector is within 1e-7 of it."""
        rank = round(np.trace(p).real)
        count = self._counts.get(rank, 0)
        if count:
            buf = self._bufs[rank]
            if (np.linalg.norm(buf[:count] - p, axis=(1, 2)) < 1e-7).any():
                return False
            if count == len(buf):
                buf = self._bufs[rank] = np.concatenate([buf, np.empty_like(buf)])
        else:
            buf = self._bufs[rank] = np.empty((16, self._dim, self._dim), dtype=complex)
        buf[count] = p
        self._counts[rank] = count + 1
        return True


def _joint_eigenvectors(matrices: np.ndarray, gens: list[int]) -> list[np.ndarray]:
    """Bases of every nonzero joint eigenspace of the generator matrices.

    Works for noncommuting generators too: each branch intersects the running
    space with a genuine eigenspace, so spurious compressed eigenvalues die as
    empty intersections.  Branch order is deterministic (eigenvalue phase
    angle per generator).
    """
    dim = matrices.shape[1]
    branches = [np.eye(dim, dtype=complex)]
    for g in gens:
        refined: list[np.ndarray] = []
        for basis in branches:
            block = basis.conj().T @ matrices[g] @ basis
            eigvals = np.linalg.eigvals(block)
            angles = np.mod(np.angle(eigvals) / (2 * np.pi), 1.0)
            angles[angles > 1 - 1e-9] = 0.0
            chosen: list[float] = []
            for a in sorted(angles):
                if not chosen or a - chosen[-1] > 1e-8:
                    chosen.append(a)
            for a in chosen:
                c = np.exp(2j * np.pi * a)
                ns = nullspace((matrices[g] - c * np.eye(dim)) @ basis)
                if ns.shape[1]:
                    refined.append(basis @ ns)
        branches = refined
    return branches


def enumerate_weak_stabilizer_codes(
    model: ProjectiveErrorModel,
    max_order: int = 64,
    max_dim: int = 16,
) -> list[tuple[Subgroup, PhaseFunction, CodeSpace]]:
    """Every weak stabilizer code of the model, one (H, f) witness per space.

    For each subgroup the trivializing phase fixes the coset of admissible
    phase functions; the 1-dimensional constituents of the untwisted
    restriction supply exactly the members of that coset with nonzero code.
    Deduplicated by projector, first witness kept, subgroups in order.
    """
    _check_caps(model, max_order, max_dim)
    g = model.group
    results: list[tuple[Subgroup, PhaseFunction, CodeSpace]] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups():
        res = model.cocycle.restrict(sub)
        f0 = find_trivializing_phase(res, domain=sub)
        if f0 is None:
            continue
        h = sub.as_group()
        lin = model.rep.matrices[list(sub.members)] * f0.values.conj()[:, None, None]
        gens = _greedy_generators(h)
        for basis in _joint_eigenvectors(lin, gens):
            v = basis[:, 0]
            chi_values = np.einsum("a,xab,b->x", v.conj(), lin, v)
            chi = PhaseFunction.from_complex(sub, chi_values, max_den=len(sub))
            if not chi.is_exact:
                raise SearchError("constituent character failed to snap to exact phases")
            f = f0.multiply(chi)
            code = weak_stabilizer_code(model, sub, f)
            if code is None:
                raise RuntimeError("constituent with an empty code space")
            if kept.add_if_new(code.projector()):
                results.append((sub, f, code))
    return results


def _irreducible_constituents(
    rep: ProjectiveRep, seed: int = 11, attempts: int = 8
) -> list[ProjectiveRep]:
    """Split a projective rep into irreducible invariant-subspace restrictions.

    A random Hermitian element of the commutant generically has one
    eigenvalue per irreducible constituent; degenerate draws are detected by
    the per-piece irreducibility check and retried with the next seed.  A
    piece on an invariant subspace carries the cocycle of rep exactly, so it
    is validated against that cocycle rather than snapped afresh.
    """
    maps = hom_space(rep, rep)
    if len(maps) == 1:
        return [rep]
    dim = rep.dim
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        coeff = rng.normal(size=len(maps)) + 1j * rng.normal(size=len(maps))
        t = sum(c * m for c, m in zip(coeff, maps))
        t = t + t.conj().T
        evals, evecs = np.linalg.eigh(t)
        pieces: list[ProjectiveRep] = []
        start = 0
        good = True
        for k in range(1, dim + 1):
            if k < dim and evals[k] - evals[k - 1] < 1e-6 * max(1.0, abs(evals[k])):
                continue
            basis = orthonormal_columns(evecs[:, start:k])
            start = k
            small = compress(rep.matrices, basis)
            try:
                piece = ProjectiveRep(rep.group, small, rep.cocycle)
            except MakeRepError:
                good = False
                break
            if abs(inner_product(piece.character(), piece.character()) - 1) > 1e-7:
                good = False
                break
            pieces.append(piece)
        if good:
            return pieces
    raise RuntimeError("commutant sampling failed to split the representation")


def q3_probe(
    model: ProjectiveErrorModel,
    max_order: int = 64,
    max_dim: int = 16,
    return_candidates: bool = False,
):
    """Clifford codes of a central-type model whose stabilizer is not normal
    yet satisfies the weak stabilizer order criterion.

    Returns the list of hits; with return_candidates=True also returns every
    Clifford-code report examined.
    """
    if not model.is_central_type():
        raise SearchError("the probe only applies to central-type models")
    _check_caps(model, max_order, max_dim)
    g = model.group
    hits: list[CodeReport] = []
    candidates: list[CodeReport] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups():
        index = sub.index()
        if model.dim % index != 0:
            continue
        target = model.dim // index
        res = restrict(model.rep, sub)
        for rho in _irreducible_constituents(res):
            if rho.dim != target:
                continue
            if len(hom_space(rho, res)) != 1:
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
