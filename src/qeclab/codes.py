"""Code constructions, the logical/stabilizer/detectable scans, and classification.

Subspace equality is projector Frobenius distance < _tol.DERIVED, which is
basis independent.  Membership scans use _tol.SCAN.

The action of the model on a code is computed once per code, on its basis B
(P = B B*).  B is an isometry, so |P pi(x) P| and |pi(x) P - P pi(x) P| are
the norms of the compressed action C = B* pi(x) B and of pi(x) B - B C, and
the logical group, stabilizer, detectable set, partitioning test and Clifford
invariance test are all read from such norms.  The commutator [P, pi(x)]
needs no product of its own: its blocks (1 - P) pi(x) P and P pi(x) (1 - P)
are orthogonal, and pi(x)* is a unit multiple of pi(x^-1), so the second
has the norm of the first at x^-1.

Constituents are walked here only (_constituent_phases): with f0 a
trivializer of the restricted cocycle, the codes on H are the joint
eigenspaces of the linear rep conj(f0) pi|H.  existence_phase takes the first
and search.enumerate_weak_stabilizer_codes takes them all.  The action of L
on an L-invariant code is ProjectiveRep.on_subspace of the restriction to L,
which carries the restricted cocycle exactly, so it is never snapped afresh.

classify counts instead of building subspaces.  A code W lies in the (S, f)
eigenspace E of its stabilizer and in the (N, f|N) one of every N <= S, so W
is weak (W = E), or rebuilt from a normal N, exactly when
code_dimension_formula gives dim W; the weak witness |P_E - P_W| is
sqrt(dim E - dim W).  The Clifford flag counts intertwiners by characters.

The logical group, the stabilizer and the normal candidates are taken from
the model group's interning table (see groups), so classify validates no
member set that the subgroup lattice already holds, and their restricted
cocycles are the ones the lattice's subgroups already carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _tol
from ._linalg import compress, frobenius, nullspace, orthonormal_columns, scalar_deviation
from .cocycles import PhaseFunction, _greedy_generators, coboundary, find_trivializing_phase
from .groups import Subgroup
from .models import ProjectiveErrorModel, product_model
from .projreps import (
    MakeRepError,
    ProjectiveRep,
    _intertwiner_count,
    _reynolds,
    inertia_group,
    is_irreducible,
    rep_from_phase_function,
    restrict,
)

__all__ = [
    "CodeError",
    "CodeSpace",
    "CodeReport",
    "weak_stabilizer_code",
    "stabilizer_code",
    "existence_phase",
    "code_dimension_formula",
    "clifford_code",
    "logical_group",
    "stabilizer_group",
    "detectable_set",
    "is_partitioning",
    "classify",
    "stabilizer_to_clifford",
    "product_code",
]


class CodeError(ValueError):
    """Raised on construction precondition failures and snap failures."""


@dataclass(eq=False)
class CodeSpace:
    """A nonzero subspace given by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise CodeError("basis must be an ambient_dim x k matrix")
        if self.basis.shape[1] == 0:
            raise CodeError("code spaces must be nonzero")
        gram = self.basis.conj().T @ self.basis
        if frobenius(gram - np.eye(self.dim)) > _tol.EXACT:
            raise CodeError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "CodeSpace":
        cols = np.asarray(vectors, dtype=complex).reshape(-1, ambient_dim).T
        basis = orthonormal_columns(cols)
        if basis.shape[1] == 0:
            raise CodeError("vectors span the zero space")
        return cls(ambient_dim, basis)

    def equals(self, other: "CodeSpace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return frobenius(self.projector() - other.projector()) < _tol.DERIVED

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.basis[:, k]]
                for k in range(self.dim)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CodeSpace":
        d = int(data["ambient_dim"])
        cols = [np.array([complex(re, im) for re, im in col]) for col in data["basis"]]
        basis = np.stack(cols, axis=1)
        return cls(d, basis)

    def __repr__(self) -> str:
        return f"CodeSpace(dim {self.dim} in {self.ambient_dim})"


def _subgroup_generators(sub: Subgroup) -> list[int]:
    """Generators of the subgroup as parent-group element indices."""
    inner = _greedy_generators(sub.as_group())
    if not inner:
        inner = [sub.as_group().identity]
    return [sub.members[i] for i in inner]


def weak_stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """Joint eigenspace {v : pi(x) v = f(x) v for all x in the subgroup}.

    Computed over a generating set as E, then checked on the whole subgroup.
    Returns None when E is zero, and also when E fails the check, because
    the full space F is zero then.  A nonzero v in F gives f(x) f(y) v =
    pi(x) pi(y) v = sigma(x,y) f(xy) v, so df = sigma|H.  Then every u in E
    has pi(x) u = f(x) u, by induction on the length of x as a word in the
    generators (H is finite, so no inverses are needed): pi(e) u =
    sigma(e,e) u = f(e) u (both identities at x = y = e), and pi(yg) u =
    pi(y) pi(g) u / sigma(y,g) = f(y) f(g) u / sigma(y,g) = f(yg) u.  So
    E = F, and E passes the check.
    """
    if f.domain is not sub and tuple(f.domain.members) != tuple(sub.members):
        raise CodeError("phase function domain does not match the subgroup")
    eye = np.eye(model.dim, dtype=complex)
    mats = model.rep.matrices
    gens = _subgroup_generators(sub)
    basis = nullspace(np.vstack([mats[x] - f.value_at(x) * eye for x in gens]))
    if basis.shape[1] == 0:
        return None
    all_values = np.array([f.value_at(x) for x in sub.members])
    resid = np.einsum("xab,bk->xak", mats[list(sub.members)], basis)
    resid = resid - all_values[:, None, None] * basis[None, :, :]
    if np.abs(resid).max() > _tol.SCAN:
        return None
    code = CodeSpace(model.dim, basis)
    _assert_projective_phase(model, sub, f)
    return code


def _assert_projective_phase(model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction) -> None:
    # a nonzero joint eigenspace forces f to multiply like the cocycle does
    res = model.cocycle.restrict(sub)
    if f.is_exact:
        if coboundary(f) != res:
            raise RuntimeError("nonzero code with delta(f) != restricted cocycle")
        return
    got = np.multiply.outer(f.values, f.values)
    h = sub.as_group()
    expected = res.to_complex_table() * f.values[h.mul]
    if np.abs(got - expected).max() > _tol.DERIVED:
        raise RuntimeError("nonzero code with delta(f) != restricted cocycle")


def stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """weak_stabilizer_code with the subgroup required to be normal."""
    if not sub.is_normal():
        raise CodeError("stabilizer codes need a normal subgroup")
    return weak_stabilizer_code(model, sub, f)


def _joint_eigenspaces(matrices: np.ndarray, gens: list[int], basis: np.ndarray):
    """Yield a basis of every nonzero joint eigenspace of matrices[g], g in gens,
    inside the span of the orthonormal columns of basis.

    Depth first: the eigenvalues of the first generator compressed to the
    span are sorted by phase angle (angles within _tol.EXACT of a full turn
    read as 0, angles within _tol.SCAN of the last one kept are merged), and
    each branch intersects the span with a genuine eigenspace before the next
    generator refines it.  Spurious compressed eigenvalues of noncommuting
    generators die as empty intersections.  Branches come out in
    lexicographic angle order, one generator after another.
    """
    if not gens:
        yield basis
        return
    m = matrices[gens[0]]
    angles = np.mod(np.angle(np.linalg.eigvals(compress(m, basis))) / (2 * np.pi), 1.0)
    angles[angles > 1 - _tol.EXACT] = 0.0
    chosen: list[float] = []
    for a in sorted(angles):
        if not chosen or a - chosen[-1] > _tol.SCAN:
            chosen.append(a)
    eye = np.eye(matrices.shape[1])
    for a in chosen:
        ns = nullspace((m - np.exp(2j * np.pi * a) * eye) @ basis)
        if ns.shape[1]:
            yield from _joint_eigenspaces(matrices, gens[1:], basis @ ns)


def _constituent_phases(model: ProjectiveErrorModel, sub: Subgroup):
    """Yield every phase function f on sub with a nonzero code, one per constituent.

    With f0 a trivializer of the restricted cocycle, x -> conj(f0(x)) pi(x)
    is a linear rep of sub; f = f0 chi for the character chi of each of its
    joint eigenspaces, in _joint_eigenspaces order over the greedy
    generators.  Yields nothing when the restricted cocycle is not a
    coboundary.
    """
    f0 = find_trivializing_phase(model.cocycle.restrict(sub), domain=sub)
    if f0 is None:
        return
    lin = model.rep.matrices[list(sub.members)] * f0.values.conj()[:, None, None]
    gens = _greedy_generators(sub.as_group())
    for basis in _joint_eigenspaces(lin, gens, np.eye(model.dim, dtype=complex)):
        v = basis[:, 0]
        chi_values = np.einsum("a,xab,b->x", v.conj(), lin, v)
        chi = PhaseFunction.from_complex(sub, chi_values, max_den=len(sub))
        if not chi.is_exact:
            raise CodeError("constituent character did not snap to exact phases")
        yield f0.multiply(chi)


def existence_phase(model: ProjectiveErrorModel, sub: Subgroup) -> PhaseFunction | None:
    """A phase function with a guaranteed nonzero code, when one exists.

    Needs the subgroup abelian and the restricted cocycle a coboundary.  The
    choice among the 1-dimensional constituents is deterministic: it is the
    first one _constituent_phases yields, the lowest phase angle of each
    generator in turn.
    """
    if not sub.is_abelian():
        return None
    return next(_constituent_phases(model, sub), None)


def code_dimension_formula(model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction) -> int:
    """Average of conj(f), read on the members of sub, against the model
    character, snapped to an integer: dim of the (sub, f) eigenspace when df
    is the restricted cocycle."""
    members = list(sub.members)
    chi = model.rep.character().values[members]
    values = f.values[[f.domain.position(x) for x in members]]
    total = np.sum(np.conj(values) * chi) / len(sub)
    nearest = round(total.real)
    if abs(total - nearest) > _tol.DERIVED or nearest < 0:
        raise CodeError(f"dimension formula gave a non-integer value {total}")
    return int(nearest)


def clifford_code(model: ProjectiveErrorModel, sub: Subgroup, rho: ProjectiveRep) -> CodeSpace:
    """Image of the unique intertwiner from rho into the restricted action.

    Multiplicity one is <chi_rho, chi_res> (_intertwiner_count).  The map
    is then built without a constraint stack: A -> (1/|H|) sum_x res(x) A
    rho(x)* is the orthogonal projector onto Hom(rho, res)
    (projreps._reynolds), a space spanned by one unit T0.  The projector
    sends the matrix unit E_ab to conj(T0[a, b]) T0 and has trace dim Hom
    = 1, so its diagonal |T0[a, b]|^2, which is the character product
    (1/|H|) sum_x res(x)[a, a] conj(rho(x)[b, b]), sums to 1.  The image of
    the E_ab with the largest diagonal entry is therefore T0 scaled by at
    least 1/sqrt(dim V dim rho), nonzero, and no draw decides the result.
    It is checked to intertwine on every x before its image is taken.
    """
    if not is_irreducible(rho):
        raise CodeError("clifford_code: the small representation must be irreducible")
    res = restrict(model.rep, sub)
    if rho.cocycle != res.cocycle:
        raise CodeError(
            "clifford_code: the small representation's cocycle must equal the restricted cocycle"
        )
    count = _intertwiner_count(rho, res)
    if count != 1:
        raise CodeError(
            f"clifford_code: need multiplicity one, got intertwiner space of dim {count}"
        )
    if sub.index() * rho.dim != model.dim:
        raise CodeError(
            "clifford_code: index times small dimension must equal the ambient dimension "
            f"({sub.index()} * {rho.dim} != {model.dim})"
        )
    r, m = res.matrices, rho.matrices
    diag = np.einsum("xaa,xbb->ab", r, m.conj()).real
    a, b = np.unravel_index(np.argmax(diag), diag.shape)
    unit = np.zeros((model.dim, rho.dim), dtype=complex)
    unit[a, b] = 1.0
    t = _reynolds(rho, res, unit)
    if np.linalg.norm(r @ t - t @ m, axis=(1, 2)).max() > _tol.SCAN * frobenius(t):
        raise RuntimeError("clifford_code: the averaged map is not an intertwiner")
    basis = orthonormal_columns(t)
    if basis.shape[1] != rho.dim:
        raise CodeError("clifford_code: intertwiner is not injective")
    return CodeSpace(model.dim, basis)


class _Action(NamedTuple):
    """Per-element norms of the model's action on a code basis B, C = B* pi(x) B."""

    commutator: np.ndarray  # |P pi(x) - pi(x) P| = hypot(inside[x], inside[x^-1])
    scalars: np.ndarray     # c = tr(C) / dim W
    scalar_dev: np.ndarray  # |C - c 1|: zero where pi(x) acts on W as a scalar
    inside: np.ndarray      # |pi(x) B - B C|: zero where pi(x) maps W into W
    outside: np.ndarray     # |C|: zero where pi(x) maps W into its complement


def _code_action(model: ProjectiveErrorModel, code: CodeSpace) -> _Action:
    b, mats = code.basis, model.rep.matrices
    c = compress(mats, b)
    scalars, scalar_dev = scalar_deviation(c)
    inside = np.linalg.norm(mats @ b - b @ c, axis=(1, 2))
    return _Action(
        commutator=np.hypot(inside, inside[model.group.inv]),
        scalars=scalars,
        scalar_dev=scalar_dev,
        inside=inside,
        outside=np.linalg.norm(c, axis=(1, 2)),
    )


def _logical(model: ProjectiveErrorModel, act: _Action) -> Subgroup:
    return model.group._intern(np.flatnonzero(act.commutator < _tol.SCAN))


def _stabilizer(model: ProjectiveErrorModel, act: _Action) -> tuple[Subgroup, PhaseFunction]:
    keep = (act.scalar_dev < _tol.SCAN) & (np.abs(np.abs(act.scalars) - 1) < _tol.SCAN)
    members = np.flatnonzero(keep)
    sub = model.group._intern(members)
    f = PhaseFunction.from_complex(sub, act.scalars[members], max_den=4 * model.group.order)
    return sub, f


def _detectable(act: _Action) -> list[int]:
    return [int(x) for x in np.flatnonzero(act.scalar_dev < _tol.SCAN)]


def _partitioning(
    model: ProjectiveErrorModel,
    act: _Action,
    logical: Subgroup,
    stab: Subgroup,
    detect: list[int],
) -> tuple[bool, int | None]:
    bad = np.flatnonzero((act.inside >= _tol.SCAN) & (act.outside >= _tol.SCAN))
    if bad.size:
        return False, int(bad[0])
    closed_form = (set(range(model.group.order)) - set(logical.members)) | set(stab.members)
    if set(detect) != closed_form:
        raise RuntimeError("partitioning code whose detectable set is not the closed form")
    return True, None


def logical_group(model: ProjectiveErrorModel, code: CodeSpace) -> Subgroup:
    """Elements whose action commutes with the code projector."""
    return _logical(model, _code_action(model, code))


def stabilizer_group(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[Subgroup, PhaseFunction]:
    """Elements acting on the code as a unimodular scalar, with that scalar."""
    return _stabilizer(model, _code_action(model, code))


def detectable_set(model: ProjectiveErrorModel, code: CodeSpace) -> list[int]:
    """Elements acting as any scalar (including zero) on the code."""
    return _detectable(_code_action(model, code))


def is_partitioning(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[bool, int | None]:
    """Whether every element maps the code into itself or into its complement.

    Returns (flag, witness); the witness is the first element breaking the
    dichotomy.  When the flag holds, the detectable set is cross-checked
    against its closed form (complement of the logical group, plus the
    stabilizer).
    """
    act = _code_action(model, code)
    return _partitioning(
        model, act, _logical(model, act), _stabilizer(model, act)[0], _detectable(act)
    )


@dataclass(eq=False)
class CodeReport:
    """Everything classify computes about one code in one model."""

    model: ProjectiveErrorModel
    code: CodeSpace
    logical: Subgroup
    stabilizer: Subgroup
    stabilizer_phase: PhaseFunction
    detectable: list[int]
    flags: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)
    central_type_criterion: dict[str, bool] | None = None

    def __post_init__(self) -> None:
        lset = set(self.logical.members)
        sset = set(self.stabilizer.members)
        if not sset <= lset:
            raise RuntimeError("stabilizer group not contained in logical group")
        if not sset <= set(self.detectable):
            raise RuntimeError("stabilizer group not contained in detectable set")

    def to_json(self) -> dict:
        out = {
            "model": self.model.label,
            "group_order": self.model.group.order,
            "ambient_dim": self.model.dim,
            "code": self.code.to_json(),
            "code_dim": self.code.dim,
            "logical": [int(x) for x in self.logical.members],
            "stabilizer": [int(x) for x in self.stabilizer.members],
            "stabilizer_phase": self.stabilizer_phase.to_json(),
            "detectable": sorted(int(x) for x in self.detectable),
            "flags": dict(self.flags),
            "witnesses": dict(self.witnesses),
        }
        if self.central_type_criterion is not None:
            out["central_type_criterion"] = dict(self.central_type_criterion)
        return out


def _has_normal_reconstruction(
    model: ProjectiveErrorModel, code: CodeSpace, stab: Subgroup, f: PhaseFunction
) -> bool:
    """Whether a normal-in-G N <= stab has an (N, f|N) eigenspace of the code's dimension.

    The candidates N are the subgroups of stab.as_group(), mapped to G and
    taken from G's interning table, which holds them already once G's
    lattice has been built.
    """
    for inner in sorted(stab.as_group()._lattice(), key=len, reverse=True):
        sub = model.group._intern(stab.members[i] for i in inner)
        if sub.is_normal() and code_dimension_formula(model, sub, f) == code.dim:
            return True
    return False


def _clifford_flag(
    model: ProjectiveErrorModel, code: CodeSpace, logical: Subgroup, act: _Action
) -> tuple[bool, object]:
    g = model.group
    dim_v, dim_w = model.dim, code.dim
    if (dim_w * g.order) % dim_v != 0 or len(logical) * dim_v != dim_w * g.order:
        return False, (
            f"|L| = {len(logical)} != (dim W / dim V)|G| = {dim_w * g.order / dim_v}"
        )
    members = list(logical.members)
    if act.inside[members].max() > _tol.SCAN:
        return False, "code not invariant under the logical group"
    res = restrict(model.rep, logical)
    try:
        rho = res.on_subspace(code.basis)
    except MakeRepError as exc:
        return False, f"restricted action is not a representation: {exc}"
    if not is_irreducible(rho):
        return False, "restricted action on the code is reducible"
    if _intertwiner_count(rho, res) != 1:
        return False, "restricted action does not have multiplicity one"
    return True, None


def classify(model: ProjectiveErrorModel, code: CodeSpace) -> CodeReport:
    """Compute the three group invariants and all classification flags."""
    act = _code_action(model, code)
    logical = _logical(model, act)
    stab, f = _stabilizer(model, act)
    detect = _detectable(act)
    witnesses: dict[str, object] = {}

    _assert_projective_phase(model, stab, f)
    extra = code_dimension_formula(model, stab, f) - code.dim
    is_weak = extra == 0
    if not is_weak:
        witnesses["is_weak_stabilizer"] = f"projector distance {np.sqrt(extra):.3e}"

    is_cliff, cliff_witness = _clifford_flag(model, code, logical, act)
    if not is_cliff:
        witnesses["is_clifford"] = cliff_witness

    central = model.is_central_type()
    criterion: dict[str, bool] | None = None
    if central and is_cliff:
        crit_weak = model.group.order == len(logical) * len(stab)
        if crit_weak != is_weak:
            raise RuntimeError(
                "central-type weak stabilizer criterion disagrees with the direct test"
            )
        is_stab = is_weak and stab.is_normal()
        criterion = {"is_weak_stabilizer": crit_weak, "is_stabilizer": is_stab}
        if not is_stab and is_weak:
            witnesses["is_stabilizer"] = "stabilizer group is not normal"
        elif not is_stab:
            witnesses["is_stabilizer"] = "not a weak stabilizer code"
    else:
        is_stab = is_weak and _has_normal_reconstruction(model, code, stab, f)
        if not is_weak:
            witnesses["is_stabilizer"] = "not a weak stabilizer code"
        elif not is_stab:
            witnesses["is_stabilizer"] = "no normal subgroup of the stabilizer rebuilds the code"

    is_part, part_witness = _partitioning(model, act, logical, stab, detect)
    if not is_part:
        witnesses["is_partitioning"] = part_witness

    return CodeReport(
        model=model,
        code=code,
        logical=logical,
        stabilizer=stab,
        stabilizer_phase=f,
        detectable=detect,
        flags={
            "is_stabilizer": is_stab,
            "is_weak_stabilizer": is_weak,
            "is_clifford": is_cliff,
            "is_partitioning": is_part,
        },
        witnesses=witnesses,
        central_type_criterion=criterion,
    )


def stabilizer_to_clifford(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> tuple[Subgroup, CodeSpace]:
    """Present a nonzero stabilizer code as a Clifford code over the inertia group."""
    code = stabilizer_code(model, sub, f)
    if code is None:
        raise CodeError("zero stabilizer code has no Clifford presentation")
    if not f.is_exact:
        raise CodeError("need exact phases to compute the inertia group")
    theta = rep_from_phase_function(f)
    logical = inertia_group(theta, sub, model.cocycle)
    rho = restrict(model.rep, logical).on_subspace(code.basis)
    rebuilt = clifford_code(model, logical, rho)
    if frobenius(rebuilt.projector() - code.projector()) >= _tol.DERIVED:
        raise RuntimeError("Clifford presentation disagrees with the stabilizer code")
    return logical, rebuilt


def product_code(
    m1: ProjectiveErrorModel,
    w1: CodeSpace,
    m2: ProjectiveErrorModel,
    w2: CodeSpace,
) -> tuple[ProjectiveErrorModel, CodeSpace]:
    """Tensor model and tensor code, with the group formulas verified."""
    model = product_model(m1, m2)
    basis = np.kron(w1.basis, w2.basis)
    code = CodeSpace(m1.dim * m2.dim, basis)
    n2 = m2.group.order
    l1 = logical_group(m1, w1)
    l2 = logical_group(m2, w2)
    expected_l = {x * n2 + y for x in l1.members for y in l2.members}
    if set(logical_group(model, code).members) != expected_l:
        raise RuntimeError("product logical group is not the product of the factors")
    s1 = stabilizer_group(m1, w1)[0]
    s2 = stabilizer_group(m2, w2)[0]
    expected_s = {x * n2 + y for x in s1.members for y in s2.members}
    if set(stabilizer_group(model, code)[0].members) != expected_s:
        raise RuntimeError("product stabilizer group is not the product of the factors")
    return model, code
