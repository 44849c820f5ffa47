"""The benchmark workloads: seeded inputs, the timed call, and output checks.

Every workload builds fresh models in `setup`, so a cache attached to a model
or a group helps only within one `run`, as it would within one CLI call.
qeclab functions are reached through their modules at call time, so the
tracer's wrappers are seen however late they are installed.

An operation is one model searched (`enumerate`, `q3`) or one channel tested
(`correct`).  `check` returns (attempted, failures, problems): one text per
failed operation, and the subset of those that are wrong outputs or failures
the notes do not explain.  Failures are never dropped.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from qeclab import channels, cli, codes, groups, models, projreps, search

# -- seeded relabeling -------------------------------------------------------


def relabel(model, rng: np.random.Generator):
    """The same model with its group elements renumbered by a random permutation."""
    g = model.group
    perm = rng.permutation(g.order)              # new element i is old element perm[i]
    pos = np.empty_like(perm)
    pos[perm] = np.arange(g.order)
    mul = pos[g.mul[np.ix_(perm, perm)]]
    names = [g.name_of(int(x)) for x in perm]
    group = groups.group_from_mul_table(mul, label=g.label, element_names=names)
    rep = projreps.make_rep(group, model.rep.matrices[perm], label=model.rep.label)
    return models.ProjectiveErrorModel(rep, label=model.label)


def build(spec: str):
    return cli.parse_model_spec(spec).model


def code_invariants(report) -> tuple:
    """(dim, |L|, |S|, |D|, flags) of a classified code; labeling independent."""
    flags = report.flags
    return (
        report.code.dim,
        len(report.logical),
        len(report.stabilizer),
        len(report.detectable),
        int(flags["is_stabilizer"]),
        int(flags["is_weak_stabilizer"]),
        int(flags["is_clifford"]),
        int(flags["is_partitioning"]),
    )


def _guarded(fn, *args):
    """(result, None) or (None, error text): one operation's failure stays its own."""
    try:
        return fn(*args), None
    except Exception as exc:  # recorded and counted as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


# -- enumerate ---------------------------------------------------------------

ENUMERATE_SPEC = "prod(genpauli:2,genpauli:4)"

# Multiset of code_invariants over every code of ENUMERATE_SPEC, recorded
# with the identity labeling at the commit that added this benchmark:
# (dim, |L|, |S|, |D|, stab, weak, clifford, partitioning) -> count.
ENUMERATE_REFERENCE = {
    (1, 8, 8, 64, 1, 1, 1, 1): 312,
    (2, 16, 4, 52, 1, 1, 1, 1): 172,
    (4, 32, 2, 34, 1, 1, 1, 1): 30,
    (8, 64, 1, 1, 1, 1, 1, 1): 1,
}


class Enumerate:
    """`qeclab search`: every weak stabilizer code, then `classify` on each."""

    def setup(self, seed: int):
        return [relabel(build(ENUMERATE_SPEC), np.random.default_rng(seed))]

    def run(self, inputs):
        out = []
        for model in inputs:
            found, err = _guarded(search.enumerate_weak_stabilizer_codes, model)
            if err is None:
                found, err = _guarded(lambda: [codes.classify(model, c) for _, _, c in found])
            out.append((found, err))
        return out

    def check(self, outputs):
        problems = []
        for reports, err in outputs:
            if err is not None:
                problems.append(err)
                continue
            got = Counter(code_invariants(r) for r in reports)
            if got != Counter(ENUMERATE_REFERENCE):
                problems.append(f"{len(reports)} codes whose invariants differ from the reference")
        return len(outputs), problems, problems


# -- q3 ----------------------------------------------------------------------

# spec -> (hits, candidates) of q3_probe
Q3_REFERENCE = {"oddfam:3": (48, 115), "genpauli:8": (0, 155)}


class Q3:
    """The non-normal-stabilizer probe on a nonabelian and an abelian model."""

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        return [(spec, relabel(build(spec), rng)) for spec in Q3_REFERENCE]

    def run(self, inputs):
        return [(spec, _guarded(lambda: search.q3_probe(m, return_candidates=True)))
                for spec, m in inputs]

    def check(self, outputs):
        problems = []
        for spec, (result, err) in outputs:
            if err is not None:
                problems.append(f"{spec}: {err}")
                continue
            got = (len(result[0]), len(result[1]))
            if got != Q3_REFERENCE[spec]:
                problems.append(f"{spec}: hits/candidates {got}, expected {Q3_REFERENCE[spec]}")
        return len(outputs), problems, problems


# -- correct -----------------------------------------------------------------

CORRECT_SPEC = "permprod(genpauli:2,3)"
WEAK_CODES = 40
LINE_CODES = 8
MAX_SUPPORT = 64
TOL_RECOVERY = 1e-7
# Seed of the choice of subgroups and supports, made over the elements in
# name order.  It is fixed, so every --seed tests the same codes and
# channels up to the relabeling: the work, and the operations the known
# defect fails, are then the same for every seed.  --seed relabels the
# group, draws the line codes and the channel probabilities.
CHOICE_SEED = 0
# The known defect described in NOTES.md: build_recovery rotates the Kraus
# operators by the conjugated eigenvectors of the Gram matrix.
KNOWN_DEFECT = "RuntimeError: recovery ranges do not assemble into a projector"


def _correctable_support(g, detectable: set[int], order: list[int], limit: int) -> list[int]:
    """The support E taken greedily in the given order, with x^-1 y detectable for all x, y in E."""
    support: list[int] = []
    for x in order:
        if all(int(g.mul[g.inv[x], y]) in detectable and int(g.mul[g.inv[y], x]) in detectable
               for y in support):
            support.append(x)
            if len(support) == limit:
                break
    return support


def _breaking_element(g, detectable: set[int], support: list[int], order: list[int]) -> int | None:
    """The first element in the given order whose addition makes the support uncorrectable."""
    for z in order:
        if any(int(g.mul[g.inv[y], z]) not in detectable for y in support):
            return z
    return None


def _oracle(g, detectable: set[int], support: list[int]) -> bool:
    return all(int(g.mul[g.inv[x], y]) in detectable for x in support for y in support)


def _distribution(order: int, support: list[int], rng) -> np.ndarray:
    p = np.zeros(order)
    p[support] = rng.uniform(0.5, 1.5, size=len(support))
    return p / p.sum()


class Correct:
    """Knill-Laflamme tests and recoveries for seeded codes and channels."""

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        model = relabel(build(CORRECT_SPEC), rng)
        g = model.group
        by_name = sorted(range(g.order), key=g.name_of)   # the same elements for every seed
        choice = np.random.default_rng(CHOICE_SEED)

        def shuffled() -> list[int]:
            return [by_name[i] for i in choice.permutation(g.order)]

        code_list = []
        seen = set()
        while len(code_list) < WEAK_CODES:
            k = int(choice.integers(1, 3))
            gens = [by_name[i] for i in choice.choice(g.order, size=k, replace=False)]
            sub = g.subgroup_generated(gens)
            if sub.members in seen or len(sub) == 1 or not sub.is_abelian():
                continue
            seen.add(sub.members)
            f = codes.existence_phase(model, sub)
            if f is not None:
                code_list.append(codes.weak_stabilizer_code(model, sub, f))
        for _ in range(LINE_CODES):
            v = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            code_list.append(codes.CodeSpace.from_vectors(model.dim, v))
        ops = []
        for code in code_list:
            detectable = set(codes.detectable_set(model, code))
            support = _correctable_support(g, detectable, shuffled(), MAX_SUPPORT)
            supports = [support]
            z = _breaking_element(g, detectable, support, shuffled())
            if z is not None:
                supports.append(support + [z])
            for s in supports:
                ops.append((code, _distribution(g.order, s, rng), _oracle(g, detectable, s)))
        return model, ops

    def run(self, inputs):
        model, ops = inputs
        out = []
        for code, p, expected in ops:
            out.append((expected, _guarded(self._operate, model, code, p)))
        return out

    @staticmethod
    def _operate(model, code, p):
        """(kl verdict, recovery deviation or None when not correctable)."""
        channel = channels.channel_from_model(model, p)
        verdict = bool(channels.kl_correctable(code, channel))
        if not verdict:
            return verdict, None
        recovery = channels.build_recovery(code, channel)
        return verdict, channels.verify_recovery(code, channel, recovery)

    def check(self, outputs):
        failures = []
        problems = []
        for expected, (result, err) in outputs:
            if err is not None:
                failures.append(err)
                if not (expected and err == KNOWN_DEFECT):
                    problems.append(err)
                continue
            verdict, dev = result
            if verdict != expected:
                failures.append(f"kl_correctable says {verdict}, the oracle {expected}")
                problems.append(failures[-1])
            elif dev is not None and dev > TOL_RECOVERY:
                failures.append(f"recovery deviation {dev:.3e}")
                problems.append(failures[-1])
        return len(outputs), failures, problems


WORKLOADS = {"enumerate": Enumerate, "q3": Q3, "correct": Correct}
