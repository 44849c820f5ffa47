"""Command line front end.

Subcommands
-----------
model      inspect a model built from a spec string
code       build a code space: weak | stab | clifford
classify   full structural report for a code against a model
detect     list the detectable elements of a code with their scalars
correct    Knill-Laflamme test and recovery synthesis for a distribution
table      print the shipped character table (d4) and check it
reproduce  rerun a documented worked example, one PASS/FAIL per claim
search     enumerate weak stabilizer codes, or run the q3 probe

Spec strings
------------
groups:  cyclic:N  dihedral:N  sym:N  invsd:N  prod(<g>,<g>)  permsd(<g>,N)
models:  genpauli:N  pauli:N  xp:N  c2d2n:N  oddfam:N  prod(<m>,<m>)  permprod(<m>,N)

pauli:N is the N-qubit Pauli model, i.e. the N-fold product of genpauli:2.

--code accepts a JSON file written by ``code --out`` or an inline form:

    weak:<gens>[:<phasefile>]     weak stabilizer code on the generated subgroup
    stab:<gens>[:<phasefile>]     stabilizer code (subgroup must be normal)
    clifford:<gens>:<rhofile>     code for the rep stored in <rhofile>
    family                        the designated code of a c2d2n / oddfam model
    dicke                         symmetric-subspace code of a permprod model

<gens> is a comma separated list of group element indices.  Phase files map
element index to [num, den]; elements not listed default to phase 1.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import _tol
from .channels import (
    build_recovery,
    channel_from_model,
    kl_correctable,
    kl_detectable,
    verify_recovery,
)
from .cocycles import Phase, PhaseFunction
from .codes import (
    CodeError,
    CodeSpace,
    classify,
    clifford_code,
    detectable_set,
    stabilizer_code,
    weak_stabilizer_code,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    inversion_semidirect,
    permutation_semidirect,
    symmetric,
)
from .models import (
    D4_COLUMN_NAMES,
    ProjectiveErrorModel,
    d4_character_table,
    d4_expected_table,
    dihedral_xp_model,
    family_c2_x_d2n,
    family_odd,
    gen_pauli_model,
    perm_product_model,
    product_model,
)
from .projreps import ProjectiveRep
from .search import enumerate_weak_stabilizer_codes, q3_probe


class UsageError(ValueError):
    """Malformed command line input (exit code 2)."""


def _int(s: str, what: str = "integer") -> int:
    try:
        return int(s)
    except ValueError:
        raise UsageError(f"expected an {what}, got {s!r}") from None


def _split_args(s: str) -> list[str]:
    """Split on top-level commas only, so nested prod(...) specs survive."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise UsageError(f"unbalanced parentheses in {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def parse_group_spec(spec: str) -> FiniteGroup:
    s = spec.strip()
    if s.startswith("prod(") and s.endswith(")"):
        args = _split_args(s[5:-1])
        if len(args) != 2:
            raise UsageError(f"prod takes two group specs: {spec!r}")
        return direct_product(parse_group_spec(args[0]), parse_group_spec(args[1]))
    if s.startswith("permsd(") and s.endswith(")"):
        args = _split_args(s[7:-1])
        if len(args) != 2:
            raise UsageError(f"permsd takes a group spec and a count: {spec!r}")
        return permutation_semidirect(parse_group_spec(args[0]), _int(args[1]))
    head, sep, tail = s.partition(":")
    makers = {
        "cyclic": cyclic,
        "dihedral": dihedral,
        "invsd": inversion_semidirect,
        "sym": symmetric,
    }
    if not sep or head not in makers:
        raise UsageError(f"unknown group spec {spec!r}")
    return makers[head](_int(tail))


class ParsedModel:
    """A model plus the extra structure some spec families carry."""

    def __init__(self, model, family=None, dicke_count=None):
        self.model: ProjectiveErrorModel = model
        # (subgroup, rep) pair for the built-in Clifford code families
        self.family: tuple[Subgroup, ProjectiveRep] | None = family
        # permprod copy count, for the symmetric-subspace construction
        self.dicke_count: int | None = dicke_count


def parse_model_spec(spec: str) -> ParsedModel:
    s = spec.strip()
    if s.startswith("prod(") and s.endswith(")"):
        args = _split_args(s[5:-1])
        if len(args) != 2:
            raise UsageError(f"prod takes two model specs: {spec!r}")
        m1 = parse_model_spec(args[0]).model
        m2 = parse_model_spec(args[1]).model
        return ParsedModel(product_model(m1, m2))
    if s.startswith("permprod(") and s.endswith(")"):
        args = _split_args(s[9:-1])
        if len(args) != 2:
            raise UsageError(f"permprod takes a model spec and a count: {spec!r}")
        base = parse_model_spec(args[0]).model
        n = _int(args[1])
        return ParsedModel(perm_product_model(base, n), dicke_count=n)
    head, sep, tail = s.partition(":")
    if not sep:
        raise UsageError(f"unknown model spec {spec!r}")
    n = _int(tail)
    if head == "genpauli":
        return ParsedModel(gen_pauli_model(n))
    if head == "pauli":
        if n < 1:
            raise UsageError("pauli:N needs N >= 1")
        model = gen_pauli_model(2)
        for _ in range(n - 1):
            model = product_model(model, gen_pauli_model(2))
        return ParsedModel(model)
    if head == "xp":
        return ParsedModel(dihedral_xp_model(n))
    if head == "c2d2n":
        model, sub, rho = family_c2_x_d2n(n)
        return ParsedModel(model, family=(sub, rho))
    if head == "oddfam":
        model, sub, rho = family_odd(n)
        return ParsedModel(model, family=(sub, rho))
    raise UsageError(f"unknown model spec {spec!r}")


def _parse_subgroup(group: FiniteGroup, arg: str) -> Subgroup:
    try:
        gens = [int(t) for t in arg.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"--subgroup wants comma separated indices, got {arg!r}") from None
    for g in gens:
        if not 0 <= g < group.order:
            raise UsageError(f"generator {g} outside the group (order {group.order})")
    return group.subgroup_generated(gens)


def _load_phase(sub: Subgroup, path: str | None) -> PhaseFunction:
    if path is None:
        return PhaseFunction.constant_one(sub)
    with open(path) as fh:
        raw = json.load(fh)
    try:
        table = {int(k): Phase(int(v[0]), int(v[1])) for k, v in raw.items()}
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"phase file {path} must map indices to [num, den > 0]: {exc}") from None
    for idx in table:
        if idx not in sub:
            raise UsageError(f"phase file mentions element {idx} outside the subgroup")
    phases = [table.get(x, Phase(0, 1)) for x in sub.members]
    return PhaseFunction.exact(sub, phases)


def _load_rho(sub: Subgroup, path: str) -> ProjectiveRep:
    with open(path) as fh:
        data = json.load(fh)
    return ProjectiveRep.from_json(sub.as_group(), data)


def _dicke_subgroup(parsed: ParsedModel) -> Subgroup:
    if parsed.dicke_count is None:
        raise UsageError("'dicke' only applies to permprod model specs")
    # permutation part of the semidirect product: identity value tuple
    return parsed.model.group.subgroup(range(math.factorial(parsed.dicke_count)))


def _load_code(parsed: ParsedModel, arg: str) -> CodeSpace:
    model = parsed.model
    if os.path.exists(arg):
        with open(arg) as fh:
            data = json.load(fh)
        try:
            code = CodeSpace.from_json(data)
        except CodeError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"code file {arg} is malformed: {exc!r}") from None
        if code.ambient_dim != model.dim:
            raise UsageError(
                f"code lives in dimension {code.ambient_dim}, model in {model.dim}"
            )
        return code
    if arg == "family":
        if parsed.family is None:
            raise UsageError("'family' only applies to c2d2n / oddfam model specs")
        sub, rho = parsed.family
        return clifford_code(model, sub, rho)
    if arg == "dicke":
        sub = _dicke_subgroup(parsed)
        code = weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
        if code is None:
            raise UsageError("symmetric-subspace construction produced a zero code")
        return code
    head, sep, rest = arg.partition(":")
    if not sep:
        raise UsageError(f"--code wants a file or construction, got {arg!r}")
    parts = rest.split(":")
    sub = _parse_subgroup(model.group, parts[0])
    if head in ("weak", "stab"):
        if len(parts) > 2:
            raise UsageError(f"too many ':' fields in {arg!r}")
        f = _load_phase(sub, parts[1] if len(parts) == 2 else None)
        build = weak_stabilizer_code if head == "weak" else stabilizer_code
        code = build(model, sub, f)
        if code is None:
            raise UsageError(f"construction {arg!r} produced a zero code")
        return code
    if head == "clifford":
        if len(parts) != 2:
            raise UsageError("clifford:<gens>:<rhofile> needs a rep file")
        return clifford_code(model, sub, _load_rho(sub, parts[1]))
    raise UsageError(f"unknown code construction {arg!r}")


def _fmt_complex(z: complex, nd: int = 9) -> str:
    re, im = round(z.real, nd), round(z.imag, nd)
    if re == int(re) and im == int(im):
        re_i, im_i = int(re), int(im)
        if im_i == 0:
            return str(re_i)
        imag = {1: "i", -1: "-i"}.get(im_i, f"{im_i}i")
        if re_i == 0:
            return imag
        return f"{re_i}+{imag}" if im_i > 0 else f"{re_i}{imag}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _group_json(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "mul": [[int(v) for v in row] for row in group.mul],
        "identity": group.identity,
        "label": group.label,
    }


def _model_json(model: ProjectiveErrorModel) -> dict:
    sigma = model.cocycle
    return {
        "label": model.label,
        "group": _group_json(model.group),
        "rep": model.rep.to_json(),
        "cocycle": sigma.to_json(),
        "central_type": model.is_central_type(),
    }


# ---------------------------------------------------------------- commands


def cmd_model(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    if args.json:
        print(json.dumps(_model_json(model)))
        return 0
    sigma = model.cocycle
    print(f"model {model.label}")
    print(f"  group order   {model.group.order}  ({model.group.label})")
    print(f"  ambient dim   {model.dim}")
    print("  irreducible   true")
    print("  proj faithful true")
    print(f"  central type  {str(model.is_central_type()).lower()}")
    print(f"  cocycle den   {sigma.den}")
    return 0


def cmd_code(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    if args.kind == "clifford":
        if args.rho == "family" or (args.rho is None and args.subgroup is None):
            if parsed.family is None:
                raise UsageError("--rho family needs a c2d2n / oddfam model spec")
            sub, rho = parsed.family
            if args.subgroup is not None:
                given = _parse_subgroup(model.group, args.subgroup)
                if tuple(given.members) != tuple(sub.members):
                    raise UsageError("--subgroup disagrees with the family subgroup")
        elif args.rho is None:
            raise UsageError("code clifford needs --rho <file|family>")
        else:
            if args.subgroup is None:
                raise UsageError("code clifford needs --subgroup with a rep file")
            sub = _parse_subgroup(model.group, args.subgroup)
            rho = _load_rho(sub, args.rho)
        code = clifford_code(model, sub, rho)
    else:
        if args.subgroup is None:
            raise UsageError(f"code {args.kind} needs --subgroup")
        sub = _parse_subgroup(model.group, args.subgroup)
        f = _load_phase(sub, args.phase)
        build = weak_stabilizer_code if args.kind == "weak" else stabilizer_code
        code = build(model, sub, f)
        if code is None:
            print(f"no code: the eigenvalue-1 space on |H|={len(sub)} is zero")
            return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(code.to_json(), fh)
    if args.json:
        print(json.dumps(code.to_json()))
    else:
        print(f"code dim {code.dim} in ambient dim {code.ambient_dim}")
        if args.out:
            print(f"written to {args.out}")
    return 0


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json()))
        return
    flags = report.flags
    print(f"model {report.model.label}: code dim {report.code.dim} in {report.model.dim}")
    print(f"  logical group    |L| = {len(report.logical)}")
    print(f"  stabilizer group |S| = {len(report.stabilizer)}")
    print(f"  detectable set   |D| = {len(report.detectable)}")
    for name in ("is_stabilizer", "is_weak_stabilizer", "is_clifford", "is_partitioning"):
        line = f"  {name:<18} {str(flags[name]).lower()}"
        if name in report.witnesses:
            line += f"  ({report.witnesses[name]})"
        print(line)
    if report.central_type_criterion is not None:
        print(f"  central-type criterion: {report.central_type_criterion}")


def cmd_classify(args) -> int:
    parsed = parse_model_spec(args.spec)
    report = classify(parsed.model, _load_code(parsed, args.code))
    _print_report(report, args.json)
    return 0


def cmd_detect(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    code = _load_code(parsed, args.code)
    detect = detectable_set(model, code)
    rows = []
    for x in detect:
        c = kl_detectable(code, model.rep.matrix(x))
        rows.append({"index": int(x), "name": model.group.name_of(x), "scalar": c})
    if args.json:
        out = [
            {"index": r["index"], "name": r["name"],
             "scalar": [r["scalar"].real, r["scalar"].imag]}
            for r in rows
        ]
        print(json.dumps({"detectable": out, "count": len(out)}))
        return 0
    print(f"{len(rows)} detectable elements of {model.group.order}")
    for r in rows:
        print(f"  {r['index']:>4}  {r['name']:<12} scalar {_fmt_complex(r['scalar'])}")
    return 0


def _parse_dist(model: ProjectiveErrorModel, arg: str) -> np.ndarray:
    order = model.group.order
    if arg == "uniform":
        return np.full(order, 1.0 / order)
    if arg.startswith("point:"):
        x = _int(arg[6:], "element index")
        if not 0 <= x < order:
            raise UsageError(f"point element {x} outside the group (order {order})")
        p = np.zeros(order)
        p[x] = 1.0
        return p
    if os.path.exists(arg):
        with open(arg) as fh:
            p = np.asarray(json.load(fh), dtype=float)
        if p.shape != (order,):
            raise UsageError(f"distribution file needs {order} entries, got {p.shape}")
        return p
    raise UsageError(f"--dist wants uniform, point:<x>, or a file, got {arg!r}")


def cmd_correct(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    code = _load_code(parsed, args.code)
    channel = channel_from_model(model, _parse_dist(model, args.dist))
    result = kl_correctable(code, channel)
    if not result:
        i, j = result.witness
        print(f"not correctable: Kraus pair ({i}, {j}) fails the scalar test")
        return 1
    recovery = build_recovery(code, channel)
    deviation = verify_recovery(code, channel, recovery)
    ok = deviation < _tol.DERIVED
    print(f"correctable: yes ({channel.kraus.shape[0]} Kraus operators)")
    print(f"recovery: {recovery.kraus.shape[0]} operators, max deviation {deviation:.3e}")
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: recovery restores code states within {_tol.DERIVED:.0e}")
    return 0 if ok else 1


def cmd_table(args) -> int:
    computed = d4_character_table()
    expected = d4_expected_table()
    width = 6
    header = " " * 7 + "".join(f"{c:>{width}}" for c in D4_COLUMN_NAMES)
    print(header)
    worst = 0.0
    for name, row in computed.items():
        cells = "".join(f"{_fmt_complex(z):>{width}}" for z in row)
        print(f"{name:<7}{cells}")
        worst = max(
            worst, max(abs(z - w) for z, w in zip(row, expected[name]))
        )
    print(f"check: max deviation from reference {worst:.2e}")
    if worst > _tol.EXACT:
        print("FAIL: table does not match the reference")
        return 1
    return 0


def _claims_to_exit(claims: list[tuple[str, bool, str]]) -> int:
    bad = 0
    for name, ok, detail in claims:
        tag = "PASS" if ok else "FAIL"
        line = f"{tag}: {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        bad += 0 if ok else 1
    return 0 if bad == 0 else 1


def _reproduce_c2d2n(n: int) -> list[tuple[str, bool, str]]:
    model, sub, rho = family_c2_x_d2n(n)
    code = clifford_code(model, sub, rho)
    report = classify(model, code)
    flags = report.flags
    return [
        ("dim=2", code.dim == 2, f"got {code.dim}"),
        ("clifford=true", flags["is_clifford"], ""),
        ("weak_stabilizer=false", not flags["is_weak_stabilizer"], ""),
        ("stabilizer=false", not flags["is_stabilizer"], ""),
        (f"|L|={4 * n}", len(report.logical) == 4 * n, f"got {len(report.logical)}"),
        ("|S|=1", len(report.stabilizer) == 1, f"got {len(report.stabilizer)}"),
        (f"|D|={4 * n + 1}", len(report.detectable) == 4 * n + 1,
         f"got {len(report.detectable)}"),
    ]


def _reproduce_odd(n: int) -> list[tuple[str, bool, str]]:
    model, sub, rho = family_odd(n)
    code = clifford_code(model, sub, rho)
    report = classify(model, code)
    flags = report.flags
    crit = report.central_type_criterion
    return [
        (f"dim={n} in ambient {2 * n}", code.dim == n and model.dim == 2 * n,
         f"got {code.dim} in {model.dim}"),
        ("clifford=true", flags["is_clifford"], ""),
        ("weak_stabilizer=false", not flags["is_weak_stabilizer"], ""),
        (f"|L|={2 * n * n}", len(report.logical) == 2 * n * n,
         f"got {len(report.logical)}"),
        ("|S|=1", len(report.stabilizer) == 1, f"got {len(report.stabilizer)}"),
        ("order criterion agrees with direct test",
         crit is not None and crit["is_weak_stabilizer"] == flags["is_weak_stabilizer"],
         f"criterion {crit}"),
    ]


def _reproduce_dicke(n: int) -> list[tuple[str, bool, str]]:
    model = perm_product_model(gen_pauli_model(2), n)
    sub = model.group.subgroup(range(math.factorial(n)))
    code = weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
    if code is None:
        return [("symmetric subspace nonzero", False, "construction returned None")]
    report = classify(model, code)
    flags = report.flags
    sn = set(sub.members)
    witness = report.witnesses.get("is_partitioning")
    claims = [
        (f"dim={n + 1}", code.dim == n + 1, f"got {code.dim}"),
        ("weak_stabilizer=true", flags["is_weak_stabilizer"], ""),
        ("stabilizer contains the permutation subgroup",
         sn <= set(report.stabilizer.members),
         f"|S|={len(report.stabilizer)}"),
        ("clifford=false", not flags["is_clifford"],
         str(report.witnesses.get("is_clifford", ""))),
        ("partitioning=false", not flags["is_partitioning"], f"witness {witness}"),
    ]
    # logical group is strictly smaller than the Clifford order formula allows
    bound = (code.dim * model.group.order) // model.dim
    claims.append(
        (f"|L|<{bound}", len(report.logical) < bound, f"got {len(report.logical)}")
    )
    return claims


def _reproduce_product() -> list[tuple[str, bool, str]]:
    from .codes import product_code

    model1, sub1, rho1 = family_c2_x_d2n(2)
    code1 = clifford_code(model1, sub1, rho1)
    model, code = product_code(model1, code1, model1, code1)
    report = classify(model, code)
    flags = report.flags
    return [
        ("dim=4 in ambient 16", code.dim == 4 and model.dim == 16,
         f"got {code.dim} in {model.dim}"),
        ("|L|=64", len(report.logical) == 64, f"got {len(report.logical)}"),
        ("|S|=1", len(report.stabilizer) == 1, f"got {len(report.stabilizer)}"),
        ("clifford=true", flags["is_clifford"], ""),
        ("weak_stabilizer=false", not flags["is_weak_stabilizer"], ""),
        ("stabilizer=false", not flags["is_stabilizer"], ""),
    ]


def cmd_reproduce(args) -> int:
    name = args.name
    if name == "prod-example":
        return _claims_to_exit(_reproduce_product())
    if args.n is None:
        raise UsageError(f"reproduce {name} needs --n")
    if name == "prop8.1":
        return _claims_to_exit(_reproduce_c2d2n(args.n))
    if name == "prop8.2":
        return _claims_to_exit(_reproduce_odd(args.n))
    if name == "prop9.1":
        return _claims_to_exit(_reproduce_dicke(args.n))
    raise UsageError(f"unknown example {name!r}")


def cmd_search(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    if args.q3:
        hits = q3_probe(model, max_order=args.max_order, max_dim=args.max_dim)
        reports = hits
        title = "q3 probe hits"
    else:
        found = enumerate_weak_stabilizer_codes(
            model, max_order=args.max_order, max_dim=args.max_dim
        )
        reports = [classify(model, code) for _, _, code in found]
        title = "weak stabilizer codes"
    for report in reports:
        print(json.dumps(report.to_json()))
    print()
    print(f"{title} for {model.label}: {len(reports)}")
    if reports:
        print(f"{'#':>3} {'dim':>4} {'|L|':>4} {'|S|':>4} {'|D|':>4}  flags")
        for k, report in enumerate(reports):
            flags = "".join(
                name[3].upper() if val else "-"
                for name, val in sorted(report.flags.items())
            )
            print(
                f"{k:>3} {report.code.dim:>4} {len(report.logical):>4}"
                f" {len(report.stabilizer):>4} {len(report.detectable):>4}  {flags}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qeclab",
        description="codes and channels for projective error models on finite groups",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    mp = sub.add_parser("model", help="inspect a model spec")
    mp.add_argument("spec")
    mp.add_argument("--json", action="store_true")
    mp.set_defaults(fn=cmd_model)

    cp = sub.add_parser("code", help="build a code space")
    cp.add_argument("kind", choices=["weak", "stab", "clifford"])
    cp.add_argument("spec")
    cp.add_argument("--subgroup", help="comma separated generator indices")
    cp.add_argument("--phase", help="JSON phase file: element index -> [num, den]")
    cp.add_argument("--rho", help="rep JSON file, or 'family' (clifford only)")
    cp.add_argument("--json", action="store_true")
    cp.add_argument("--out", help="write the code JSON to this file")
    cp.set_defaults(fn=cmd_code)

    for name, fn, help_text in (
        ("classify", cmd_classify, "full structural report for a code"),
        ("detect", cmd_detect, "detectable elements with their scalars"),
    ):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("spec")
        q.add_argument("--code", required=True)
        q.add_argument("--json", action="store_true")
        q.set_defaults(fn=fn)

    xp = sub.add_parser("correct", help="KL test and recovery for a distribution")
    xp.add_argument("spec")
    xp.add_argument("--code", required=True)
    xp.add_argument("--dist", required=True, help="uniform | point:<x> | <file>")
    xp.set_defaults(fn=cmd_correct)

    tp = sub.add_parser("table", help="print a shipped character table")
    tp.add_argument("name", choices=["d4"])
    tp.set_defaults(fn=cmd_table)

    rp = sub.add_parser("reproduce", help="rerun a documented worked example")
    rp.add_argument(
        "name", choices=["prop8.1", "prop8.2", "prop9.1", "prod-example"]
    )
    rp.add_argument("--n", type=int)
    rp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("search", help="enumerate codes or run the q3 probe")
    sp.add_argument("spec")
    sp.add_argument("--q3", action="store_true")
    sp.add_argument("--max-order", type=int, default=None)
    sp.add_argument("--max-dim", type=int, default=None)
    sp.set_defaults(fn=cmd_search)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
