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

reproduce prints one PASS or FAIL line per claim of a worked example: a
number as ``x=v (got v)``, a flag as ``flag=true|false`` followed by the
report's witness in parentheses when it has one.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import _tol
from ._linalg import complex_json
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
    product_code,
    stabilizer_code,
    weak_stabilizer_code,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    TableSizeError,
    cyclic,
    dihedral,
    direct_product,
    inversion_semidirect,
    permutation_semidirect,
    symmetric,
)
from .models import (
    D4_COLUMN_NAMES,
    ModelError,
    ProjectiveErrorModel,
    _c2_x_d2n_code,
    _c2_x_d2n_model,
    _odd_code,
    _odd_model,
    d4_character_table,
    d4_expected_table,
    dihedral_xp_model,
    gen_pauli_model,
    perm_product_model,
    product_model,
)
from .projreps import MakeRepError, ProjectiveRep
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
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth < 0:
            raise UsageError(f"unbalanced parentheses in {s!r}")
        if ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth != 0:
        raise UsageError(f"unbalanced parentheses in {s!r}")
    return parts + [s[start:]]


class ParsedModel:
    """A model plus the extra structure some spec families carry."""

    def __init__(self, model, family_of=None, dicke_count=None):
        self.model: ProjectiveErrorModel = model
        # builds the family's (subgroup, rep) pair from the model
        self._family_of = family_of
        # permprod copy count, for the symmetric-subspace construction
        self.dicke_count: int | None = dicke_count

    @functools.cached_property
    def family(self) -> tuple[Subgroup, ProjectiveRep] | None:
        """The (subgroup, rep) pair of a built-in Clifford code family, on
        the model's own group, built when first read."""
        return None if self._family_of is None else self._family_of(self.model)


def _pauli(n: int) -> ProjectiveErrorModel:
    if n < 1:
        raise UsageError("pauli:N needs N >= 1")
    return functools.reduce(product_model, [gen_pauli_model(2) for _ in range(n)])


# spec kind -> (the name(<a>,<b>) nodes, the head:N leaves)
_SPECS = {
    "group": (
        {"prod": lambda a, b: direct_product(parse_group_spec(a), parse_group_spec(b)),
         "permsd": lambda a, n: permutation_semidirect(parse_group_spec(a), _int(n))},
        {"cyclic": cyclic, "dihedral": dihedral, "invsd": inversion_semidirect, "sym": symmetric},
    ),
    "model": (
        {"prod": lambda a, b: ParsedModel(
            product_model(parse_model_spec(a).model, parse_model_spec(b).model)),
         "permprod": lambda a, n: ParsedModel(
            perm_product_model(parse_model_spec(a).model, _int(n)), dicke_count=_int(n))},
        {"genpauli": lambda n: ParsedModel(gen_pauli_model(n)),
         "pauli": lambda n: ParsedModel(_pauli(n)),
         "xp": lambda n: ParsedModel(dihedral_xp_model(n)),
         "c2d2n": lambda n: ParsedModel(_c2_x_d2n_model(n), family_of=_c2_x_d2n_code),
         "oddfam": lambda n: ParsedModel(_odd_model(n), family_of=_odd_code)},
    ),
}


def _parse_spec(spec: str, kind: str):
    """The group or model a spec names; a ModelError or TableSizeError while
    building it (a family parameter out of range, a product over the
    dimension cap, a group table over the size cap) is a UsageError naming
    the spec."""
    nodes, leaves = _SPECS[kind]
    s = spec.strip()
    name, paren, inner = s.partition("(")
    head, sep, tail = s.partition(":")
    try:
        if paren and name in nodes and inner.endswith(")"):
            args = _split_args(inner[:-1])
            if len(args) != 2:
                raise UsageError(f"{name} takes two arguments: {spec!r}")
            return nodes[name](*args)
        if not sep or head not in leaves:
            raise UsageError(f"unknown {kind} spec {spec!r}")
        return leaves[head](_int(tail))
    except (ModelError, TableSizeError) as exc:
        raise UsageError(f"{kind} spec {spec!r}: {exc}") from None


def parse_group_spec(spec: str) -> FiniteGroup:
    return _parse_spec(spec, "group")


def parse_model_spec(spec: str) -> ParsedModel:
    return _parse_spec(spec, "model")


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
    try:
        return ProjectiveRep.from_json(sub.as_group(), data)
    except MakeRepError:
        raise
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"rep file {path} is malformed: {exc!r}") from None


def _dicke_subgroup(parsed: ParsedModel) -> Subgroup:
    if parsed.dicke_count is None:
        raise UsageError("'dicke' only applies to permprod model specs")
    # permutation part of the semidirect product: identity value tuple
    return parsed.model.group.subgroup(range(math.factorial(parsed.dicke_count)))


def _construct(
    parsed: ParsedModel, kind: str, gens: str | None = None, path: str | None = None
) -> CodeSpace | None:
    """The code of one construction kind (see --code), or None when it is zero.

    gens generate the subgroup, which must be the family's for family; path
    is the phase file of weak / stab, or the rep file of clifford.
    """
    model = parsed.model
    if kind == "family":
        if parsed.family is None:
            raise UsageError("'family' only applies to c2d2n / oddfam model specs")
        sub, rho = parsed.family
        if gens is not None and _parse_subgroup(model.group, gens) != sub:
            raise UsageError("--subgroup disagrees with the family subgroup")
        return clifford_code(model, sub, rho)
    if kind == "dicke":
        sub = _dicke_subgroup(parsed)
        return weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
    sub = _parse_subgroup(model.group, gens)
    if kind == "clifford":
        return clifford_code(model, sub, _load_rho(sub, path))
    build = weak_stabilizer_code if kind == "weak" else stabilizer_code
    return build(model, sub, _load_phase(sub, path))


def _load_code(parsed: ParsedModel, arg: str) -> CodeSpace:
    if os.path.exists(arg):
        with open(arg) as fh:
            data = json.load(fh)
        try:
            code = CodeSpace.from_json(data)
        except CodeError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"code file {arg} is malformed: {exc!r}") from None
        if code.ambient_dim != parsed.model.dim:
            raise UsageError(
                f"code lives in dimension {code.ambient_dim}, model in {parsed.model.dim}"
            )
        return code
    kind, sep, rest = arg.partition(":")
    fields = rest.split(":")
    if arg in ("family", "dicke"):
        fields = [None]
    elif not sep:
        raise UsageError(f"--code wants a file or construction, got {arg!r}")
    elif kind not in ("weak", "stab", "clifford"):
        raise UsageError(f"unknown code construction {arg!r}")
    elif kind == "clifford" and len(fields) != 2:
        raise UsageError("clifford:<gens>:<rhofile> needs a rep file")
    elif len(fields) > 2:
        raise UsageError(f"too many ':' fields in {arg!r}")
    code = _construct(parsed, kind, *fields)
    if code is None:
        raise UsageError(f"construction {arg!r} produced a zero code")
    return code


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
        "mul": group.mul.tolist(),
        "identity": group.identity,
        "label": group.label,
    }


def _model_json(model: ProjectiveErrorModel) -> dict:
    """The model with its cocycle written once, at the top level: "rep" is
    ProjectiveRep.to_json with no "cocycle" key, which from_json re-snaps."""
    rep = model.rep
    return {
        "label": model.label,
        "group": _group_json(model.group),
        "rep": {"order": rep.group.order, "dim": rep.dim, "matrices": complex_json(rep.matrices)},
        "cocycle": model.cocycle.to_json(),
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
    kind, path = args.kind, args.phase
    if kind == "clifford":
        path = args.rho
        if path == "family" or (path is None and args.subgroup is None):
            kind = "family"
        elif path is None:
            raise UsageError("code clifford needs --rho <file|family>")
        elif args.subgroup is None:
            raise UsageError("code clifford needs --subgroup with a rep file")
    elif args.subgroup is None:
        raise UsageError(f"code {kind} needs --subgroup")
    code = _construct(parsed, kind, args.subgroup, path)
    if code is None:
        sub = _parse_subgroup(parsed.model.group, args.subgroup)
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
    rows = [(int(x), model.group.name_of(x), kl_detectable(code, model.rep.matrix(x)))
            for x in detect]
    if args.json:
        out = [{"index": x, "name": name, "scalar": [c.real, c.imag]} for x, name, c in rows]
        print(json.dumps({"detectable": out, "count": len(out)}))
        return 0
    print(f"{len(rows)} detectable elements of {model.group.order}")
    for x, name, c in rows:
        print(f"  {x:>4}  {name:<12} scalar {_fmt_complex(c)}")
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
            data = json.load(fh)
        try:
            p = np.asarray(data, dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"distribution file {arg} must be a list of numbers: {exc}") from None
        if p.shape != (order,):
            raise UsageError(f"distribution file {arg} needs {order} entries, got {p.shape}")
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


def _example(spec: str, kind: str) -> tuple[ParsedModel, CodeSpace]:
    parsed = parse_model_spec(spec)
    return parsed, _construct(parsed, kind)


def _product_example() -> tuple[ParsedModel, CodeSpace]:
    parsed, code = _example("c2d2n:2", "family")
    model, code = product_code(parsed.model, code, parsed.model, code)
    return ParsedModel(model), code


# worked example -> n -> (model, code, claims in print order).  A claim
# "x=" or "x<" compares the measure x (see _measure) with its value.
_EXAMPLES = {
    "prop8.1": lambda n: (*_example(f"c2d2n:{n}", "family"), [
        ("dim=", 2), ("clifford=", True), ("weak_stabilizer=", False), ("stabilizer=", False),
        ("|L|=", 4 * n), ("|S|=", 1), ("|D|=", 4 * n + 1),
    ]),
    "prop8.2": lambda n: (*_example(f"oddfam:{n}", "family"), [
        ("dim=", n), ("ambient=", 2 * n), ("clifford=", True), ("weak_stabilizer=", False),
        ("|L|=", 2 * n * n), ("|S|=", 1), ("order_criterion_agrees=", True),
    ]),
    # |L| stays below the Clifford order (dim W / dim V)|G| = (n+1)! 2^n
    "prop9.1": lambda n: (*_example(f"permprod(genpauli:2,{n})", "dicke"), [
        ("dim=", n + 1), ("weak_stabilizer=", True), ("permutations_in_S=", True),
        ("clifford=", False), ("partitioning=", False), ("|L|<", math.factorial(n + 1) * 2**n),
    ]),
    "prod-example": lambda n: (*_product_example(), [
        ("dim=", 4), ("ambient=", 16), ("|L|=", 64), ("|S|=", 1), ("clifford=", True),
        ("weak_stabilizer=", False), ("stabilizer=", False),
    ]),
}


def _measure(name: str, parsed: ParsedModel, code: CodeSpace, report) -> tuple:
    """(value, witness or None) of one claimed quantity; other names are flags."""
    sizes = {"dim": code.dim, "ambient": parsed.model.dim, "|L|": len(report.logical),
             "|S|": len(report.stabilizer), "|D|": len(report.detectable)}
    if name in sizes:
        return sizes[name], None
    if name == "order_criterion_agrees":
        crit = report.central_type_criterion
        weak = report.flags["is_weak_stabilizer"]
        return crit is not None and crit["is_weak_stabilizer"] == weak, crit
    if name == "permutations_in_S":
        return set(_dicke_subgroup(parsed).members) <= set(report.stabilizer.members), None
    return report.flags[f"is_{name}"], report.witnesses.get(f"is_{name}")


def cmd_reproduce(args) -> int:
    if args.n is None and args.name != "prod-example":
        raise UsageError(f"reproduce {args.name} needs --n")
    parsed, code, claims = _EXAMPLES[args.name](args.n)
    report = classify(parsed.model, code)
    failed = 0
    for claim, want in claims:
        got, witness = _measure(claim[:-1], parsed, code, report)
        ok = got < want if claim.endswith("<") else got == want
        if isinstance(want, bool):
            text = f"{claim}{str(want).lower()}" + ("" if witness is None else f" ({witness})")
        else:
            text = f"{claim}{want} (got {got})"
        print(f"{'PASS' if ok else 'FAIL'}: {text}")
        failed += not ok
    return 1 if failed else 0


def cmd_search(args) -> int:
    parsed = parse_model_spec(args.spec)
    model = parsed.model
    if args.q3:
        reports = q3_probe(model, max_order=args.max_order, max_dim=args.max_dim)
        title = "q3 probe hits"
    else:
        found = enumerate_weak_stabilizer_codes(model, args.max_order, args.max_dim)
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
    rp.add_argument("name", choices=list(_EXAMPLES))
    rp.add_argument("--n", type=int)
    rp.set_defaults(fn=cmd_reproduce)

    sp = sub.add_parser("search", help="enumerate codes or run the q3 probe")
    sp.add_argument("spec")
    sp.add_argument("--q3", action="store_true", help="list the Clifford codes whose stabilizer S meets "
                    "|G| = |L||S| without being normal (central-type models only)")
    sp.add_argument("--max-order", type=int, help="group order cap (default: QECLAB_MAX_ORDER, or 64)")
    sp.add_argument("--max-dim", type=int, help="ambient dimension cap (default: QECLAB_MAX_DIM, or 16)")
    sp.set_defaults(fn=cmd_search)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
