"""Layer spans and counters recorded from outside qeclab.

A layer is one qeclab module.  `Tracer.install` replaces each traced
function by a timing wrapper in every qeclab module namespace that binds it
(``from .cocycles import snap_phase`` in projreps binds a second reference
that must be replaced as well) and each traced method on its class;
`Tracer.uninstall` puts the originals back.  Spans nest, so a layer's self
time is the duration of its spans minus the time of the spans they called.

Not traced, so their time counts to the layer that calls them: one-line
helpers called in the innermost loops (`_linalg.frobenius`,
`_linalg.projector`, `CodeSpace.projector`, `FiniteGroup.conjugate`,
`Subgroup.position`, `Phase` arithmetic, `PhaseFunction.value_at`).  The
dedup loops of the search layer call the first two, so dedup shows up in
`search.self_s`.  `channels.kl_detectable` is counted without being timed:
its only caller, `kl_correctable`, is in the same layer, so its time lands
there either way and the 4k calls per channel test add no timer cost.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("groups", "cocycles", "projreps", "models", "codes", "search", "channels", "linalg")

MODULES = {
    "groups": "qeclab.groups",
    "cocycles": "qeclab.cocycles",
    "projreps": "qeclab.projreps",
    "models": "qeclab.models",
    "codes": "qeclab.codes",
    "search": "qeclab.search",
    "channels": "qeclab.channels",
    "linalg": "qeclab._linalg",
}

# Module functions by name, methods as "Class.method".
TRACED = {
    "groups": (
        "cyclic", "dihedral", "direct_product", "inversion_semidirect",
        "permutation_semidirect", "symmetric", "group_from_mul_table",
        "FiniteGroup.__post_init__", "FiniteGroup.is_abelian", "FiniteGroup.exponent",
        "FiniteGroup.subgroup", "FiniteGroup.trivial_subgroup", "FiniteGroup.full_subgroup",
        "FiniteGroup.subgroup_generated", "FiniteGroup.center", "FiniteGroup.all_subgroups",
        "FiniteGroup.quotient", "FiniteGroup.coset_representatives",
        "Subgroup.__init__", "Subgroup.is_normal", "Subgroup.is_abelian", "Subgroup.as_group",
    ),
    "cocycles": (
        "snap_phase", "coboundary", "find_trivializing_phase", "_greedy_generators",
        "Cocycle.__init__", "Cocycle.from_phases", "Cocycle.to_complex_table",
        "Cocycle.find_violation", "Cocycle.multiply", "Cocycle.conjugate", "Cocycle.restrict",
        "PhaseFunction.__init__", "PhaseFunction.from_complex", "PhaseFunction.multiply",
        "PhaseFunction.conjugate",
    ),
    "projreps": (
        "make_rep", "rep_from_phase_function", "character", "inner_product", "is_irreducible",
        "is_projectively_faithful", "hom_space", "restrict", "tensor", "induce",
        "conjugate_rep", "inertia_group", "frobenius_dims", "mackey_character_defect",
        "ProjectiveRep.__init__", "ProjectiveRep._validate", "ProjectiveRep.character",
        "ProjectiveRep.restrict", "ProjectiveRep.twist",
    ),
    "models": (
        "gen_pauli_model", "dihedral_xp_model", "product_model", "perm_product_model",
        "family_c2_x_d2n", "family_odd", "pem_from_em", "em_from_pem", "d4_character_table",
        "ErrorModel.__post_init__", "ProjectiveErrorModel.__post_init__",
    ),
    "codes": (
        "weak_stabilizer_code", "stabilizer_code", "existence_phase", "code_dimension_formula",
        "clifford_code", "logical_group", "stabilizer_group", "detectable_set",
        "is_partitioning", "classify", "stabilizer_to_clifford", "product_code",
        "CodeSpace.__post_init__", "CodeSpace.from_vectors", "CodeSpace.equals",
    ),
    "search": ("enumerate_weak_stabilizer_codes", "q3_probe"),
    "channels": (
        "channel_from_model", "kl_correctable", "build_recovery", "verify_recovery",
        "KrausChannel.__post_init__", "KrausChannel.apply",
    ),
    "linalg": ("nullspace", "orthonormal_columns"),
}

COUNTED_ONLY = {"channels": ("kl_detectable",)}

# Self time of one layer accumulated while any of the named spans is open.
TAGS = {
    "groups.build_s": (
        "groups",
        ("cyclic", "dihedral", "direct_product", "inversion_semidirect",
         "permutation_semidirect", "symmetric", "group_from_mul_table",
         "FiniteGroup.__post_init__"),
    ),
    "projreps.hom_space_s": ("projreps", ("hom_space",)),
    "codes.classify_s": ("codes", ("classify",)),
}

SEARCH_NAMES = ("enumerate_weak_stabilizer_codes", "q3_probe")
BUILT_NAMES = ("weak_stabilizer_code", "clifford_code")


def _resolve(module, name):
    """(owner, attribute name, raw attribute) for a function or Class.method."""
    if "." in name:
        cls_name, attr = name.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, name, getattr(module, name)


def _unwrap_descriptor(raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, None


class Tracer:
    """Per-layer self time and per-function call counts, held in memory."""

    def __init__(self):
        self.ids: dict[str, int] = {}                 # "layer:name" -> target id
        self.tag_names = list(TAGS)
        self._patches: list[tuple[object, str, object]] = []
        self.installed = False
        # state the wrappers mutate in place
        self.layer_s = [0.0] * len(LAYERS)
        self.calls: list[int] = []
        self.tag_s = [0.0] * len(self.tag_names)
        self._tag_depth = [0] * len(self.tag_names)
        self._active_tags: list[int] = []
        self._child = [0.0]     # child-time accumulator per open span; [0] is the caller
        self._who = [-1]        # target id per open span
        self.solve_hits = 0
        self.correctable = 0
        self.recovery_failures = 0
        self.recovery_dev_max = 0.0
        self.spaces_built = 0
        self.spaces_kept = 0

    def reset(self) -> None:
        for lst in (self.layer_s, self.tag_s):
            for i in range(len(lst)):
                lst[i] = 0.0
        for i in range(len(self.calls)):
            self.calls[i] = 0
        self.solve_hits = self.correctable = self.recovery_failures = 0
        self.spaces_built = self.spaces_kept = 0
        self.recovery_dev_max = 0.0

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside qeclab, inside the open span, out of its self time."""
        self._child[-1] += seconds

    def count(self, layer: str, name: str) -> int:
        return self.calls[self.ids[f"{layer}:{name}"]]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in every qeclab namespace that binds it."""
        import qeclab  # noqa: F401  (imports every layer module)

        if self.installed:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "qeclab" or n.startswith("qeclab.")) and m is not None]
        search_ids: set[int] = set()
        for layer, names in TRACED.items():
            for name in names:
                self._wrap(layer, name, namespaces, timed=True, search_ids=search_ids)
        for layer, names in COUNTED_ONLY.items():
            for name in names:
                self._wrap(layer, name, namespaces, timed=False, search_ids=search_ids)
        self.installed = True
        self._check_complete(namespaces)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.installed = False

    def _wrap(self, layer, name, namespaces, timed, search_ids) -> None:
        module = sys.modules[MODULES[layer]]
        owner, attr, raw = _resolve(module, name)
        fn, kind = _unwrap_descriptor(raw)
        tid = len(self.calls)
        self.ids[f"{layer}:{name}"] = tid
        self.calls.append(0)
        if name in SEARCH_NAMES:
            search_ids.add(tid)
        wrapper = self._timed(fn, tid, layer, name, search_ids) if timed else self._counted(fn, tid)
        new = kind(wrapper) if kind is not None else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)
        if "." not in name:
            for ns in namespaces:
                for alias, value in list(ns.__dict__.items()):
                    if value is fn:
                        self._patches.append((ns, alias, fn))
                        setattr(ns, alias, new)

    def _check_complete(self, namespaces) -> None:
        originals = {id(raw) for _, _, raw in self._patches}
        for ns in namespaces:
            for attr, value in ns.__dict__.items():
                if id(value) in originals:
                    raise RuntimeError(f"{ns.__name__}.{attr} still binds an unwrapped function")

    def _counted(self, fn, tid):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[tid] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, tid, layer, name, search_ids):
        clock = time.perf_counter
        calls, layer_s, tag_s = self.calls, self.layer_s, self.tag_s
        child, who = self._child, self._who
        tag_depth, active = self._tag_depth, self._active_tags
        li = LAYERS.index(layer)
        tag_layer = [LAYERS.index(TAGS[t][0]) for t in self.tag_names]
        opens = [i for i, t in enumerate(self.tag_names) if name in TAGS[t][1] and TAGS[t][0] == layer]
        on_enter, on_fail, on_return = self._hooks(name, search_ids)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[tid] += 1
            if on_enter is not None:
                on_enter(who[-1])
            for t in opens:
                if tag_depth[t] == 0:
                    active.append(t)
                tag_depth[t] += 1
            who.append(tid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_fail is not None:
                    on_fail()
                raise
            finally:
                dur = clock() - t0
                own = dur - child.pop()
                who.pop()
                child[-1] += dur
                layer_s[li] += own
                for t in active:
                    if tag_layer[t] == li:
                        tag_s[t] += own
                for t in opens:
                    tag_depth[t] -= 1
                    if tag_depth[t] == 0:
                        active.remove(t)
            if on_return is not None:
                on_return(result)
            return result

        return timed

    def _hooks(self, name, search_ids):
        """(on_enter, on_fail, on_return) for the few functions whose outcome is a metric."""
        tracer = self

        def solved(result):
            tracer.solve_hits += result is not None

        def tested(result):
            tracer.correctable += bool(result)

        def recovery_failed():
            tracer.recovery_failures += 1

        def verified(result):
            tracer.recovery_dev_max = max(tracer.recovery_dev_max, float(result))

        def built(parent):
            tracer.spaces_built += parent in search_ids

        def searched(result):
            # q3_probe is always called with return_candidates=True here
            tracer.spaces_kept += len(result[1] if isinstance(result, tuple) else result)

        if name == "find_trivializing_phase":
            return None, None, solved
        if name == "kl_correctable":
            return None, None, tested
        if name == "build_recovery":
            return None, recovery_failed, None
        if name == "verify_recovery":
            return None, None, verified
        if name in BUILT_NAMES:
            return built, None, None
        if name in SEARCH_NAMES:
            return None, None, searched
        return None, None, None

    # -- metrics -------------------------------------------------------------

    def metrics(self, window_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        c = self.count
        s = dict(zip(LAYERS, self.layer_s))
        tag = dict(zip(self.tag_names, self.tag_s))
        solves = c("cocycles", "find_trivializing_phase")
        kl_tests = c("channels", "kl_correctable")

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "groups.self_s": s["groups"],
            "groups.build_s": tag["groups.build_s"],
            "groups.closures": c("groups", "FiniteGroup.subgroup_generated"),
            "groups.subgroup_checks": c("groups", "Subgroup.__init__"),
            "groups.lattices": c("groups", "FiniteGroup.all_subgroups"),
            "cocycles.self_s": s["cocycles"],
            "cocycles.snaps": c("cocycles", "snap_phase"),
            "cocycles.solves": solves,
            "cocycles.solve_hit_ratio": ratio(self.solve_hits, solves),
            "projreps.self_s": s["projreps"],
            "projreps.make_reps": c("projreps", "make_rep"),
            "projreps.hom_spaces": c("projreps", "hom_space"),
            "projreps.hom_space_s": tag["projreps.hom_space_s"],
            "models.self_s": s["models"],
            "codes.self_s": s["codes"],
            "codes.classifies": c("codes", "classify"),
            "codes.classify_s": tag["codes.classify_s"],
            "codes.eigenspaces": c("codes", "weak_stabilizer_code"),
            "search.self_s": s["search"],
            "search.dedup_keep_ratio": ratio(self.spaces_kept, self.spaces_built),
            "channels.self_s": s["channels"],
            "channels.kl_tests": kl_tests,
            "channels.kl_pairs": c("channels", "kl_detectable"),
            "channels.correctable_ratio": ratio(self.correctable, kl_tests),
            "channels.recoveries": c("channels", "build_recovery"),
            "channels.recovery_failures": self.recovery_failures,
            "channels.recovery_dev_max": self.recovery_dev_max,
            "linalg.self_s": s["linalg"],
            "linalg.svds": c("linalg", "nullspace") + c("linalg", "orthonormal_columns"),
            "trace.unattributed_s": window_s - sum(self.layer_s),
        }
