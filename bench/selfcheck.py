"""Fast self-check of the benchmark harness on small models.

    python3 bench/selfcheck.py

For two seeds it confirms that relabeling keeps the reference values
(genpauli:4 has 35 codes, c2d2n:2 has 51 codes and 16/43 q3
hits/candidates, oddfam:3 has 123 codes) and the code invariants of the
identity labeling, and that tracing changes no result and leaves no wrapper
behind.  Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys
from collections import Counter

import run  # pins BLAS threads before numpy loads

run.import_qeclab()

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qeclab import codes, search  # noqa: E402

SEEDS = (1, 2)
CODE_COUNTS = {"genpauli:4": 35, "c2d2n:2": 51, "oddfam:3": 123}
Q3_COUNTS = {"c2d2n:2": (16, 43)}


def invariants(model) -> Counter:
    found = search.enumerate_weak_stabilizer_codes(model)
    return Counter(workloads.code_invariants(codes.classify(model, c)) for _, _, c in found)


def q3_counts(model) -> tuple[int, int]:
    hits, candidates = search.q3_probe(model, return_candidates=True)
    return len(hits), len(candidates)


def main() -> int:
    results = []

    def expect(what, got, want):
        results.append(got == want)
        print(f"{'ok  ' if got == want else 'FAIL'} {what}: {got}" + ("" if got == want else f", expected {want}"))

    for spec, count in CODE_COUNTS.items():
        base = invariants(workloads.build(spec))
        expect(f"{spec} codes", sum(base.values()), count)
        for seed in SEEDS:
            model = workloads.relabel(workloads.build(spec), np.random.default_rng(seed))
            expect(f"{spec} seed {seed} invariants equal the identity labeling's",
                   invariants(model) == base, True)
    for spec, counts in Q3_COUNTS.items():
        for seed in SEEDS:
            model = workloads.relabel(workloads.build(spec), np.random.default_rng(seed))
            expect(f"{spec} seed {seed} q3 hits/candidates", q3_counts(model), counts)

    model = workloads.relabel(workloads.build("c2d2n:2"), np.random.default_rng(SEEDS[0]))
    plain = (invariants(model), q3_counts(model))
    tracer = spans.Tracer()
    originals = {name: getattr(search, name) for name in spans.SEARCH_NAMES}
    tracer.install()
    try:
        traced = (invariants(model), q3_counts(model))
        metrics = tracer.metrics(0.0)
    finally:
        tracer.uninstall()
    expect("tracing keeps c2d2n:2 results", traced == plain, True)
    expect("traced search calls", tracer.count("search", "enumerate_weak_stabilizer_codes")
           + tracer.count("search", "q3_probe"), 2)
    expect("traced dedup keep ratio in (0, 1]", 0 < metrics["search.dedup_keep_ratio"] <= 1, True)
    expect("wrappers removed", all(getattr(search, n) is f for n, f in originals.items()), True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
