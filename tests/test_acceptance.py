"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two heavyweight
corpora (exhaustive five-vertex and 1000 seeded random instances) are built
once per module and shared by the criteria that read them; the random one is
run once for every registered oracle factory, and its conformance and
rollback suites are the oracle criteria.
"""

import random
import time
from dataclasses import replace

import pytest

from sensconn.connectivity_oracle import oracle_names
from sensconn.fully_dynamic_sensitivity import (
    build_doubling,
    build_fully_dynamic,
    fd_query,
    fd_rollback,
    fd_update,
)
from sensconn.generators import gnp_graph
from sensconn.graph_core import StatePartition
from sensconn.incremental_sensitivity import build_incremental, incremental_update
from sensconn.verify import VerifyConfig, exhaustive_suites, random_suites

EXHAUSTIVE_BUDGET_S = 300.0
SCALE_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def exhaustive_report():
    t0 = time.perf_counter()
    suites = exhaustive_suites(n=5, batch_max=3, oracle="rebuild")
    return suites, time.perf_counter() - t0


RANDOM_CORPUS = VerifyConfig(trials=1000, n_max=40, edge_probs=(0.1, 0.3, 0.6), batch_max=6, seed=42)
# checks per suite, the same for every factory: the corpus is fixed by its seed
EXHAUSTIVE_COUNTS = {"fully_dynamic": 2_129_920, "incremental": 1_105_920,
                     "lemma_on_paths": 218_145, "counters": 5_188_608}
RANDOM_COUNTS = {"fully_dynamic": 94_537, "incremental": 115_991, "lemma_on_paths": 3_061,
                 "counters": 213_528, "rollback": RANDOM_CORPUS.trials}
# the conformance suite this corpus replaced checked 76,092 root-oracle queries
CONFORMANCE_FLOOR = 76_092


@pytest.fixture(scope="module")
def random_reports():
    """Each registered factory's report on the seeded corpus."""
    return {f: random_suites(replace(RANDOM_CORPUS, oracle=f)) for f in oracle_names()}


@pytest.fixture(scope="module")
def random_report(random_reports):
    return random_reports[RANDOM_CORPUS.oracle]


def _require_clean(suite):
    assert suite.mismatches == 0, (
        f"{suite.name}: {suite.mismatches} mismatch(es); first:\n{suite.first_counterexample}"
    )


def test_exhaustive_equivalence(exhaustive_report):
    suites, elapsed = exhaustive_report
    _require_clean(suites["fully_dynamic"])
    _require_clean(suites["incremental"])
    assert {name: suites[name].checked for name in EXHAUSTIVE_COUNTS} == EXHAUSTIVE_COUNTS
    assert elapsed < EXHAUSTIVE_BUDGET_S, f"exhaustive corpus took {elapsed:.0f}s"
    print(
        f"PASS exhaustive equivalence: fd={suites['fully_dynamic'].checked} "
        f"inc={suites['incremental'].checked} queries, 0 mismatches, {elapsed:.1f}s"
    )


def test_randomized_equivalence(random_reports):
    """The seeded corpus on each registered factory: every suite clean, with
    the pinned number of checks."""
    for factory, suites in random_reports.items():
        for suite in suites.values():
            _require_clean(suite)
        assert {name: suites[name].checked for name in RANDOM_COUNTS} == RANDOM_COUNTS, factory
        print(
            f"PASS randomized equivalence [{factory}]: fd={suites['fully_dynamic'].checked} "
            f"inc={suites['incremental'].checked} queries, 0 mismatches"
        )


def test_path_characterization_predicate(exhaustive_report, random_report):
    suites, _ = exhaustive_report
    _require_clean(suites["lemma_on_paths"])
    _require_clean(random_report["lemma_on_paths"])
    total = suites["lemma_on_paths"].checked + random_report["lemma_on_paths"].checked
    print(f"PASS path characterization predicate: {total} component pairs, 0 mismatches")


def test_exact_counter_bounds(exhaustive_report, random_report):
    suites, _ = exhaustive_report
    _require_clean(suites["counters"])
    _require_clean(random_report["counters"])

    # spot checks of the exact formulas on a fresh instance
    rng = random.Random(2)
    g = gnp_graph(20, 0.2, rng)
    p = StatePartition.from_off(20, range(8))
    idx = build_incremental(g, p)
    s = build_fully_dynamic(g, p)
    for size in (0, 1, 2, 5, 8):
        batch = list(range(size))
        sg = incremental_update(idx, batch)
        assert sg.build_probes == size * (size - 1) // 2
        a = fd_update(s, [10, 11], batch)
        assert len(a.touched) == 1 + size + size * (size - 1) // 2
        assert a.build_probes == size * (size - 1) // 2
        fd_rollback(s, a)
    total = suites["counters"].checked + random_report["counters"].checked
    print(f"PASS exact counter bounds: {total} assertions, 0 violations")


def test_oracle_conformance(random_reports):
    """Each factory's root oracle, queried directly on every trial of the
    corpus: fresh, with the batch pushed and after rollback."""
    for factory, suites in random_reports.items():
        suite = suites["conformance"]
        _require_clean(suite)
        assert suite.checked > CONFORMANCE_FLOOR, factory
        print(f"PASS oracle conformance [{factory}]: {suite.checked} queries over "
              f"{RANDOM_CORPUS.trials} instances, 0 mismatches")


def test_rollback_reproducibility(random_reports):
    """Each factory's structure, rolled back on every trial of the corpus,
    reproduces the first run on a rerun and on a fresh build."""
    for factory, suites in random_reports.items():
        suite = suites["rollback"]
        _require_clean(suite)
        assert suite.checked == RANDOM_CORPUS.trials, factory
        print(f"PASS rollback [{factory}]: {suite.checked} instances reproduce bridge-graph edges "
              "and answers on a rerun and on a fresh build")


def test_doubling_dispatch():
    g = gnp_graph(12, 0.3, random.Random(1))
    p = StatePartition.from_off(12, [0, 1, 2, 3])
    fam = build_doubling(g, p, 5)
    assert fam.capacities == (2, 4, 8)
    assert fam.level_for(3) == 4
    assert fam.level_for(1) == 2
    cap, session = fam.dispatch_update([4, 5], [0])
    assert cap == 4
    fd_rollback(fam.structure_for(3), session)
    print("PASS doubling dispatch: levels (2, 4, 8), size-3 batches route to level 4")


def test_desk_scale_build():
    rng = random.Random(500)
    g = gnp_graph(500, 0.02, rng)
    p = StatePartition.from_off(500, rng.sample(range(500), 30))
    t0 = time.perf_counter()
    s = build_fully_dynamic(g, p, "rebuild")
    elapsed = time.perf_counter() - t0
    assert s.oracle_count == 1 + 30 + 30 * 29 // 2 == 466
    assert elapsed < SCALE_BUDGET_S, f"build took {elapsed:.1f}s"
    # the structure is usable, not just constructible
    a = fd_update(s, [], list(p.off_vertices[:4]))
    u = next(v for v in range(500) if p.is_on(v))
    fd_query(s, a, u, p.off_vertices[0])
    assert a.query_probes <= 1 + 2 * 4
    fd_rollback(s, a)
    print(f"PASS desk-scale build: 466 oracles on G(500, 0.02) in {elapsed:.2f}s")
