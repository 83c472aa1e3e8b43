"""One benchmark run of one workload.

The user model is one caller in a closed loop: it sets the structure up once,
then runs cycles of update(batch) -> queries -> rollback, each call waiting
for the previous one. A run makes ``ROUNDS`` rounds; a round sets the engine
up and then makes passes over the workload's pre-drawn cycles until its share
of the run's time is used. Set-up is reported as a median over the rounds.

Rollback restores the state a cycle started from, so every pass repeats the
same operations on the same state. Each update, query and cycle is timed
once per pass and reported at its fastest pass; percentiles are taken over
these per-operation times. Other work on a shared host slows the program for
seconds to minutes at a time (the median of a fixed call moved by up to 1.8x
between five-second windows, its fastest time by about a tenth), so the
fastest of many passes is the program's own cost, and the median of one pass
is not.

Every answer is compared with ``reference``. With tracing on, every update and
query is also checked against the exact counter formulas of the paper.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb

import sensconn.fully_dynamic_sensitivity as fds
import sensconn.graph_core as gcore
import sensconn.incremental_sensitivity as incs

from inputs import WORKLOADS, Inputs, make_inputs
from reference import BRIDGED, CASES, SAME, Reference
from tracer import Tracer

now = time.perf_counter_ns
ROUNDS = 3  # rounds per untraced run
# A round repeats a set-up that is cheap next to the round (on inc-probe), so
# that setup_s is a median of several; an fd set-up alone exceeds this share.
SETUP_SHARE = 0.05

# (name, unit, better) of every metric, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("update_p50_ms", "ms", "lower"),
    ("update_p90_ms", "ms", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("cycles_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("graph_core.load_graph_s", "s", "lower"),
    ("graph_core.component_labels_calls", "count", "lower"),
    ("graph_core.component_labels_ms", "ms", "lower"),
    ("graph_core.component_labels_setup_s", "s", "lower"),
    ("graph_core.augment_s", "s", "lower"),
    ("connectivity_oracle.family_size", "count", "lower"),
    ("connectivity_oracle.preprocess_s", "s", "lower"),
    ("connectivity_oracle.space_s_sum", "count", "lower"),
    ("connectivity_oracle.delete_batch_calls", "count", "lower"),
    ("connectivity_oracle.delete_batch_ms_per_update", "ms", "lower"),
    ("connectivity_oracle.delete_batch_share", "ratio", "lower"),
    ("connectivity_oracle.t_u_sum", "count", "lower"),
    ("connectivity_oracle.push_use_ratio", "ratio", "higher"),
    ("connectivity_oracle.query_calls_per_query", "count", "lower"),
    ("connectivity_oracle.reset_us_per_rollback", "us", "lower"),
    ("connectivity_oracle.calls_per_cycle", "count", "lower"),
    ("fully_dynamic_sensitivity.build_s", "s", "lower"),
    ("fully_dynamic_sensitivity.supergraph_ms", "ms", "lower"),
    ("fully_dynamic_sensitivity.update_self_ms", "ms", "lower"),
    ("fully_dynamic_sensitivity.query_us", "us", "lower"),
    ("fully_dynamic_sensitivity.query_calls_max", "count", "lower"),
    ("fully_dynamic_sensitivity.base_hit_ratio", "ratio", "higher"),
    ("fully_dynamic_sensitivity.rollback_us", "us", "lower"),
    ("fully_dynamic_sensitivity.case_same", "count", "higher"),
    ("fully_dynamic_sensitivity.case_bridged", "count", "higher"),
    ("fully_dynamic_sensitivity.case_mixed", "count", "higher"),
    ("fully_dynamic_sensitivity.case_batch", "count", "higher"),
    ("incremental_sensitivity.build_s", "s", "lower"),
    ("incremental_sensitivity.build_edge_probes", "count", "lower"),
    ("incremental_sensitivity.build_or_words", "count", "lower"),
    ("incremental_sensitivity.update_us", "us", "lower"),
    ("incremental_sensitivity.pair_probes", "count", "lower"),
    ("incremental_sensitivity.supergraph_edge_ratio", "ratio", "higher"),
    ("incremental_sensitivity.query_us", "us", "lower"),
    ("incremental_sensitivity.query_probes_mean", "count", "lower"),
    ("incremental_sensitivity.probe_budget_use", "ratio", "lower"),
    ("incremental_sensitivity.case_same", "count", "higher"),
    ("incremental_sensitivity.case_bridged", "count", "higher"),
    ("incremental_sensitivity.case_mixed", "count", "higher"),
    ("incremental_sensitivity.case_batch", "count", "higher"),
    ("trace.update_share", "ratio", "lower"),
    ("trace.query_share", "ratio", "lower"),
    ("trace.rollback_share", "ratio", "lower"),
    ("trace.setup_over_cycles", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

ORACLE = "connectivity_oracle.DecrementalOracle."
BIT_PROBE = "incremental_sensitivity.has_bit"


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one update, query or
    rollback. A failure is an unexpected exception, a wrong answer or, when
    traced, a broken counter formula."""

    attempted: int = 0
    failed: int = 0
    setup_errors: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)


@dataclass
class Measured:
    """Wall times of the program's calls, in nanoseconds.

    ``best`` maps "update", "query", "rollback" and "cycle" (update, queries
    and rollback of one cycle together) to one slot per operation of a pass,
    holding its fastest time so far (None until it completed once).
    ``total`` and ``calls`` sum over every call made.
    """

    best: dict[str, list]
    setup: list[int] = field(default_factory=list)
    peak_rss_kb: int = 0  # after the first pass, before repeated set-ups fragment the heap
    total: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    passes: int = 0

    @classmethod
    def for_inputs(cls, inp: Inputs) -> "Measured":
        cycles = len(inp.cycles)
        queries = sum(len(c.queries) for c in inp.cycles)
        sizes = {"update": cycles, "query": queries, "rollback": cycles, "cycle": cycles}
        return cls({kind: [None] * size for kind, size in sizes.items()})

    def keep(self, kind: str, i: int, ns: int) -> None:
        slot = self.best[kind]
        if slot[i] is None or ns < slot[i]:
            slot[i] = ns
        self.total[kind] += ns
        self.calls[kind] += 1

    def fastest(self, kind: str) -> list[int]:
        return [t for t in self.best[kind] if t is not None]

    @property
    def cycle_ns(self) -> int:
        """Time of all calls made, over every pass."""
        return self.total["update"] + self.total["query"] + self.total["rollback"]

    @property
    def cycles_per_s(self) -> float:
        """Cycles of one pass per second of their fastest times."""
        cycles = self.fastest("cycle")
        return len(cycles) / (sum(cycles) / 1e9) if cycles else 0.0


@dataclass
class Layered:
    """What the benchmark itself counts while a traced round runs."""

    pushed: int = 0
    pushed_used: int = 0
    calls_max: int = 0
    old_pairs: int = 0
    base_hits: int = 0
    budget_use: float = 0.0
    pair_slots: int = 0
    cases: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CASES, 0))


def expected_answers(inp: Inputs) -> list[list[tuple[bool, str]]]:
    """Reference answer and query case for every query of every cycle."""
    ref = Reference(inp.workload.n, inp.edges, inp.off)
    out = []
    for c in inp.cycles:
        ans = ref.cycle(c.deactivate, c.activate)
        out.append([(ans.connected(u, v), ans.case(u, v)) for u, v in c.queries])
    return out


def set_up(inp: Inputs, text: str, tally: Tally):
    """Parse the graph text and build the workload's engine; the timed unit
    behind ``setup_s``."""
    g, p = gcore.load_graph(text)
    if g.n != inp.workload.n or g.m != len(inp.edges) or tuple(p.off_vertices) != inp.off:
        tally.setup_errors += 1
        tally.messages.append("load_graph returned a different graph than the text describes")
    if inp.workload.engine == "fd":
        return fds.build_doubling(g, p, d_max=inp.workload.d_max)
    return incs.build_incremental(g, p)


def factory_name(state) -> str:
    """Oracle factory behind a doubling family, or "none" for the
    activation-only engine."""
    for s in getattr(state, "structures", {}).values():
        return s.factory
    return "none"


def run_pass(inp, state, expected, tally: Tally, got: Measured, tr: Tracer | None, lay: Layered) -> None:
    """One pass over the pre-drawn cycles. Only calls into the program are
    inside timed regions; checking and tracer bookkeeping are outside."""
    fd = inp.workload.engine == "fd"
    update = state.dispatch_update if fd else incs.incremental_update
    query = fds.fd_query if fd else incs.incremental_query
    rollback = fds.fd_rollback
    probe = ORACLE + "query" if fd else BIT_PROBE  # counted per query
    qi = 0  # index of the cycle's first query within the pass
    for ci, (c, exp) in enumerate(zip(inp.cycles, expected)):
        d, k = c.d, len(c.activate)
        first_query, qi = qi, qi + len(c.queries)
        if tr is not None:
            tr.cycle = ci
            tr.phase = "update"
            tr.pushed.clear()
            tr.queried.clear()
            pushes0 = tr.calls("update", ORACLE + "delete_batch")
            oq0 = tr.count[("update", ORACLE + "query")]
            bp0 = tr.count[("update", BIT_PROBE)]
            tr.open("bench.update")
        tally.attempted += 1
        t0 = now()
        try:
            if fd:
                cap, a = update(c.deactivate, c.activate)
                s = state.structures[cap]
            else:
                sg = update(state, c.activate)
        except Exception as exc:  # a broken update is counted, and the run goes on
            if tr is not None:
                tr.close()
            tally.fail(f"cycle {ci}: update raised {exc!r}")
            continue
        cycle_ns = now() - t0
        got.keep("update", ci, cycle_ns)
        complete = True
        if tr is not None:
            tr.close()
            if fd:
                pushes = tr.calls("update", ORACLE + "delete_batch") - pushes0
                pair_queries = tr.count[("update", ORACLE + "query")] - oq0
                if pushes != 1 + k + comb(k, 2) or pair_queries != comb(k, 2):
                    tally.fail(f"cycle {ci}: {pushes} pushes, {pair_queries} pair queries for |I|={k}")
            else:
                probes = tr.count[("update", BIT_PROBE)] - bp0
                lay.pair_slots += comb(d, 2)
                if probes != comb(d, 2):
                    tally.fail(f"cycle {ci}: {probes} pair probes for d={d}")
            tr.phase = "query"

        for j, ((u, v), (want, case)) in enumerate(zip(c.queries, exp)):
            if tr is not None:
                before = tr.count[("query", probe)]
                tr.first_answer = None
                tr.open("bench.query")
            tally.attempted += 1
            t0 = now()
            try:
                answer = query(s, a, u, v) if fd else query(state, sg, u, v)
            except Exception as exc:
                if tr is not None:
                    tr.close()
                tally.fail(f"cycle {ci}: query ({u}, {v}) raised {exc!r}")
                complete = False
                continue
            t = now() - t0
            got.keep("query", first_query + j, t)
            cycle_ns += t
            problem = None
            if answer != want:
                problem = f"cycle {ci}: query ({u}, {v}) answered {answer!r}, reference {want}"
            if tr is not None:
                tr.close()
                calls = tr.count[("query", probe)] - before
                lay.cases[case] += 1
                if fd:
                    lay.calls_max = max(lay.calls_max, calls)
                    if case in (SAME, BRIDGED):
                        lay.old_pairs += 1
                        lay.base_hits += tr.first_answer is True
                else:
                    lay.budget_use += calls / (2 * d)
                if calls > (1 + 2 * d if fd else 2 * d):
                    problem = problem or f"cycle {ci}: query made {calls} oracle calls or probes for d={d}"
            if problem:
                tally.fail(problem)

        if tr is not None:
            lay.pushed += len(tr.pushed)
            lay.pushed_used += len(tr.pushed & tr.queried)
            tr.phase = "rollback"
            tr.open("bench.rollback")
        tally.attempted += 1
        t0 = now()
        try:
            if fd:
                rollback(s, a)
            else:
                del sg  # the activation engine rolls back by dropping the result
        except Exception as exc:
            tally.fail(f"cycle {ci}: rollback raised {exc!r}")
            complete = False
        t = now() - t0
        if tr is not None:
            tr.close()
        got.keep("rollback", ci, t)
        if complete:
            got.keep("cycle", ci, cycle_ns + t)
    got.passes += 1


def measure(inp, text, expected, tally, budget_s, rounds, tr=None) -> tuple[Measured, Layered, str]:
    """``rounds`` rounds within ``budget_s`` seconds. Each round sets the
    engine up, again while its set-ups have used less than SETUP_SHARE of the
    round's time, then makes passes until the round's time is used. The first
    build of the run gets one pass before anything else, and the peak memory
    is read after it."""
    got, lay = Measured.for_inputs(inp), Layered()
    factory = "none"
    start = time.monotonic()
    for r in range(rounds):
        spent = 0
        state = None
        while state is None or spent < SETUP_SHARE * budget_s / rounds * 1e9:
            state = None  # free the last build before making the next
            gc.collect()
            if tr is not None:
                tr.phase = "setup"
                tr.cycle = -1
            t0 = now()
            state = set_up(inp, text, tally)
            got.setup.append(now() - t0)
            spent += got.setup[-1]
            if got.passes == 0:
                run_pass(inp, state, expected, tally, got, tr, lay)
                got.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        factory = factory_name(state)
        while time.monotonic() - start < budget_s * (r + 1) / rounds:
            run_pass(inp, state, expected, tally, got, tr, lay)
        del state
    return got, lay, factory


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(got: Measured) -> dict[str, float]:
    return {
        "setup_s": statistics.median(got.setup) / 1e9,
        "update_p50_ms": quantile(got.fastest("update"), 50) / 1e6,
        "update_p90_ms": quantile(got.fastest("update"), 90) / 1e6,
        "query_p50_us": quantile(got.fastest("query"), 50) / 1e3,
        "query_p99_us": quantile(got.fastest("query"), 99) / 1e3,
        "cycles_per_s": got.cycles_per_s,
        "peak_rss_mb": got.peak_rss_kb / 1024,
    }


def _div(a, b) -> float:
    return a / b if b else 0.0


def per_layer(w, tr: Tracer, traced: Measured, lay: Layered, plain: Measured) -> dict[str, float]:
    rounds = len(traced.setup)
    updates, queries, cycles = (traced.calls[kind] for kind in ("update", "query", "rollback"))
    fd = w.engine == "fd"
    cl = "graph_core.component_labels"
    dyn = "fully_dynamic_sensitivity."
    inc = "incremental_sensitivity."
    update_ns = traced.total["update"]

    def per(phase, name, n, scale, self_only=False):
        return _div(tr.total_ns(phase, name, self_only), n) / scale

    oracle_calls = sum(
        tr.calls(ph, ORACLE + m) for ph, m in (("update", "delete_batch"), ("rollback", "reset"))
    ) + sum(tr.count[(ph, ORACLE + "query")] for ph in ("update", "query"))
    m = {
        "graph_core.load_graph_s": per("setup", "graph_core.load_graph", rounds, 1e9),
        "graph_core.component_labels_calls": _div(tr.calls("update", cl), updates),
        "graph_core.component_labels_ms": per("update", cl, tr.calls("update", cl), 1e6, True),
        "graph_core.component_labels_setup_s": per("setup", cl, rounds, 1e9, True),
        "graph_core.augment_s": (
            per("setup", "graph_core.induced_augmented", rounds, 1e9)
            + per("setup", "graph_core.AugmentedView.__init__", rounds, 1e9)
        ),
        "connectivity_oracle.family_size": _div(tr.calls("setup", ORACLE + "__init__"), rounds),
        "connectivity_oracle.preprocess_s": per("setup", ORACLE + "__init__", rounds, 1e9),
        "connectivity_oracle.space_s_sum": _div(tr.count[("setup", "connectivity_oracle.OracleCosts.space_s")], rounds),
        "connectivity_oracle.delete_batch_calls": _div(tr.calls("update", ORACLE + "delete_batch"), updates),
        "connectivity_oracle.delete_batch_ms_per_update": per("update", ORACLE + "delete_batch", updates, 1e6),
        "connectivity_oracle.delete_batch_share": _div(tr.total_ns("update", ORACLE + "delete_batch"), update_ns),
        "connectivity_oracle.t_u_sum": _div(tr.count[("update", "connectivity_oracle.OracleCosts.t_u")], updates),
        "connectivity_oracle.push_use_ratio": _div(lay.pushed_used, lay.pushed),
        "connectivity_oracle.query_calls_per_query": _div(tr.count[("query", ORACLE + "query")], queries),
        "connectivity_oracle.reset_us_per_rollback": per("rollback", ORACLE + "reset", cycles, 1e3),
        "connectivity_oracle.calls_per_cycle": _div(oracle_calls, cycles),
        dyn + "build_s": per("setup", dyn + "build_doubling", rounds, 1e9),
        dyn + "supergraph_ms": per("update", inc + "build_supergraph", updates, 1e6) if fd else 0.0,
        dyn + "update_self_ms": (
            per("update", dyn + "fd_update", updates, 1e6, True)
            + per("update", dyn + "DoublingFamily.dispatch_update", updates, 1e6, True)
        ),
        dyn + "query_us": per("query", dyn + "fd_query", tr.calls("query", dyn + "fd_query"), 1e3),
        dyn + "query_calls_max": float(lay.calls_max),
        dyn + "base_hit_ratio": _div(lay.base_hits, lay.old_pairs),
        dyn + "rollback_us": per("rollback", dyn + "fd_rollback", cycles, 1e3),
        inc + "build_s": per("setup", inc + "build_incremental", rounds, 1e9),
        inc + "build_edge_probes": _div(tr.count[("setup", inc + "IncrementalIndex.build_edge_probes")], rounds),
        inc + "build_or_words": _div(tr.count[("setup", inc + "IncrementalIndex.build_or_words")], rounds),
        inc + "update_us": per("update", inc + "incremental_update", updates, 1e3) if not fd else 0.0,
        inc + "pair_probes": _div(tr.count[("update", BIT_PROBE)], updates),
        inc + "supergraph_edge_ratio": _div(tr.count[("update", inc + "SuperGraph.edges")], lay.pair_slots),
        inc + "query_us": per("query", inc + "incremental_query", tr.calls("query", inc + "incremental_query"), 1e3),
        inc + "query_probes_mean": _div(tr.count[("query", BIT_PROBE)], queries),
        inc + "probe_budget_use": _div(lay.budget_use, queries),
        "trace.update_share": _div(update_ns, traced.cycle_ns),
        "trace.query_share": _div(traced.total["query"], traced.cycle_ns),
        "trace.rollback_share": _div(traced.total["rollback"], traced.cycle_ns),
        "trace.setup_over_cycles": _div(statistics.median(plain.setup), sum(plain.fastest("cycle"))),
        "trace.overhead_ratio": _div(traced.cycles_per_s, plain.cycles_per_s),
    }
    engine = dyn if fd else inc
    other = inc if fd else dyn
    for case in CASES:
        m[engine + "case_" + case] = _div(lay.cases[case], traced.passes)
        m[other + "case_" + case] = 0.0
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, span_dir=None) -> dict:
    """Run one workload; returns the result object the command line prints,
    plus "info" lines for humans."""
    w = WORKLOADS[workload]
    inp = make_inputs(w, seed)
    text = inp.graph_text()
    expected = expected_answers(inp)
    tally = Tally()
    info = [f"workload={w.name} seed={seed} engine={w.engine} cycles_per_pass={len(inp.cycles)}"]
    if not trace:
        got, _, factory = measure(inp, text, expected, tally, seconds, ROUNDS)
        metrics = end_to_end(got)
        units = END_TO_END
    else:
        plain, _, factory = measure(inp, text, expected, tally, seconds / 2, 1)
        tr = Tracer()
        tr.install()
        try:
            got, lay, _ = measure(inp, text, expected, tally, seconds / 2, 1, tr)
        finally:
            tr.uninstall()
        metrics = per_layer(w, tr, got, lay, plain)
        units = PER_LAYER
        if tr.absent:
            info.append("absent (reported as 0): " + ", ".join(tr.absent))
        if span_dir is not None:
            path = span_dir / f"spans-{w.name}-{seed}.jsonl"
            tr.write(path)
            info.append(f"spans written to {path}")
    info.append(
        f"factory={factory} setups={len(got.setup)} passes={got.passes}"
        f" updates={got.calls['update']} queries={got.calls['query']}"
    )
    info.extend(tally.messages)
    return {
        "info": info,
        "result": {
            "correct": tally.failed == 0 and tally.setup_errors == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in units},
        },
    }
