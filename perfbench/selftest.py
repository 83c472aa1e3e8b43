"""Self-tests of the benchmark: inputs, checker, tracer and traffic shapes.

    python3 perfbench/selftest.py [--seconds 2]

Prints one PASS/FAIL line per check and exits 1 if any check fails. The
fault-injection checks run on shrunken copies of the workloads, so they take
seconds; the traffic-shape checks run each real workload traced, one round
untraced and one traced, which takes about half a minute on a 2-vCPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import sensconn.fully_dynamic_sensitivity as fds  # noqa: E402
import sensconn.graph_core as gcore  # noqa: E402
import sensconn.incremental_sensitivity as incs  # noqa: E402
from tracer import Tracer  # noqa: E402

FD_SMALL = replace(inputs.WORKLOADS["fd-churn"], n=400, n_off=10, per_d=4)
INC_SMALL = replace(inputs.WORKLOADS["inc-probe"], n=600, n_off=40, d_max=8, queries=30, per_d=4)

results: list[tuple[str, bool, str]] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def small_run(w, traced: bool = False):
    """One round (set-up plus one pass) of a workload; returns the tally."""
    inp = inputs.make_inputs(w, 3)
    tally = bench.Tally()
    tr = Tracer() if traced else None
    if tr is not None:
        tr.install()
    try:
        bench.measure(inp, inp.graph_text(), bench.expected_answers(inp), tally, 0, 1, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    return tally


def flip_every(nth: int, original, flipped: list):
    """``original`` with every nth answer negated; counts calls in flipped[0]."""

    def wrong(*args):
        answer = original(*args)
        flipped[0] += 1
        return (not answer) if flipped[0] % nth == 0 else answer

    return wrong


def check_inputs() -> None:
    for w in inputs.WORKLOADS.values():
        a, b = inputs.make_inputs(w, 7), inputs.make_inputs(w, 7)
        same = a.graph_text() == b.graph_text() and inputs.fingerprint(a) == inputs.fingerprint(b)
        other = inputs.fingerprint(inputs.make_inputs(w, 8)) != inputs.fingerprint(a)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print(inputs.fingerprint(inputs.make_inputs(inputs.WORKLOADS[sys.argv[2]], 7)))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        fresh = subprocess.run(
            [sys.executable, "-B", "-c", code, str(HERE), w.name], capture_output=True, text=True, env=env
        ).stdout.strip()
        check(f"inputs {w.name}: same seed gives byte-identical inputs", same and fresh == inputs.fingerprint(a))
        check(f"inputs {w.name}: another seed gives other inputs", other)
        g, p = gcore.load_graph(a.graph_text())
        check(f"inputs {w.name}: graph text parses to n={w.n}, m={len(a.edges)}", g.n == w.n and g.m == len(a.edges))


def check_reference() -> None:
    """Union-through-the-batch answers agree with a full re-flood of the
    final active set, on the first cycles of every workload."""
    for w in inputs.WORKLOADS.values():
        inp = inputs.make_inputs(w, 5)
        ref = reference.Reference(inp.workload.n, inp.edges, inp.off)
        bad = 0
        for c in inp.cycles[:12]:
            active = bytearray(ref.base_active)
            for v in c.deactivate:
                active[v] = 0
            for v in c.activate:
                active[v] = 1
            flood = reference.label(ref.adj, active)
            ans = ref.cycle(c.deactivate, c.activate)
            bad += sum(ans.connected(u, v) != (flood[u] == flood[v]) for u, v in c.queries)
        check(f"reference {w.name}: agrees with a full re-flood", bad == 0, f"{bad} disagreements")


def check_injections() -> None:
    for w in (FD_SMALL, INC_SMALL):
        for traced in (False, True):
            t = small_run(w, traced)
            check(f"clean {w.engine} run (traced={traced}) has no failures", t.failed == 0 and t.attempted > 0,
                  f"{t.failed}/{t.attempted}; {t.messages[:2]}")

    for w, module, name in ((FD_SMALL, fds, "fd_query"), (INC_SMALL, incs, "incremental_query")):
        flipped = [0]
        with mock.patch.object(module, name, flip_every(7, getattr(module, name), flipped)):
            t = small_run(w)
        check(f"injected wrong answers in {name} are all counted", t.failed == flipped[0] // 7 > 0,
              f"{t.failed} failed, {flipped[0] // 7} injected")

    original = fds.fd_update

    def fd_update(s, deactivate, activate):  # one more query of the base oracle per update
        a = original(s, deactivate, activate)
        oracle = s.on_handle.oracle
        v = min(set(range(oracle.graph.n)) - oracle.deleted)
        oracle.query(v, v)
        return a

    with mock.patch.object(fds, "fd_update", fd_update):
        t = small_run(FD_SMALL, traced=True)
    updates = len(inputs.make_inputs(FD_SMALL, 3).cycles)
    check("an injected extra oracle call breaks the counter check of every update", t.failed == updates,
          f"{t.failed} failed of {updates} updates")


def check_absent() -> None:
    original = gcore.induced_augmented
    del gcore.induced_augmented
    try:
        tr = Tracer()
        tr.install()
        tr.uninstall()
    finally:
        gcore.induced_augmented = original
    check("a deleted function is reported as absent", "graph_core.induced_augmented" in tr.absent, str(tr.absent))


def check_traffic(seconds: float) -> None:
    shapes = {
        "fd-churn": lambda m: m["connectivity_oracle.delete_batch_share"] >= 0.9 and m["trace.update_share"] >= 0.9,
        "inc-probe": lambda m: (
            m["connectivity_oracle.calls_per_cycle"] == 0
            and m["connectivity_oracle.family_size"] == 0
            and m["trace.query_share"] > max(m["trace.update_share"], m["trace.rollback_share"])
        ),
        "fd-wide-deep": lambda m: (
            m["trace.setup_over_cycles"] > 1
            and m["fully_dynamic_sensitivity.case_bridged"] > 0
            and m["fully_dynamic_sensitivity.query_calls_max"] > 1
        ),
    }
    stated = {
        "fd-churn": "delete_batch >= 90% of update time, update >= 90% of cycle time",
        "inc-probe": "no oracle calls, queries the largest share of cycle time",
        "fd-wide-deep": "one set-up takes longer than all cycles of a pass, bridged queries occur",
    }
    for name, shape in shapes.items():
        out = bench.run(name, 1, seconds, True)["result"]
        m = {k: v["value"] for k, v in out["metrics"].items()}
        keys = [
            k for k in m
            if k.startswith("trace.") or "share" in k
            or k.endswith(("family_size", "per_cycle", "case_bridged", "query_calls_max"))
        ]
        check(f"traffic {name}: {stated[name]}", shape(m) and out["failed"] == 0,
              ", ".join(f"{k}={m[k]:.3g}" for k in keys) + f", failed={out['failed']}")


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    check("BENCHMARK.json end_to_end matches bench.END_TO_END", listed == list(bench.END_TO_END))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check("BENCHMARK.json per_layer matches bench.PER_LAYER", listed == list(bench.PER_LAYER))
    check("BENCHMARK.json workloads match inputs.WORKLOADS",
          [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0, help="budget of each traced traffic run")
    args = parser.parse_args()
    check_manifest()
    check_inputs()
    check_reference()
    check_absent()
    check_injections()
    check_traffic(args.seconds)
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
