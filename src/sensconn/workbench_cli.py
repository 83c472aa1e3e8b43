"""Command line workbench.

``sensconn run`` loads graph/update/query files and streams one answer per
query line, from the activation-only engine (``inc``), the fully dynamic
engine (``fd``) or a from-scratch labeling of the post-update active vertices
(``bf``); ``sensconn verify`` executes the equivalence suites; ``sensconn
bench`` tabulates, for each oracle factory, how the update and query
counters scale with batch size.

Exit codes: 0 ok, 1 internal error or an input above a size cap, 2 illegal
update for the chosen algorithm, 3 at least one illegal query endpoint
(marked "E" in the output).
"""

from __future__ import annotations

import argparse
import csv
import io
import random
import sys
import time
from dataclasses import dataclass, field
from functools import partial

from .bits import mask_of
from .connectivity_oracle import make_oracle, oracle_names
from .errors import ContractViolation, ParseError, QueryEndpointError, SensConnError
from .fully_dynamic_sensitivity import build_fully_dynamic, fd_query, fd_rollback, fd_update
from .graph_core import UpdateBatch, load_graph, parse_int, parse_query_text, parse_update_text
from .incremental_sensitivity import INDEX_BYTES_MAX, build_incremental, incremental_query, incremental_update
from . import verify as verify_lib

ALGORITHMS = ("inc", "fd", "bf")
# exhaustive verify enumerates 2^C(n,2) graphs x 2^n partitions: all 1,024
# graphs take about 1 min at n = 5, all 32,768 about 2 h at n = 6 (2-vCPU x86
# host)
EXHAUSTIVE_N_MAX = 6
# random verify checks every active pair of both engines and of the root
# oracle against one search per component: one trial at n = 400 takes up to
# about 0.25 s, at 800 up to 2 s and 80 MB (dense G(n, 0.6) trials, 2-vCPU
# x86 host)
RANDOM_N_MAX = 400


@dataclass
class RunReport:
    """Everything one run produced: counters, answers, phase timings.

    All keys except the wall_* timings are deterministic given the input
    files and flags.
    """

    algorithm: str
    oracle: str
    counters: dict[str, int] = field(default_factory=dict)
    results: list[str] = field(default_factory=list)
    wall_times: dict[str, float] = field(default_factory=dict)

    def to_kv(self) -> str:
        lines = [f"algorithm={self.algorithm}", f"oracle={self.oracle}"]
        lines.extend(f"{key}={value}" for key, value in self.counters.items())
        lines.append("results=" + "".join(self.results))
        lines.extend(f"wall_{name}_s={secs:.6f}" for name, secs in self.wall_times.items())
        return "\n".join(lines) + "\n"


def _run_queries(queries, answer, sg=None):
    """Map each query through ``answer``; illegal endpoints become "E". Also
    returns the most probes one query added to ``sg.query_probes``."""
    results = []
    most = 0
    for u, v in queries:
        before = sg.query_probes if sg else 0
        try:
            results.append("1" if answer(u, v) else "0")
        except QueryEndpointError:
            results.append("E")
        most = max(most, sg.query_probes - before if sg else 0)
    return results, most


def cmd_run(args) -> int:
    try:
        g, p = load_graph(_read(args.graph))
        down, up = parse_update_text(_read(args.update), g.n)
        queries = parse_query_text(_read(args.query))
        batch = UpdateBatch.for_partition(p, down, up)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"error: illegal update: {exc}", file=sys.stderr)
        return 2

    if args.algo == "inc" and batch.deactivate:
        print(
            f"error: the incremental algorithm cannot deactivate vertices "
            f"(got {sorted(batch.deactivate)})",
            file=sys.stderr,
        )
        return 2

    report = RunReport(algorithm=args.algo, oracle=args.oracle if args.algo == "fd" else "-")
    counters = report.counters
    counters.update(n=g.n, m=g.m, n_on=p.n_on, n_off=p.n_off,
                    deactivations=len(batch.deactivate), activations=len(batch.activate),
                    batch_size=batch.d, queries=len(queries))

    t0 = time.perf_counter()
    if args.algo == "inc":
        idx = build_incremental(g, p)
        t1 = time.perf_counter()
        sg = incremental_update(idx, batch.activate)
        t2 = time.perf_counter()
        report.results, most = _run_queries(queries, partial(incremental_query, idx, sg), sg)
        counters.update(
            preprocess_edge_probes=idx.build_edge_probes,
            preprocess_or_words=idx.build_or_words,
            update_pair_probes=sg.build_probes,
            query_probes_total=sg.query_probes,
            query_probes_max=most,
        )
    elif args.algo == "fd":
        s = build_fully_dynamic(g, p, args.oracle)
        t1 = time.perf_counter()
        sg = fd_update(s, batch.deactivate, batch.activate)
        t2 = time.perf_counter()
        report.results, most = _run_queries(queries, partial(fd_query, s, sg), sg)
        counters.update(
            preprocess_oracle_count=s.oracle_count,
            preprocess_probes=s.base.costs.t_p,
            update_delete_calls=len(sg.touched),
            update_pair_queries=sg.build_probes,
            query_calls_total=sg.query_probes,
            query_calls_max=most,
        )
    else:  # bf
        active_after = (p.on_mask & ~mask_of(batch.deactivate)) | mask_of(batch.activate)
        oracle = make_oracle("rebuild", g, active_after)  # labels once; a query reads two labels
        t1 = t2 = time.perf_counter()
        report.results, _ = _run_queries(queries, oracle.query)
    t3 = time.perf_counter()
    if args.algo == "fd":  # inc and bf leave nothing to roll back: the batch's result is dropped
        fd_rollback(s, sg)
    t4 = time.perf_counter()

    errors = report.results.count("E")
    counters["errors"] = errors
    report.wall_times = {"preprocess": t1 - t0, "update": t2 - t1, "query": t3 - t2, "rollback": t4 - t3}

    for line in report.results:
        print(line)
    print(
        f"[{args.algo}] {len(queries)} queries, {errors} illegal endpoint(s); "
        + " ".join(f"{k}={v}" for k, v in counters.items()),
        file=sys.stderr,
    )
    if args.report:
        _write(args.report, report.to_kv())
    return 3 if errors else 0


def cmd_verify(args) -> int:
    # random mode draws graphs of 2..n_max vertices; one vertex has no pair to check
    _require_at_least((("--trials", args.trials, 1), ("--n-max", args.n_max, 2),
                       ("--batch-max", args.batch_max, 0)))
    n_cap = EXHAUSTIVE_N_MAX if args.mode == "exhaustive" else RANDOM_N_MAX
    if args.n_max > n_cap:
        raise ContractViolation(f"--n-max must be at most {n_cap} in {args.mode} mode, got {args.n_max}")
    for prob in args.edge_prob or ():
        if not 0 <= prob <= 1:  # also false for nan
            raise ContractViolation(f"--edge-prob must lie in [0, 1], got {prob}")
    cfg = verify_lib.VerifyConfig(
        n_max=args.n_max,
        trials=args.trials,
        edge_probs=tuple(args.edge_prob) if args.edge_prob else (0.1, 0.3, 0.6),
        batch_max=args.batch_max,
        seed=args.seed,
        oracle=args.oracle,
    )
    if args.mode == "exhaustive":
        suites = verify_lib.exhaustive_suites(n=cfg.n_max, batch_max=cfg.batch_max, oracle=cfg.oracle)
    else:
        suites = verify_lib.random_suites(cfg)
    failed = False
    for suite in suites.values():
        status = "PASS" if suite.ok else "FAIL"
        print(f"{suite.name}: {status} checked={suite.checked} mismatches={suite.mismatches}")
        if not suite.ok:
            failed = True
            print(f"first counterexample:\n{suite.first_counterexample}")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    _require_at_least((("--repeats", args.repeats, 0), ("--queries", args.queries, 0)))
    g, p = load_graph(_read(args.graph))
    # each distinct size and factory once, in first-seen order: every factory
    # draws the same batches, so its answers can be compared by (size, repeat)
    sizes = dict.fromkeys(parse_int(tok, "batch size") for tok in args.batch_sizes.split(",") if tok)
    factories = dict.fromkeys(args.oracle or oracle_names())
    for size in sizes:
        if size > p.n_off:
            print(f"warning: batch size {size} exceeds the {p.n_off} inactive vertices, skipped",
                  file=sys.stderr)
    sizes = [size for size in sizes if size <= p.n_off]
    on = [v for v in range(g.n) if p.is_on(v)]
    rows = []
    answers_by_key: dict[tuple, list[bool]] = {}
    for factory in factories:
        s = build_fully_dynamic(g, p, factory)
        rng = random.Random(args.seed)
        for size in sizes:
            pushes = []
            pair_counts = []
            call_means = []
            call_max = 0
            for rep in range(args.repeats):
                batch = rng.sample(p.off_vertices, size)
                alive = sorted(on + batch)  # active after the batch, ascending
                if args.queries and not alive:
                    print(f"error: no vertex is active after a batch of size {size}, nothing to query",
                          file=sys.stderr)
                    return 1
                sg = fd_update(s, (), batch)
                pushes.append(len(sg.touched))
                pair_counts.append(sg.build_probes)
                picks = [(rng.choice(alive), rng.choice(alive)) for _ in range(args.queries)]
                answers, most = _run_queries(picks, partial(fd_query, s, sg), sg)
                if most > 1 + 2 * size:
                    print(f"error: query used {most} oracle calls, bound {1 + 2 * size}", file=sys.stderr)
                    return 1
                key = (size, rep)
                if key in answers_by_key and answers_by_key[key] != answers:
                    print(f"error: oracle factories disagree on batch size {size} repeat {rep}",
                          file=sys.stderr)
                    return 1
                answers_by_key[key] = answers
                call_means.append(sg.query_probes / len(picks) if picks else 0.0)
                call_max = max(call_max, most)
                fd_rollback(s, sg)
            formula_pairs = size * (size - 1) // 2
            formula_deletes = 1 + size + formula_pairs
            if any(x != formula_deletes for x in pushes) or any(
                x != formula_pairs for x in pair_counts
            ):
                print("error: update counters deviate from the batch-size formulas", file=sys.stderr)
                return 1
            rows.append({
                "oracle": factory,
                "batch_size": size,
                "repeats": args.repeats,
                "update_delete_calls": max(pushes, default=0),
                "update_pair_queries": max(pair_counts, default=0),
                "formula_delete_calls": formula_deletes,
                "formula_pair_queries": formula_pairs,
                "query_calls_mean": round(sum(call_means) / len(call_means), 3) if call_means else 0,
                "query_calls_max": call_max,
                "query_calls_bound": 1 + 2 * size,
            })
    if not rows:
        print("nothing to benchmark", file=sys.stderr)
        return 1
    headers = list(rows[0].keys())
    widths = [max(len(h), max(len(str(r[h])) for r in rows)) for h in headers]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(str(r[h]).ljust(w) for h, w in zip(headers, widths)))
    if args.out:
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
        _write(args.out, table.getvalue())
    return 0


def _require_at_least(checks) -> None:
    """Raise ContractViolation for the first (flag, value, least) whose value
    is below least."""
    for flag, value, least in checks:
        if value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise ContractViolation(f"{flag} must be {bound}, got {value}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SensConnError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SensConnError(f"cannot write {path}: {exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sensconn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="answer a query file after one update batch")
    run.add_argument("--graph", required=True, help="graph file")
    run.add_argument("--update", required=True, help="update file (+v / -v lines)")
    run.add_argument("--query", required=True, help="query file (u v lines)")
    run.add_argument("--algo", choices=ALGORITHMS, default="fd",
                     help="inc refuses an activation index estimated above "
                          f"{INDEX_BYTES_MAX >> 20} MiB (INDEX_BYTES_MAX) with exit code 1")
    run.add_argument("--oracle", choices=oracle_names(), default="rebuild")
    run.add_argument("--report", help="write a key=value report to this file")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run the equivalence suites")
    ver.add_argument("--mode", choices=("exhaustive", "random"), default="random")
    ver.add_argument("--n-max", type=int, default=None,
                     help=f"exhaustive: exact vertex count (default 5, at most {EXHAUSTIVE_N_MAX}; "
                          "about 1 min at 5, about 2 h at 6); "
                          f"random: largest n (default 40, at most {RANDOM_N_MAX})")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--edge-prob", type=float, action="append",
                     help="random: edge probability in [0, 1], repeatable (default 0.1, 0.3, 0.6)")
    ver.add_argument("--batch-max", type=int, default=None,
                     help="largest batch (default 3 exhaustive, 6 random)")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--oracle", choices=oracle_names(), default="rebuild")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="tabulate counter scaling against batch size")
    bench.add_argument("--graph", required=True)
    bench.add_argument("--batch-sizes", default="2,4,8", help="comma separated activation batch sizes")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--queries", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--oracle", choices=oracle_names(), action="append",
                       help="repeatable; default runs every factory")
    bench.add_argument("--out", help="also write the table as CSV")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        if args.n_max is None:
            args.n_max = 5 if args.mode == "exhaustive" else 40
        if args.batch_max is None:
            args.batch_max = 3 if args.mode == "exhaustive" else 6
    try:
        return args.func(args)
    except SensConnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
