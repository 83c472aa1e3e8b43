"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of the sensconn
modules with wrappers, at every module attribute that holds them, so calls
between modules go through the wrappers too. Timed wrappers record one span
each (id, parent id, cycle id, name, start, end, self time) in memory;
counting wrappers only bump counters, because they sit on paths that cost well
under a microsecond (oracle queries, bit probes). ``uninstall`` restores the
originals. A name that is missing from the package is listed in ``absent``
instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

now = time.perf_counter_ns

# (module, attribute) of every timed layer boundary.
SPANS = (
    ("graph_core", "load_graph"),
    ("graph_core", "component_labels"),
    ("graph_core", "induced_augmented"),
    ("graph_core", "AugmentedView.__init__"),
    ("connectivity_oracle", "DecrementalOracle.__init__"),
    ("connectivity_oracle", "DecrementalOracle.delete_batch"),
    ("connectivity_oracle", "DecrementalOracle.reset"),
    ("fully_dynamic_sensitivity", "build_doubling"),
    ("fully_dynamic_sensitivity", "build_fully_dynamic"),
    ("fully_dynamic_sensitivity", "DoublingFamily.dispatch_update"),
    ("fully_dynamic_sensitivity", "fd_update"),
    ("fully_dynamic_sensitivity", "fd_query"),
    ("fully_dynamic_sensitivity", "fd_query_probed"),
    ("fully_dynamic_sensitivity", "fd_rollback"),
    ("incremental_sensitivity", "build_incremental"),
    ("incremental_sensitivity", "build_supergraph"),
    ("incremental_sensitivity", "incremental_update"),
    ("incremental_sensitivity", "incremental_query"),
    ("incremental_sensitivity", "incremental_query_probed"),
)
# Counted, not timed.
COUNTS = (
    ("connectivity_oracle", "DecrementalOracle.query"),
    ("incremental_sensitivity", "has_bit"),  # the activation engine's bit probe
)

SPAN_CAP = 100_000  # spans kept for the output file; aggregates cover all of them


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.cycle = -1
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        # (phase, name) -> [calls, inclusive ns, self ns]
        self.agg: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.count: dict[tuple[str, str], int] = defaultdict(int)  # (phase, name)
        self.pushed: set[int] = set()  # oracles given a deletion batch this cycle
        self.queried: set[int] = set()  # oracles queried this cycle
        self.first_answer = None  # first oracle answer since the last clear
        self._stack: list[list] = []
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, parent, name, now(), 0])
        self._next_id += 1

    def close(self) -> None:
        end = now()
        sid, parent, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        a = self.agg[(self.phase, name)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.cycle, name, start, end, dur - child))
        else:
            self.dropped += 1

    def calls(self, phase: str, name: str) -> int:
        return self.agg[(phase, name)][0] if (phase, name) in self.agg else 0

    def total_ns(self, phase: str, name: str, self_only: bool = False) -> int:
        if (phase, name) not in self.agg:
            return 0
        return self.agg[(phase, name)][2 if self_only else 1]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "DecrementalOracle.__init__": self._after_oracle_init,
            "DecrementalOracle.delete_batch": self._after_delete,
            "DecrementalOracle.query": self._after_oracle_query,
            "build_incremental": self._after_build_incremental,
            "incremental_update": self._after_incremental_update,
        }
        for targets, timed in ((SPANS, True), (COUNTS, False)):
            for mod_name, attr in targets:
                self._wrap(mod_name, attr, timed, hooks.get(attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, mod_name, attr, timed, hook) -> None:
        label = f"{mod_name}.{attr}"
        mod = sys.modules.get(f"sensconn.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = None if owner is None else vars(owner).get(meth)
        if original is None:
            self.absent.append(label)
            return
        wrapper = self._timed(original, label, hook) if timed else self._counted(original, label, hook)
        if cls_name or getattr(original, "__module__", None) != mod.__name__:
            # a method, or a helper imported from elsewhere: patch this use only
            self._set(owner, meth, original, wrapper)
        else:
            # rebind every module-level alias, so cross-module calls are seen
            for name, m in list(sys.modules.items()):
                if name == "sensconn" or name.startswith("sensconn."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, label, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, label, hook):
        tracer = self
        count = self.count

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count[(tracer.phase, label)] += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: read what a layer reports about its own work -----------------

    def _field(self, obj, attr, key) -> None:
        value = getattr(obj, attr, None)
        if value is None:
            if key not in self.absent:
                self.absent.append(key)
            return
        self.count[(self.phase, key)] += len(value) if isinstance(value, tuple) else value

    def _after_oracle_init(self, args, result) -> None:
        self._field(getattr(args[0], "costs", None), "space_s", "connectivity_oracle.OracleCosts.space_s")

    def _after_delete(self, args, result) -> None:
        self.pushed.add(id(args[0]))
        self._field(getattr(args[0], "costs", None), "t_u", "connectivity_oracle.OracleCosts.t_u")

    def _after_oracle_query(self, args, result) -> None:
        self.queried.add(id(args[0]))
        if self.first_answer is None:
            self.first_answer = result

    def _after_build_incremental(self, args, result) -> None:
        self._field(result, "build_edge_probes", "incremental_sensitivity.IncrementalIndex.build_edge_probes")
        self._field(result, "build_or_words", "incremental_sensitivity.IncrementalIndex.build_or_words")

    def _after_incremental_update(self, args, result) -> None:
        self._field(result, "edges", "incremental_sensitivity.SuperGraph.edges")

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            head = {"spans": len(self.spans), "dropped": self.dropped, "absent": self.absent}
            out.write(json.dumps(head) + "\n")
            for sid, parent, cycle, name, start, end, self_ns in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "cycle": cycle, "name": name,
                         "start_ns": start, "end_ns": end, "self_ns": self_ns}
                    )
                    + "\n"
                )
