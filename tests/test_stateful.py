"""Stateful test of the fully dynamic engine: random sequences of updates,
queries, rollbacks and failed updates, checked against tests/reference.py
for every registered oracle factory.

The members of a batch read their base's component ids after that batch,
and the base's pushes and resets follow one another across calls, so the
sequence matters as much as any single batch does.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from sensconn.bits import iter_bits
from sensconn.connectivity_oracle import DecrementalOracle, oracle_names
from sensconn.errors import QueryEndpointError
from sensconn.fully_dynamic_sensitivity import build_fully_dynamic, fd_query, fd_rollback, fd_update
from sensconn.graph_core import active_flags, dfs_forest

from reference import brute_connected
from strategies import graphs_with_partition


class InjectedFault(RuntimeError):
    pass


class Countdown:
    """Arms a push to raise when the countdown reaches zero; the countdown
    is off (None) until armed. ``push`` stands in for
    ``DecrementalOracle.delete_batch``, so it reaches every push of an
    update: the base's and each member's."""

    def __init__(self):
        self.left = None
        original = DecrementalOracle.delete_batch

        def push(oracle, vertices):
            if self.left is not None:
                self.left -= 1
                if self.left == 0:
                    self.left = None
                    raise InjectedFault("injected push failure")
            original(oracle, vertices)

        self.push = push


def machine_for(factory, countdown):
    class FullyDynamicMachine(RuleBasedStateMachine):
        @initialize(gp=graphs_with_partition(max_n=9))
        def build(self, gp):
            self.g, self.p = gp
            countdown.left = None
            self.s = build_fully_dynamic(self.g, self.p, factory)
            self.fresh_labels = dfs_forest(self.g, active_flags(self.g.n, self.p.on_mask)).labels
            self.session = None
            self.active = set()

        def batch(self, data):
            on = sorted(iter_bits(self.p.on_mask))
            down = data.draw(st.lists(st.sampled_from(on), unique=True, max_size=3)) if on else []
            off = list(self.p.off_vertices)
            up = data.draw(st.lists(st.sampled_from(off), unique=True, max_size=3)) if off else []
            return down, up

        @precondition(lambda self: self.session is None)
        @rule(data=st.data())
        def update(self, data):
            down, up = self.batch(data)
            self.session = fd_update(self.s, down, up)
            k = len(up)
            assert self.session.pushes == 1 + k + k * (k - 1) // 2
            assert self.session.query_probes == 0
            self.active = (set(iter_bits(self.p.on_mask)) - set(down)) | set(up)

        @precondition(lambda self: self.session is None)
        @rule(data=st.data())
        def failed_update(self, data):
            down, up = self.batch(data)
            k = len(up)
            pushes = 1 + k + k * (k - 1) // 2
            countdown.left = data.draw(st.integers(1, pushes), label="failing push")
            with pytest.raises(InjectedFault):
                fd_update(self.s, down, up)
            assert countdown.left is None
            assert self.s.session is None
            assert self.s.base.phase == "fresh" and self.s.base.deleted == frozenset()

        @precondition(lambda self: self.session is not None)
        @rule(data=st.data())
        def query(self, data):
            u = data.draw(st.integers(-2, self.g.n + 1), label="u")
            v = data.draw(st.integers(-2, self.g.n + 1), label="v")
            sg = self.session
            before = sg.query_probes
            if u in self.active and v in self.active:
                got = fd_query(self.s, self.session, u, v)
                assert got == brute_connected(self.g, self.active, u, v)
                assert sg.query_probes - before <= 1 + 2 * len(sg.comp)
            else:
                with pytest.raises(QueryEndpointError):
                    fd_query(self.s, self.session, u, v)
                assert sg.query_probes == before

        @precondition(lambda self: self.session is not None)
        @rule()
        def rollback(self):
            fd_rollback(self.s, self.session)
            self.session = None

        @invariant()
        def fresh_labels_are_never_written(self):
            # pushes, resets and failed updates leave the root's forest as built
            assert self.s.base._forest.labels == self.fresh_labels

        @invariant()
        def idle_means_fresh(self):
            if self.session is None:
                assert self.s.base.phase == "fresh" and self.s.session is None

    return FullyDynamicMachine


@pytest.mark.parametrize("factory", oracle_names())
def test_update_query_rollback_sequences(factory, monkeypatch):
    countdown = Countdown()
    monkeypatch.setattr(DecrementalOracle, "delete_batch", countdown.push)
    machine = machine_for(factory, countdown)
    run_state_machine_as_test(machine, settings=settings(max_examples=60, stateful_step_count=25))
