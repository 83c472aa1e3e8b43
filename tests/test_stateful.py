"""Stateful test of the fully dynamic engine: random sequences of updates,
queries, rollbacks and failed updates, checked against tests/reference.py
for every registered oracle factory.

The oracles of one structure share state across calls (augmented rebuild
oracles read their base's labeling), so the sequence matters as much as any
single batch does.
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
from sensconn.connectivity_oracle import oracle_class, oracle_names, register_oracle
from sensconn.errors import QueryEndpointError
from sensconn.fully_dynamic_sensitivity import build_fully_dynamic, fd_query, fd_rollback, fd_update

from reference import brute_connected
from strategies import graphs_with_partition


class InjectedFault(RuntimeError):
    pass


def faulty_factory(factory):
    """Register a subclass of ``factory`` whose pushes raise when its
    countdown reaches zero; the countdown is off (None) until armed."""

    @register_oracle
    class Faulty(oracle_class(factory)):
        name = f"{factory}-faulty-test"
        countdown = None

        def _apply_delete(self, vertices):
            cls = type(self)
            if cls.countdown is not None:
                cls.countdown -= 1
                if cls.countdown == 0:
                    cls.countdown = None
                    raise InjectedFault("injected push failure")
            super()._apply_delete(vertices)

    return Faulty


def machine_for(factory_cls):
    class FullyDynamicMachine(RuleBasedStateMachine):
        @initialize(gp=graphs_with_partition(max_n=9))
        def build(self, gp):
            self.g, self.p = gp
            factory_cls.countdown = None
            self.s = build_fully_dynamic(self.g, self.p, factory_cls.name)
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
            assert len(self.session.touched) == 1 + k + k * (k - 1) // 2
            assert self.session.query_probes == 0
            self.active = (set(iter_bits(self.p.on_mask)) - set(down)) | set(up)

        @precondition(lambda self: self.session is None)
        @rule(data=st.data())
        def failed_update(self, data):
            down, up = self.batch(data)
            k = len(up)
            pushes = 1 + k + k * (k - 1) // 2
            factory_cls.countdown = data.draw(st.integers(1, pushes), label="failing push")
            with pytest.raises(InjectedFault):
                fd_update(self.s, down, up)
            assert factory_cls.countdown is None
            assert self.s.session is None

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
        def idle_means_fresh(self):
            if self.session is None:
                s = self.s
                oracles = [s.base, *s.single.values(), *s.pairs.values()]
                assert all(o.phase == "fresh" for o in oracles)

    return FullyDynamicMachine


@pytest.mark.parametrize("factory", oracle_names())
def test_update_query_rollback_sequences(factory, oracle_registry):
    machine = machine_for(faulty_factory(factory))
    run_state_machine_as_test(machine, settings=settings(max_examples=60, stateful_step_count=25))
