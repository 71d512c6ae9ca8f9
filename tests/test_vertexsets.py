"""The intersection kernel `vertexsets.meet` inside the folds that call it:
its antichain precondition, and the work of the minimal-cover fold; and
the size classes that spare antichain checks their equal-size tests."""

from __future__ import annotations

import functools
import itertools
import os

import pytest

import vnum.clutters as clutters
import vnum.monomials as monomials
import vnum.vertexsets as vertexsets
from vnum.catalog import CM36
from vnum.classify import full_report
from vnum.clutters import Clutter, Graph
from vnum.complexes import Field, SimplicialComplex
from vnum.formats import parse_edge_list
from vnum.monomials import polarized_symbolic_power, symbolic_power
from vnum.vertexsets import antichain_minima

from .graphs import complete_graph, disjoint_union

BOTH = (Field.Q, Field.F2)


def clutter10():
    """tests/data/clutter10.txt: 10 vertices, edges of sizes 2 and 3."""
    path = os.path.join(os.path.dirname(__file__), "data", "clutter10.txt")
    with open(path) as fh:
        return parse_edge_list(fh.read()).to_clutter()


def is_antichain(masks) -> bool:
    masks = list(masks)
    return len(antichain_minima(masks)) == len(masks)


class TestMeetPrecondition:
    """Every fold hands `meet` two antichains, as its prunes require."""

    @pytest.fixture
    def received(self, monkeypatch):
        calls = []

        def recording(gens, piece):
            gens, piece = list(gens), list(piece)
            calls.append((gens, piece))
            return vertexsets.meet(gens, piece)

        # the folds call `meet` by the name they imported
        monkeypatch.setattr(clutters, "meet", recording)
        monkeypatch.setattr(monomials, "meet", recording)
        clutters._minimal_transversals.cache_clear()
        yield calls
        clutters._minimal_transversals.cache_clear()

    @staticmethod
    def assert_antichains(calls):
        for gens, piece in calls:
            assert is_antichain(gens), gens
            assert is_antichain(piece), piece

    def test_reports_pass_antichains(self, corpus, received):
        for c in list(corpus) + [clutter10()]:
            full_report(c)
        # colon pieces mix single vertices and wider generators
        assert any(
            any(h.bit_count() == 1 for h in piece) and any(h.bit_count() > 1 for h in piece)
            for _, piece in received
        )
        self.assert_antichains(received)

    def test_symbolic_powers_pass_antichains(self, corpus, received):
        for c in list(corpus) + [clutter10()]:
            for k in (1, 2, 3):
                symbolic_power(c, k)
        self.assert_antichains(received)


class CountedMask(int):
    """A mask that counts the `&` it takes part in while `meet` runs.

    Every containment test of the kernel, and of an `antichain_minima` it
    calls, is an `&`, and every mask the kernel derives from a counted one
    is counted too.
    """

    inside_meet = False
    ands = 0

    def __and__(self, other):
        if CountedMask.inside_meet:
            CountedMask.ands += 1
        return CountedMask(int(self) & int(other))

    __rand__ = __and__

    def __or__(self, other):
        return CountedMask(int(self) | int(other))

    __ror__ = __or__

    def __xor__(self, other):
        return CountedMask(int(self) ^ int(other))

    __rxor__ = __xor__

    def __invert__(self):
        return CountedMask(~int(self))

    def __neg__(self):
        return CountedMask(-int(self))


class TestCoverFoldWork:
    """Containment tests are deterministic, unlike time, so they guard the
    prunes of `meet` in the minimal-cover fold."""

    def test_cover_fold_needs_no_reminimization(self, monkeypatch):
        # the minimal covers of the CM36 graphs and their polarized squares
        inputs = []
        for fix in CM36:
            g = fix.graph()
            inputs += [g, polarized_symbolic_power(g, 2)]
        want = [c.minimal_cover_masks() for c in inputs]
        minimized = []
        real_minima, real_meet = vertexsets.antichain_minima, vertexsets.meet

        def counting_minima(masks):
            if CountedMask.inside_meet:
                minimized.append(masks)
            return real_minima(masks)

        def counting_meet(gens, piece):
            CountedMask.inside_meet = True
            try:
                return real_meet(gens, piece)
            finally:
                CountedMask.inside_meet = False

        monkeypatch.setattr(vertexsets, "antichain_minima", counting_minima)
        monkeypatch.setattr(clutters, "meet", counting_meet)
        CountedMask.ands = 0
        for c, covers in zip(inputs, want):
            counted = tuple(CountedMask(m) for m in c.edge_masks)
            assert clutters._minimal_transversals.__wrapped__(counted) == covers
        assert not minimized
        # 396,503 when the bound was set; the quadratic kernel of
        # tests/oracles.py makes 5,619,178
        assert CountedMask.ands <= 420000


class SizedMask(int):
    """A mask that counts its containment tests `a & ~b` with |a| = |b|."""

    same_size_tests = 0

    def __and__(self, other):
        if isinstance(other, _Complement) and other.size == self.bit_count():
            SizedMask.same_size_tests += 1
        return SizedMask(int(self) & int(other))

    __rand__ = __and__

    def __xor__(self, other):
        return SizedMask(int(self) ^ int(other))

    __rxor__ = __xor__

    def __invert__(self):
        return _Complement(self)


class _Complement(int):
    """~m for a `SizedMask` m, remembering the size of m."""

    def __new__(cls, mask):
        out = super().__new__(cls, ~int(mask))
        out.size = mask.bit_count()
        return out


class TestSizeClassWork:
    """Two distinct masks of one size never contain each other, so the
    antichain checks of complexes and clutters test none such pairs, and a
    pure complex or a uniform clutter costs linear time."""

    def test_counter_sees_equal_size_tests(self):
        SizedMask.same_size_tests = 0
        masks = [SizedMask(m) for m in (0b011, 0b101, 0b110, 0b111)]
        for a, b in itertools.permutations(masks, 2):
            a & ~b
        assert SizedMask.same_size_tests == 6

    def test_uniform_families_need_no_equal_size_tests(self):
        # 8 K3: 24 vertices, 3^8 = 6,561 facets of size 8
        g = functools.reduce(disjoint_union, [complete_graph(3)] * 8)
        facets = g.maximal_stable_masks()
        assert len(facets) == 6561
        triples = sorted(
            sum(1 << i for i in t) for t in itertools.combinations(range(24), 3)
        )
        SizedMask.same_size_tests = 0
        SimplicialComplex(24, tuple(SizedMask(f) for f in facets))
        Graph(24, tuple(SizedMask(m) for m in g.edge_masks))
        Clutter(24, tuple(SizedMask(m) for m in triples))
        assert SizedMask.same_size_tests == 0
        assert sorted(antichain_minima(SizedMask(m) for m in triples)) == triples
        assert SizedMask.same_size_tests == 0
