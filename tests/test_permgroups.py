"""Stabilizer-chain group arithmetic, cross-checked against naive closure."""

import itertools
import random
import re
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.errors import ResourceCapError, StateCapExceeded, ValidationError
from pebblekit.permgroups import (PermGroup, compose, cycle_notation,
                                  identity_perm, inverse, transposition)


def naive_closure(k, gens):
    elems = {identity_perm(k)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def test_perm_arithmetic():
    p = (1, 2, 0)
    assert compose(p, inverse(p)) == identity_perm(3)
    assert inverse(inverse(p)) == p
    q = (0, 2, 1)
    # (p o q)(i) = p(q(i))
    assert compose(p, q) == (1, 0, 2)
    assert cycle_notation(p) == "(0 1 2)"
    assert cycle_notation(identity_perm(4)) == "()"


def test_empty_group():
    g = PermGroup(3)
    assert g.order() == 1
    assert identity_perm(3) in g
    assert (1, 0, 2) not in g


def test_degree_zero_is_refused():
    with pytest.raises(ValidationError, match="degree must be >= 1"):
        PermGroup(0)


def test_symmetric_group(monkeypatch):
    g = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert g.order() == 24
    assert g.is_symmetric()
    path = PermGroup.symmetric(4, [transposition(4, i, i + 1) for i in range(3)])

    def sift(self, start, p):
        raise AssertionError("S_4 sifted on a membership query")

    # every permutation of 0..3 lies in S_4: membership is validation alone
    monkeypatch.setattr(PermGroup, "_sift_from", sift)
    for p in itertools.permutations(range(4)):
        assert p in g and p in path


def test_cyclic_group(monkeypatch):
    g = PermGroup(3, [(1, 2, 0)])
    assert g.order() == 3
    sifts = []
    real_sift = PermGroup._sift_from

    def sift(self, start, p):
        sifts.append(p)
        return real_sift(self, start, p)

    monkeypatch.setattr(PermGroup, "_sift_from", sift)
    assert (2, 0, 1) in g
    assert transposition(3, 0, 1) not in g
    # a group smaller than S_k answers from its chain
    assert sifts == [(2, 0, 1), transposition(3, 0, 1)]
    assert set(g.elements()) == naive_closure(3, [(1, 2, 0)])
    assert repr(g) == "PermGroup(degree=3, order=3, generators=['(0 1 2)'])"


def test_a_built_group_does_no_closure_work_when_queried(monkeypatch):
    # S_5 from a 5-cycle and a transposition needs a Schreier closure,
    # which runs once, when the group is built
    g = PermGroup(5, [(1, 2, 3, 4, 0), transposition(5, 0, 1)])

    def closure(self):
        raise AssertionError("closure ran on a query")

    monkeypatch.setattr(PermGroup, "_find_open_schreier", closure)
    assert g.order() == factorial(5) and g.is_symmetric()
    assert (4, 3, 2, 1, 0) in g
    assert len(set(g.elements())) == factorial(5)


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetric_chain_is_all_of_s_k(k):
    # a path of transpositions (i i+1) generates S_k
    path = [transposition(k, i, i + 1) for i in range(k - 1)]
    g = PermGroup.symmetric(k, path)
    assert g.generators == tuple(path)
    assert g.order() == factorial(k) and g.is_symmetric()
    elems = list(g.elements())
    assert len(elems) == len(set(elems)) == factorial(k)
    assert set(elems) == set(itertools.permutations(range(k)))
    assert all(p in g for p in elems)
    # the constructor keeps every generator and closes the same group
    built = PermGroup(k, path)
    assert built.generators == tuple(path) and built.order() == factorial(k)


def test_redundant_generator_not_recorded():
    g = PermGroup(3, [(1, 2, 0), (2, 0, 1)])    # (2, 0, 1) is already a member
    assert g.generators == ((1, 2, 0),)


def test_invalid_perm_rejected():
    for bad in [(0, 0, 1), (0, 1)]:
        with pytest.raises(ValidationError):
            PermGroup(3, [(1, 2, 0), bad])
    # entries must be integers, whether or not the group is S_k: 2.0
    # sorts like 2, and 1.0 cannot index a permutation
    s3 = PermGroup(3, [(1, 2, 0), (1, 0, 2)])
    s3_path = PermGroup.symmetric(3, [(1, 0, 2), (0, 2, 1)])
    swap = PermGroup(3, [(1, 0, 2)])
    for grp in (s3, s3_path, swap):
        for bad in [(0, 1, 2.0), (1.0, 0, 2)]:
            with pytest.raises(ValidationError, match=re.escape(str(bad))):
                bad in grp
    with pytest.raises(ValidationError, match=re.escape("(1.0, 0)")):
        PermGroup(2, [(1.0, 0)])


def test_elements_past_the_cap_is_a_resource_refusal():
    # S_9 from a 9-cycle and a transposition: 362,880 elements
    g = PermGroup(9, [tuple(range(1, 9)) + (0,), transposition(9, 0, 1)])
    with pytest.raises(StateCapExceeded, match="362880 exceeds cap 50000"):
        next(g.elements())
    assert issubclass(StateCapExceeded, ResourceCapError)
    s5 = PermGroup(5, [(1, 2, 3, 4, 0), transposition(5, 0, 1)])
    assert len(set(s5.elements(cap=120))) == 120
    with pytest.raises(StateCapExceeded):
        next(s5.elements(cap=119))


@given(st.integers(2, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_matches_naive_closure(k, data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        p = list(range(k))
        rng.shuffle(p)
        gens.append(tuple(p))
    grp = PermGroup(k, gens)
    want = naive_closure(k, gens)
    assert grp.order() == len(want)
    # membership agrees exhaustively for small k
    if k <= 5:
        for p in itertools.permutations(range(k)):
            assert (p in grp) == (p in want)
    assert set(grp.elements()) == want
