"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The structure-theorem sweep (criterion 1) covers
every connected graph on up to 7 vertices, one per isomorphism class
weighted by the labelled graphs it stands for.
"""

import itertools
import os
import random
import time
from math import factorial

from pebblekit.errors import NoLinkageError
from pebblekit.graphs import enumerate_connected_graphs
from pebblekit.linkage import check_linkage, find_linkage, realize_transition
from pebblekit.permgroups import transposition
from pebblekit.rays import is_linear_family, ray_graph
from pebblekit.structure import (is_k_pebble_win, pebble_permutation_group,
                                 rb_colouring, verify_structure_theorem)
from pebblekit.worlds import canonical_rays, chebyshev_ball, make_world, truncate

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from oracles import contains_subgraph, harvest_group, labelled_class


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# -- 1: structure-theorem sweep ---------------------------------------------

def test_criterion_01_structure_sweep():
    budget_s = 600
    t0 = time.perf_counter()
    rep = verify_structure_theorem(7, workers=os.cpu_count())
    elapsed_s = time.perf_counter() - t0
    ok = (rep["failures"] == 0 and elapsed_s <= budget_s
          and rep["checked"] == 9_440_360 and rep["non_pebble_win"] == 207_024)
    _verdict(
        "criterion 1 structure sweep n<=7",
        ok,
        f"checked={rep['checked']} non_pebble_win={rep['non_pebble_win']} "
        f"failures={rep['failures']} elapsed={elapsed_s:.1f}s")


# -- 2: group decision vs definitional all-pairs check -----------------------

def test_criterion_02_win_oracle_equivalence():
    mismatches = 0
    instances = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for k in range(1, min(3, n) + 1):
                states = list(itertools.permutations(range(n), k))
                definitional = len(labelled_class(g, states[0])) == len(states)
                instances += 1
                if is_k_pebble_win(g, k) != definitional:
                    mismatches += 1
    _verdict("criterion 2 win decision == all-pairs oracle",
             mismatches == 0, f"{instances} instances, {mismatches} mismatches")


# -- 3: known group values ---------------------------------------------------

def test_criterion_03_known_group_values():
    ok = True
    notes = []
    p5 = path_graph(5)
    for k in (2, 3, 4, 5):
        grp = pebble_permutation_group(p5, tuple(range(k)))
        ok &= grp.order() == 1 and not is_k_pebble_win(p5, k)
    notes.append("5-path trivial")
    for n in (5, 6):
        grp = pebble_permutation_group(cycle_graph(n), (0, 1, 2))
        ok &= grp.order() == 3
    notes.append("cycles order 3")
    for n in (4, 5, 6, 7):
        for k in range(1, n - 1):
            grp = pebble_permutation_group(complete_graph(n), tuple(range(k)))
            ok &= grp.order() == factorial(k)
    notes.append("complete graphs k!")
    _verdict("criterion 3 known group values", ok, ", ".join(notes))


# -- 4: red/blue colouring contract ------------------------------------------

def test_criterion_04_rb_colouring_contract():
    violations = 0
    losers = 0
    for n in range(3, 7):
        for g in enumerate_connected_graphs(n):
            for k in range(1, n - 1):
                if is_k_pebble_win(g, k):
                    continue
                losers += 1
                col = rb_colouring(g, tuple(range(k)))
                reds = [i for i in range(k) if col[i] == "r"]
                blues = [i for i in range(k) if col[i] == "b"]
                if not reds or not blues:
                    violations += 1
                    continue
                probe = harvest_group(g, tuple(range(k)))
                for i in reds:
                    for j in blues:
                        if transposition(k, i, j) in probe:
                            violations += 1
    _verdict("criterion 4 red/blue colouring contract", violations == 0,
             f"{losers} non-win instances, {violations} violations")


# -- 5 and 6: ray graphs of the classic grids --------------------------------

def _is_cycle_graph_on(rg):
    m = len(rg.indices)
    return (len(rg.edges) == m and all(rg.degree(i) == 2 for i in rg.indices)
            and not is_linear_family(rg))


def test_criterion_05_full_grid_cycles():
    fg = make_world("full-grid")
    ok = True
    for m in (4, 6):
        rays = canonical_rays(fg, m)
        rg10 = ray_graph(fg, rays, d0=10)
        rg14 = ray_graph(fg, rays, d0=14)
        ok &= rg10.stabilized and rg14.stabilized
        ok &= rg10.edges == rg14.edges
        ok &= _is_cycle_graph_on(rg10)
    _verdict("criterion 5 full-grid ray graphs are cycles", ok,
             "m=4 and m=6, d0=10 == d0=14")


def test_criterion_06_half_grid_paths():
    hg = make_world("half-grid")
    ok = True
    for m in (3, 4, 5):
        rg = ray_graph(hg, canonical_rays(hg, m), d0=10)
        ok &= rg.stabilized and is_linear_family(rg)
    _verdict("criterion 6 half-grid ray graphs are paths", ok, "m=3,4,5")


# -- 7: products are not linear ----------------------------------------------

def test_criterion_07_product_nonlinearity():
    ok = True
    for base in (cycle_graph(3), star_graph(3)):
        w = make_world("product-Z", base=base)
        rays = canonical_rays(w, base.n)
        rg = ray_graph(w, rays, d0=8)
        ok &= rg.stabilized
        ok &= contains_subgraph(rg, set(base.sorted_edges()))
        ok &= not is_linear_family(rg)
    _verdict("criterion 7 product ray graphs contain the base", ok,
             "triangle and K_{1,3}")


# -- 8: weak linking at desk scale -------------------------------------------

def _linkage_cases():
    hg = make_world("half-grid")
    fg = make_world("full-grid")
    th = truncate(hg, 8)
    tf = truncate(fg, 8)
    hcols = canonical_rays(hg, 6)
    frays = canonical_rays(fg, 4)
    hb = lambda r: set(chebyshev_ball(th, r))
    fb = lambda r: set(chebyshev_ball(tf, r))
    ident = lambda k: {i: i for i in range(k)}
    return [
        ("half identity m=2", th, hcols[:2], hcols[:2], set(), ident(2)),
        ("half identity m=2 ball2", th, hcols[:2], hcols[:2], hb(2), ident(2)),
        ("half identity m=2 ball4", th, hcols[:2], hcols[:2], hb(4), ident(2)),
        ("half identity m=3 ball3", th, hcols[:3], hcols[:3], hb(3), ident(3)),
        ("half identity m=3 ball4", th, hcols[:3], hcols[:3], hb(4), ident(3)),
        ("half shift 2", th, hcols[:2], hcols[2:4], set(), ident(2)),
        ("half shift 3 ball1", th, hcols[:3], hcols[3:6], hb(1), ident(3)),
        ("half shift 3 free", th, hcols[:3], hcols[3:6], hb(2), None),
        ("half chain shift", th, hcols[:2], hcols[1:3], set(), ident(2)),
        ("half into superset free", th, hcols[:2], hcols[:4], set(), None),
        ("full identity m=2 ball3", tf, frays[:2], frays[:2], fb(3), ident(2)),
        ("full identity m=2 ball4", tf, frays[:2], frays[:2], fb(4), ident(2)),
        ("full swap m=2", tf, frays[:2], frays[:2], set(), {0: 1, 1: 0}),
        ("full swap m=2 ball2", tf, frays[:2], frays[:2], fb(2), {0: 1, 1: 0}),
        ("full cyclic m=3 ball2", tf, frays[:3], frays[:3], fb(2),
         {0: 1, 1: 2, 2: 0}),
        ("full cyclic m=3 ball4", tf, frays[:3], frays[:3], fb(4),
         {0: 1, 1: 2, 2: 0}),
        ("full identity m=3 ball4", tf, frays[:3], frays[:3], fb(4), ident(3)),
        ("full free m=3 ball3", tf, frays[:3], frays[:3], fb(3), None),
        ("full swap 0,2 of 3", tf, frays[:3], frays[:3], set(),
         {0: 2, 1: 1, 2: 0}),
        ("full into superset free", tf, frays[:3], frays[:4], fb(2), None),
    ]


def test_criterion_08_weak_linking_suite():
    cases = _linkage_cases()
    assert len(cases) == 20
    failures = []
    for name, t, src, tgt, x, sigma in cases:
        try:
            lk = find_linkage(t, src, tgt, x, sigma)
            check_linkage(t, src, tgt, lk)
            if sigma is not None and lk.sigma != sigma:
                failures.append(f"{name}: wrong sigma")
        except Exception as exc:      # noqa: BLE001 - collect for the verdict
            failures.append(f"{name}: {exc}")
    _verdict("criterion 8 weak linking 20-case suite", not failures,
             "; ".join(failures) if failures else "20/20 found and checked")


# -- 9: planar obstruction ----------------------------------------------------

def test_criterion_09_order_reversal_infeasible():
    hg = make_world("half-grid")
    cols = canonical_rays(hg, 6)
    sigma = {0: 2, 1: 1, 2: 0}
    bad_depths = []
    for depth in range(6, 13):
        t = truncate(hg, depth)
        try:
            find_linkage(t, cols[:3], cols[3:6], set(), sigma)
            bad_depths.append(depth)
        except NoLinkageError:
            pass
    _verdict("criterion 9 order reversal infeasible at depths 6-12",
             not bad_depths,
             f"feasible at {bad_depths}" if bad_depths else "7/7 depths")


# -- 10: realized transitions -------------------------------------------------

def test_criterion_10_realize_transition_suite():
    fg = make_world("full-grid")
    t = truncate(fg, 8)
    rays = canonical_rays(fg, 3)
    rg = ray_graph(fg, rays, d0=8)
    rng = random.Random(20240817)
    failures = []
    cases = 0
    while cases < 15:
        start = (0, 1)
        moves = [start]
        for _ in range(rng.randint(1, 3)):
            cur = moves[-1]
            slot = rng.randrange(2)
            free = [r for r in range(3) if r not in cur]
            nxt = list(cur)
            nxt[slot] = rng.choice(free)
            moves.append(tuple(nxt))
        x = set(chebyshev_ball(t, rng.choice((0, 1, 2)))) if rng.random() < 0.5 else set()
        cases += 1
        try:
            lk = realize_transition(t, rays, moves, x, rg=rg)
            final = moves[-1]
            if lk.sigma != {0: final[0], 1: final[1]}:
                failures.append(f"case {cases}: induced {lk.sigma} != {final}")
                continue
            check_linkage(t, [rays[s] for s in moves[0]], rays, lk)
        except Exception as exc:      # noqa: BLE001
            failures.append(f"case {cases}: {exc}")
    _verdict("criterion 10 transition realization 15-case suite",
             not failures,
             "; ".join(failures) if failures else "15/15 induced and checked")
