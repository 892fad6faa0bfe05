"""``linkage``: the infinite layer on windows built during set-up.

One round asks, in this order:

* the 20 weak-linking cases of acceptance criterion 8 (``find_linkage``,
  then ``check_linkage`` on the result);
* the order-reversal refutations of criterion 9 at depths 6 to 12, each
  expected to raise ``NoLinkageError``;
* the ray-graph requests of criteria 5 to 7;
* 15 seeded move sequences as in criterion 10, each realized with
  ``realize_transition`` and then checked with ``check_linkage``.

Only the move sequences depend on the seed; the other inputs are the
fixed cases the acceptance criteria name, so the two MILP-decided cases
("full swap m=2 ball2" and "full swap 0,2 of 3") are in every round.
"""

from __future__ import annotations

import random

from common import Op, single, unexpected

# 51 queries a round; p75 leaves at least ten samples beyond its rank
TAIL_PCT = 75

N_TRANSITIONS = 15
REVERSAL_DEPTHS = range(6, 13)

# decided by the MILP after about 20 s each; a traced run runs them once
MILP_CASES = ("full swap m=2 ball2", "full swap 0,2 of 3")


def _base_graphs(pk):
    triangle = pk.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    claw = pk.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    return triangle, claw


class Linkage:
    def __init__(self, pk, seed: int):
        self.pk = pk
        self.seed = seed
        w = pk.worlds
        self.hg = w.make_world("half-grid")
        self.fg = w.make_world("full-grid")
        self.products = [w.make_world("product-Z", base=b) for b in _base_graphs(pk)]
        self.th = w.truncate(self.hg, 8)
        self.tf = w.truncate(self.fg, 8)
        self.reversal_windows = [w.truncate(self.hg, d) for d in REVERSAL_DEPTHS]
        self.hcols = w.canonical_rays(self.hg, 6)
        self.frays = w.canonical_rays(self.fg, 4)
        self.trays = w.canonical_rays(self.fg, 3)
        self.cases = self._weak_linking_cases()
        self.transition_rg = pk.rays.ray_graph(self.fg, self.trays, d0=8)
        self.transitions = self._move_sequences()
        self.ray_graphs: dict[str, object] = {}

    # -- inputs ---------------------------------------------------------------

    def _weak_linking_cases(self):
        ball = self.pk.worlds.chebyshev_ball
        th, tf, hc, fr = self.th, self.tf, self.hcols, self.frays
        hb = lambda r: set(ball(th, r))
        fb = lambda r: set(ball(tf, r))
        ident = lambda k: {i: i for i in range(k)}
        return [
            ("half identity m=2", th, hc[:2], hc[:2], set(), ident(2)),
            ("half identity m=2 ball2", th, hc[:2], hc[:2], hb(2), ident(2)),
            ("half identity m=2 ball4", th, hc[:2], hc[:2], hb(4), ident(2)),
            ("half identity m=3 ball3", th, hc[:3], hc[:3], hb(3), ident(3)),
            ("half identity m=3 ball4", th, hc[:3], hc[:3], hb(4), ident(3)),
            ("half shift 2", th, hc[:2], hc[2:4], set(), ident(2)),
            ("half shift 3 ball1", th, hc[:3], hc[3:6], hb(1), ident(3)),
            ("half shift 3 free", th, hc[:3], hc[3:6], hb(2), None),
            ("half chain shift", th, hc[:2], hc[1:3], set(), ident(2)),
            ("half into superset free", th, hc[:2], hc[:4], set(), None),
            ("full identity m=2 ball3", tf, fr[:2], fr[:2], fb(3), ident(2)),
            ("full identity m=2 ball4", tf, fr[:2], fr[:2], fb(4), ident(2)),
            ("full swap m=2", tf, fr[:2], fr[:2], set(), {0: 1, 1: 0}),
            ("full swap m=2 ball2", tf, fr[:2], fr[:2], fb(2), {0: 1, 1: 0}),
            ("full cyclic m=3 ball2", tf, fr[:3], fr[:3], fb(2), {0: 1, 1: 2, 2: 0}),
            ("full cyclic m=3 ball4", tf, fr[:3], fr[:3], fb(4), {0: 1, 1: 2, 2: 0}),
            ("full identity m=3 ball4", tf, fr[:3], fr[:3], fb(4), ident(3)),
            ("full free m=3 ball3", tf, fr[:3], fr[:3], fb(3), None),
            ("full swap 0,2 of 3", tf, fr[:3], fr[:3], set(), {0: 2, 1: 1, 2: 0}),
            ("full into superset free", tf, fr[:3], fr[:4], fb(2), None),
        ]

    def _move_sequences(self):
        """Two pebbles on three rays, one to three moves each, sometimes
        after a ball X, as in acceptance criterion 10."""
        rng = random.Random(f"linkage:{self.seed}")
        out = []
        for _ in range(N_TRANSITIONS):
            moves = [(0, 1)]
            for _ in range(rng.randint(1, 3)):
                cur = moves[-1]
                slot = rng.randrange(2)
                nxt = list(cur)
                nxt[slot] = rng.choice([r for r in range(3) if r not in cur])
                moves.append(tuple(nxt))
            radius = rng.choice((0, 1, 2))
            x = (set(self.pk.worlds.chebyshev_ball(self.tf, radius))
                 if rng.random() < 0.5 else set())
            out.append((moves, x))
        return out

    # -- queries --------------------------------------------------------------

    def warm_up(self) -> None:
        name, t, src, tgt, x, sigma = self.cases[0]
        self._find_and_check(t, src, tgt, x, sigma)

    def _find_and_check(self, t, src, tgt, x, sigma):
        lk = self.pk.linkage.find_linkage(t, src, tgt, x, sigma)
        self.pk.linkage.check_linkage(t, src, tgt, lk)
        return lk

    def round_ops(self, r: int) -> list[Op]:
        ops = [self._weak_link_op(*case) for case in self.cases]
        ops += [self._reversal_op(t) for t in self.reversal_windows]
        ops += self._ray_graph_ops()
        ops += [self._transition_op(i, moves, x)
                for i, (moves, x) in enumerate(self.transitions)]
        return ops

    def _weak_link_op(self, name, t, src, tgt, x, sigma) -> Op:
        kind = "weak_link_fixed" if sigma is not None else "weak_link_free"

        def check(lk, exc, counters):
            problems = unexpected(exc)
            if not problems and sigma is not None and lk.sigma != sigma:
                problems.append(f"induced sigma {lk.sigma}, asked for {sigma}")
            return single(problems)

        return Op(kind, name, lambda: self._find_and_check(t, src, tgt, x, sigma),
                  check, once=name in MILP_CASES)

    def _reversal_op(self, t) -> Op:
        src, tgt = self.hcols[:3], self.hcols[3:6]
        sigma = {0: 2, 1: 1, 2: 0}

        def check(res, exc, counters):
            if isinstance(exc, self.pk.NoLinkageError):
                return single([])
            if exc is None:
                return single(["order reversal reported feasible"])
            return single(unexpected(exc))

        return Op("reversal", f"order reversal depth {t.depth}",
                  lambda: self.pk.linkage.find_linkage(t, src, tgt, set(), sigma),
                  check)

    def _ray_graph_ops(self) -> list[Op]:
        rays = self.pk.rays
        w = self.pk.worlds
        specs = []
        for m in (4, 6):
            for d0 in (10, 14):
                specs.append((f"full-grid m={m} d0={d0}", self.fg,
                              w.canonical_rays(self.fg, m), d0, "cycle"))
        for m in (3, 4, 5):
            specs.append((f"half-grid m={m} d0=10", self.hg,
                          w.canonical_rays(self.hg, m), 10, "path"))
        for world in self.products:
            base = world.base
            specs.append((f"product-Z n={base.n} m={len(base.edges)}", world,
                          w.canonical_rays(world, base.n), 8, "product"))

        def op(label, world, ray_family, d0, shape):
            def check(rg, exc, counters):
                problems = unexpected(exc)
                if not problems:
                    counters["ray_graphs"] += 1
                    counters["ray_graphs_stabilized"] += bool(rg.stabilized)
                    problems += self._shape_problems(label, world, rg, shape)
                return single(problems)
            return Op("ray_graph", label,
                      lambda: rays.ray_graph(world, ray_family, d0=d0), check)

        return [op(*s) for s in specs]

    def _shape_problems(self, label, world, rg, shape) -> list[str]:
        rays = self.pk.rays
        if not rg.stabilized:
            return [f"{label}: did not stabilize"]
        if shape == "cycle":
            m = len(rg.indices)
            deg = {i: 0 for i in rg.indices}
            for a, b in rg.edges:
                deg[a] += 1
                deg[b] += 1
            problems = []
            if len(rg.edges) != m or any(d != 2 for d in deg.values()):
                problems.append(f"{label}: not a cycle")
            # the d0=10 and d0=14 answers of one family must agree
            twin = label.rsplit(" ", 1)[0]
            other = self.ray_graphs.setdefault(twin, rg)
            if other.edges != rg.edges:
                problems.append(f"{label}: edges differ between d0=10 and d0=14")
            return problems
        if shape == "path":
            return [] if rays.is_linear_family(rg) else [f"{label}: not a path"]
        base_edges = {(min(a, b), max(a, b)) for a, b in world.base.edges}
        got = {(min(a, b), max(a, b)) for a, b in rg.edges}
        problems = []
        if not base_edges <= got:
            problems.append(f"{label}: does not contain the base graph")
        if rays.is_linear_family(rg):
            problems.append(f"{label}: is linear")
        return problems

    def _transition_op(self, i, moves, x) -> Op:
        t, rays, rg = self.tf, self.trays, self.transition_rg
        linkage = self.pk.linkage

        def call():
            lk = linkage.realize_transition(t, rays, moves, x, rg=rg)
            linkage.check_linkage(t, [rays[s] for s in moves[0]], rays, lk)
            return lk

        def check(lk, exc, counters):
            problems = unexpected(exc)
            final = moves[-1]
            if not problems and lk.sigma != {0: final[0], 1: final[1]}:
                problems.append(f"induced {lk.sigma}, moves end at {final}")
            return single(problems)

        return Op("transition", f"transition {i} {moves}", call, check)


def build(pk, seed: int) -> Linkage:
    return Linkage(pk, seed)
