"""Permutation groups on {0..k-1} with stabilizer-chain membership.

Any degree is accepted.  The groups the pebble game builds act on the
pebbles of a small graph, so a plain deterministic Schreier-Sims
suffices.  The chain is closed once, when the group is built: each
generator is sifted and only rebuilds orbits, which keeps feeding many
redundant generators cheap, and then one Schreier closure runs.  The
product of orbit sizes counts distinct elements, so once it reaches the
full k! the chain is certifiably complete and the closure stops early.
The order, and whether the group is S_k, are fixed then too, so
``order`` and ``is_symmetric`` only read them, and membership in S_k is
validation alone: every permutation of 0..k-1 lies in S_k, so only a
smaller group sifts.  A caller holding another certificate of S_k,
such as transpositions that join all k points, builds S_k's standard
chain with ``symmetric``; a conjugate g t g^-1 = (g(i) g(j)) of a member
t = (i j) by a member g is a member, so known transpositions and
generators give more.
"""

from __future__ import annotations

from math import factorial, prod
from operator import index
from typing import Iterable, Iterator

from .errors import StateCapExceeded, ValidationError

Perm = tuple[int, ...]

# degree -> (base, level generators, transversals) of S_k's standard chain
_STANDARD_CHAINS: dict[int, tuple[list, list, list]] = {}


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def check_perm(p: Iterable[int], k: int) -> Perm:
    raw = tuple(p)
    try:
        # plain ints: 2.0 sorts like 2 but cannot index a permutation
        t = tuple(map(index, raw))
    except TypeError:
        raise ValidationError(f"not a permutation of 0..{k - 1}: {raw}") from None
    if sorted(t) != list(range(k)):
        raise ValidationError(f"not a permutation of 0..{k - 1}: {t}")
    return t


def transposition(k: int, i: int, j: int) -> Perm:
    out = list(range(k))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def cycle_notation(p: Perm) -> str:
    seen: set[int] = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


class PermGroup:
    """Subgroup of S_k given by generators.

    Each generator is sifted in order and kept only when it extends the
    stabilizer chain, whose base points are chosen on demand (first moved
    point of each new residue); the chain is then closed and the order
    fixed, so queries only read them.  Transversals store each coset
    representative with its inverse so sifting never recomputes inverses.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        if degree < 1:
            raise ValidationError("degree must be >= 1")
        self.degree = degree
        kept: list[Perm] = []
        self._base: list[int] = []
        self._level_gens: list[list[Perm]] = []
        # per level: point -> (u, u_inv) with u(base) = point
        self._trans: list[dict[int, tuple[Perm, Perm]]] = []
        self._id = identity_perm(degree)
        for p in generators:
            perm = check_perm(p, degree)
            residue, lvl = self._sift_from(0, perm)
            if residue != self._id:
                kept.append(perm)
                self._insert_residue(residue, lvl)
        # a tuple: one group may reach many callers, so none may change it
        self.generators: tuple[Perm, ...] = tuple(kept)
        # an orbit product of k! is the whole symmetric group; nothing to close
        full = factorial(degree)
        while (order := prod(map(len, self._trans))) < full:
            hit = self._find_open_schreier()
            if hit is None:
                break
            self._insert_residue(*hit)
        # fixed here, since no group changes after it is built
        self._order = order
        self._symmetric = order == full

    @classmethod
    def symmetric(cls, degree: int, generators: Iterable[Perm]) -> PermGroup:
        """S_k on its standard chain, base 0..k-2 with level i moved by the
        (i j), j > i; no closure runs, so ``generators`` must generate S_k.
        The chain is built once per degree and shared, since no group
        changes after it is built."""
        chain = _STANDARD_CHAINS.get(degree)
        if chain is None:
            chain = _STANDARD_CHAINS[degree] = ([], [], [])
            for i in range(degree - 1):
                moves = [transposition(degree, i, j) for j in range(i, degree)]
                chain[0].append(i)
                chain[1].append(moves[1:])      # moves[0] is the identity
                chain[2].append({u[i]: (u, u) for u in moves})
        # the chain is filled in, so the empty group's closure need not run
        group = cls.__new__(cls)
        group.degree = degree
        group.generators = tuple(generators)
        group._id = identity_perm(degree)
        group._base, group._level_gens, group._trans = chain
        group._order, group._symmetric = factorial(degree), True
        return group

    # -- chain internals ----------------------------------------------------

    def _gens_at(self, i: int) -> list[Perm]:
        out: list[Perm] = []
        for lvl in range(i, len(self._level_gens)):
            out.extend(self._level_gens[lvl])
        return out

    def _rebuild_orbit(self, i: int) -> None:
        b = self._base[i]
        gens = self._gens_at(i)
        trans: dict[int, tuple[Perm, Perm]] = {b: (self._id, self._id)}
        frontier = [b]
        while frontier:
            nxt = []
            for pt in frontier:
                upt = trans[pt][0]
                for gen in gens:
                    q = gen[pt]
                    if q not in trans:
                        u = compose(gen, upt)
                        trans[q] = (u, inverse(u))
                        nxt.append(q)
            frontier = nxt
        self._trans[i] = trans

    def _sift_from(self, start: int, p: Perm) -> tuple[Perm, int]:
        base = self._base
        trans = self._trans
        for i in range(start, len(base)):
            t = p[base[i]]
            if t == base[i]:
                continue
            entry = trans[i].get(t)
            if entry is None:
                return p, i
            p = compose(entry[1], p)
        return p, len(base)

    def _insert_residue(self, residue: Perm, lvl: int) -> None:
        if lvl == len(self._base):
            b = next(i for i in range(self.degree) if residue[i] != i)
            self._base.append(b)
            self._level_gens.append([])
            self._trans.append({})
        self._level_gens[lvl].append(residue)
        for i in range(lvl + 1):
            self._rebuild_orbit(i)

    def _find_open_schreier(self) -> tuple[Perm, int] | None:
        for i in range(len(self._base)):
            gens = self._gens_at(i)
            trans = self._trans[i]
            for pt in sorted(trans):
                upt = trans[pt][0]
                for gen in gens:
                    schreier = compose(trans[gen[pt]][1], compose(gen, upt))
                    if schreier == self._id:
                        continue
                    r, lvl = self._sift_from(i + 1, schreier)
                    if r != self._id:
                        return r, lvl
        return None

    # -- public surface -----------------------------------------------------

    def order(self) -> int:
        return self._order

    def __contains__(self, p: Iterable[int]) -> bool:
        perm = check_perm(p, self.degree)
        if self._symmetric:     # every permutation of 0..k-1 lies in S_k
            return True
        return self._sift_from(0, perm)[0] == self._id

    def is_symmetric(self) -> bool:
        return self._symmetric

    def elements(self, cap: int = 50_000) -> Iterator[Perm]:
        """Enumerate all elements, each once, as the products of one coset
        representative per chain level.  Raises StateCapExceeded when the
        order exceeds ``cap``."""
        if self.order() > cap:
            raise StateCapExceeded(f"group order {self.order()} exceeds cap {cap}")
        out = [self._id]
        for trans in reversed(self._trans):
            out = [compose(u, p) for u, _ in trans.values() for p in out]
        yield from out

    def __repr__(self):
        return (f"PermGroup(degree={self.degree}, order={self.order()}, "
                f"generators={[cycle_notation(g) for g in self.generators]})")
