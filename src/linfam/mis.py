"""Exact maximum independent set by branch and bound.

Graphs are adjacency bitsets: bit j of row i is set when i and j are
adjacent.  Independent sets of a graph are the cliques of its complement,
so the solver is a max-clique search with a greedy colouring bound: the
candidate set is partitioned into colour classes, and a clique can take
at most one vertex per class; only the classes that could still branch are
kept (San Segundo et al., Comput. Oper. Res. 2011).  One depth-first
search finds one maximum clique or lists them all.  _cayley_rows builds
a Cayley graph on (Z/b)^K from row 0, by base-b digit translations of the
vertex indices; spectra.graph_bitsets builds with it too.  A graph it
rebuilds is vertex-transitive, so the search for one clique looks only at
cliques through vertex 0 and stops at the first clique that meets the
clique-coclique bound alpha * omega <= N (Godsil-Meagher,
Erdos-Ko-Rado Theorems: Algebraic Approaches, CUP 2016).
"""
from __future__ import annotations

from typing import Sequence

from .budget import Budget, ensure
from .errors import DomainError

__all__ = [
    "all_maximum_independent_sets",
    "bits_of",
    "complement_bitsets",
    "max_clique",
    "max_independent_set",
]

# beyond this the exact search is no longer a desk-scale oracle
MAX_VERTICES = 4096


def bits_of(mask: int):
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_graph(adj: Sequence[int], nverts: int) -> None:
    if nverts > MAX_VERTICES:
        raise DomainError(f"exact search capped at {MAX_VERTICES} vertices")
    # a negative row shifts down to -1, so it is refused too
    if len(adj) != nverts or any(row >> nverts for row in adj):
        raise DomainError(f"need {nverts} rows of vertices below {nverts}")


def _cayley_rows(row0: int, nverts: int) -> list[int] | None:
    """Rows of the Cayley graph on (Z/b)^K whose row 0 is row0, for
    nverts = b^K with b its smallest prime factor; None for any other nverts.

    Row i + j is row j translated by i, digit by digit mod b.  The rows with
    digit d > 0 at place value w, and none above, are the rows with digit
    d - 1 there moved one step at w, digit b - 1 wrapping round to 0.
    """
    if nverts < 2:
        return None
    b = next(p for p in range(2, nverts + 1) if nverts % p == 0)
    rows, w, full = [row0], 1, (1 << nverts) - 1
    while w < nverts:
        if nverts % (w * b):
            return None
        # top: the indices whose digit at w is b - 1, w of every b * w
        back = (b - 1) * w
        top = full // ((1 << b * w) - 1) * ((1 << w) - 1) << back
        for i in range(back):
            row = rows[i]
            hi = row & top
            rows.append(((row ^ hi) << w) | (hi >> back))
        w *= b
    return rows


def complement_bitsets(adj: Sequence[int], nverts: int) -> list[int]:
    _check_graph(adj, nverts)
    full = (1 << nverts) - 1
    return [full & ~adj[i] & ~(1 << i) for i in range(nverts)]


def _color_classes(adj: Sequence[int], cand: int,
                   kmin: int) -> list[tuple[int, int]]:
    """Greedy colouring of the candidate set, lowest vertex first, as
    (colour, class bitset) pairs in colour order, kept only from colour
    kmin up.

    A clique inside the classes up to colour c has at most c vertices, so
    a branch on a class below kmin could never be taken.
    """
    out = []
    rest = cand
    color = 0
    while rest:
        color += 1
        cls, avail = 0, rest
        while avail:
            low = avail & -avail
            avail &= ~(adj[low.bit_length() - 1] | low)
            cls |= low
        rest ^= cls
        if color >= kmin:
            out.append((color, cls))
    return out


def _translation_transitive(adj: Sequence[int], nverts: int) -> bool:
    """Whether every row of adj is the translate of row 0: the graph is then
    vertex-transitive, so some maximum clique contains vertex 0."""
    return nverts >= 2 and _cayley_rows(adj[0], nverts) == list(adj)


def _clique_search(adj: Sequence[int], nverts: int, b: Budget,
                   every: bool) -> tuple[int, list[int]]:
    """(size, cliques): the largest clique size with the first maximum
    clique found, or, when every is set, with every maximum clique.

    A branch on v collects the cliques containing v, then v is dropped from
    the candidates for good, so each clique is reached once.  A branch is
    cut when its colour bound cannot beat the best size found, or, listing
    every optimum, cannot tie it; a larger clique starts the list again.
    When one clique is wanted on a graph that _cayley_rows rebuilds from
    row 0, only cliques through vertex 0 are searched.  Such a graph is
    vertex-transitive, so alpha * omega <= nverts (the clique-coclique
    bound): the first colour class, k independent vertices, caps every
    clique at nverts // k, and the search ends at the first such clique.
    """
    _check_graph(adj, nverts)
    rooted = not every and _translation_transitive(adj, nverts)
    what = ("independent set enumeration" if every else
            "independent set search rooted at vertex 0" if rooted
            else "independent set search")
    full = (1 << nverts) - 1
    cap = (nverts // _color_classes(adj, full, 1)[0][1].bit_count()
           if rooted else nverts)
    # a branch stays while its bound reaches need: best + gain, or past
    # any clique once best reaches cap
    gain = 0 if every else 1
    best, found = -1, []
    need = best + gain
    nodes = 0

    def expand(cur: int, size: int, cand: int) -> None:
        nonlocal best, found, need, nodes
        nodes += 1
        if nodes % 4096 == 0:
            b.check_clock(what, f"{nodes} nodes")
        if not cand:
            if size > best:
                best, found = size, [cur]
                need = size + gain if size < cap else nverts + 1
            elif every and size == best:
                found.append(cur)
            return
        # highest colour first, each class from its highest vertex down
        for c, cls in reversed(_color_classes(adj, cand, need - size)):
            while cls:
                if size + c < need:
                    return
                v = cls.bit_length() - 1
                bit = 1 << v
                expand(cur | bit, size + 1, cand & adj[v])
                cand ^= bit
                cls ^= bit

    if rooted:
        expand(1, 1, adj[0])
    else:
        expand(0, 0, full)
    return best, found


def max_clique(adj: Sequence[int], nverts: int,
               budget: Budget | None = None) -> tuple[int, int]:
    """(size, vertex bitset) of one maximum clique."""
    size, found = _clique_search(adj, nverts, ensure(budget), False)
    return size, found[0]


def max_independent_set(adj: Sequence[int], nverts: int,
                        budget: Budget | None = None) -> tuple[int, int]:
    """(size, vertex bitset) of one maximum independent set."""
    return max_clique(complement_bitsets(adj, nverts), nverts, budget)


def all_maximum_independent_sets(adj: Sequence[int], nverts: int,
                                 budget: Budget | None = None) -> list[int]:
    """Every maximum independent set, as vertex bitsets, each once."""
    return _clique_search(complement_bitsets(adj, nverts), nverts,
                          ensure(budget), True)[1]
