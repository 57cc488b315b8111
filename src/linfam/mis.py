"""Exact maximum independent set by branch and bound.

Graphs are adjacency bitsets: bit j of row i is set when i and j are
adjacent.  Independent sets of a graph are the cliques of its complement,
so the solver is a max-clique search with a greedy colouring bound: the
candidate set is partitioned into colour classes, and a clique can take
at most one vertex per class; only the classes that could still branch are
kept (San Segundo et al., Comput. Oper. Res. 2011).  One depth-first
search finds one maximum clique or lists them all.  A graph invariant
under the digit-wise translations of its vertex indices is
vertex-transitive, so the search for one clique verifies that symmetry,
looks only at cliques through vertex 0, and stops at the first clique
that meets the clique-coclique bound alpha * omega <= N (Godsil-Meagher,
Erdos-Ko-Rado Theorems: Algebraic Approaches, CUP 2016).
"""
from __future__ import annotations

from typing import Sequence

from .budget import Budget, ensure
from .errors import DomainError
from .matspace import digit_mask

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


def complement_bitsets(adj: Sequence[int], nverts: int) -> list[int]:
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


def _greedy_independent_count(adj: Sequence[int], nverts: int) -> int:
    """Size of the independent set taken greedily, lowest vertex first."""
    k, avail = 0, (1 << nverts) - 1
    while avail:
        low = avail & -avail
        avail &= ~(adj[low.bit_length() - 1] | low)
        k += 1
    return k


def _translation_transitive(adj: Sequence[int], nverts: int) -> bool:
    """Whether adding 1 mod b to any one base-b digit of the vertex
    indices is an automorphism, for nverts = b^K with b its smallest
    prime factor.

    Those maps generate the translations of (Z/b)^K, which act
    transitively, so some maximum clique then contains vertex 0.
    """
    if nverts < 2:
        return False
    b = next(p for p in range(2, nverts + 1) if nverts % p == 0)
    w = 1
    while w < nverts:
        if nverts % (w * b):
            return False
        # indices whose digit at w is b - 1 wrap round to digit 0
        top = digit_mask(b, w, b - 1, nverts)
        low, back = ~top, (b - 1) * w
        for i in range(nverts):
            row = adj[i]
            j = i + w if (i // w) % b != b - 1 else i - back
            if adj[j] != ((row & low) << w) | ((row & top) >> back):
                return False
        w *= b
    return True


def _clique_search(adj: Sequence[int], nverts: int, b: Budget,
                   every: bool) -> tuple[int, list[int]]:
    """(size, cliques): the largest clique size with the first maximum
    clique found, or, when every is set, with every maximum clique.

    A branch on v collects the cliques containing v, then v is dropped from
    the candidates for good, so each clique is reached once.  A branch is
    cut when its colour bound cannot beat the best size found, or, listing
    every optimum, cannot tie it; a larger clique starts the list again.
    When one clique is wanted on a graph that _translation_transitive
    certifies, only cliques through vertex 0 are searched.  Such a graph
    is vertex-transitive, so alpha * omega <= nverts (the clique-coclique
    bound): a greedy independent set of k vertices caps every clique at
    nverts // k, and the search ends at the first clique of that size.
    """
    if nverts > MAX_VERTICES:
        raise DomainError(f"exact search capped at {MAX_VERTICES} vertices")
    rooted = not every and _translation_transitive(adj, nverts)
    what = ("independent set enumeration" if every else
            "independent set search rooted at vertex 0" if rooted
            else "independent set search")
    cap = nverts // _greedy_independent_count(adj, nverts) if rooted else nverts
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
        expand(0, 0, (1 << nverts) - 1)
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
