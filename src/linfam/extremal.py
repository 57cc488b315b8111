"""Extremal constructions over GL: fixed-prefix families and their rivals.

The objects here are the conjectured optima for the forbidden-agreement
problem on invertible maps and the machinery used to stress them at desk
scale: families fixing a prefix of the standard basis, field-cycle
subgroups whose nonidentity quotients never fix a vector, counts of
prefix-fixing maps that nearly agree with a given outside map, and
exhaustive or sampled maximality checks.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .budget import Budget, ensure
from .errors import (BudgetExceeded, DomainError, InvariantViolated,
                     PreconditionViolated)
from .families import Family
from .gf import (FieldSpec, digits, field, first_generator, least_irreducible,
                 poly_mod, poly_mulmod)
from .images import ImageTables
from .matspace import (IndexCode, Mat, _frames, count_subspaces_avoiding,
                       gaussian_binomial, gl_order, m_qt, rank, span_indices,
                       subspaces_of_dim, transpose_indices, vec_from_index,
                       vec_index)
from .spectra import graph_bitsets, hoffman_bound, spectrum
from . import mis

__all__ = [
    "canonical_family",
    "canonical_family_size",
    "derangement_bound",
    "derangement_construct",
    "derangement_construct_count",
    "derangement_enumerate",
    "derangement_ratio_chain",
    "fixed_prefix_dim",
    "prefix_meet_dim",
    "report_to_json",
    "singer_cycle",
    "sl_family",
    "verify_extremal_bound",
]


# --- small helpers ------------------------------------------------------------

def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(n))


def _report(claim: str, params: dict, value, bound, status: str,
            witness=(), **extra) -> dict:
    """A claim report: value and bound as strings, extra keys before the
    status and the witness list."""
    return {"claim": claim, "params": params, "value": str(value),
            "bound": str(bound), **extra, "status": status,
            "witness": list(witness)}


# --- prefix-fixing invertible families --------------------------------------

def _prefix_walk(code: IndexCode, fixed: Sequence[int],
                 target: Sequence[int] | None, budget: Budget | None):
    """Depth-first walk over the invertible maps sigma of F_q^n (n =
    code.length), given by the images of a basis b_0 .. b_{n-1}, with
    sigma(b_j) = fixed[j] for j < len(fixed).  Vectors are vec_index
    codes, and every span is the set of its members, grown by code.extend.

    Fixed images are taken as given.  A free image is admitted, in code
    order, when it lies outside the span of the images above it and, if a
    target tau is given (target[j] = tau(b_j)), when its difference from
    tau(b_j) also lies outside the span of the differences above it; a
    fixed image grows that span only when its difference is independent.

    Yields (imgs, last) once per choice of the images above the last
    position: imgs the codes of sigma(b_0) .. sigma(b_{n-2}) (one list,
    changed between yields) and last the admitted images of b_{n-1}.
    """
    b = ensure(budget)
    free = set(range(1, code.field.q ** code.length))
    span, diff = {0}, {0}
    imgs: list = []
    batches = 0

    def admitted(depth: int) -> list:
        if depth < len(fixed):
            return [fixed[depth]]
        pool = free.difference(span)
        if target is not None:
            pool.difference_update(code.shift(diff, target[depth]))
        return sorted(pool)

    def rec(depth: int):
        nonlocal batches
        if depth == code.length - 1:
            b.check_clock("fixed-prefix enumeration", f"{batches} batches")
            batches += 1
            yield imgs, admitted(depth)
            return
        for c in admitted(depth):
            added, grown = code.extend(span, c), []
            if target is not None:
                d = code.sub(c, target[depth])
                if d not in diff:
                    grown = code.extend(diff, d)
            span.update(added)
            diff.update(grown)
            imgs.append(c)
            yield from rec(depth + 1)
            imgs.pop()
            span.difference_update(added)
            diff.difference_update(grown)

    return rec(0)


def _gl(spec: FieldSpec, n: int, budget: Budget | None):
    """GL(n, q) in Mat.index order: the prefix walk with no fixed images,
    the map (imgs, c) read as rows, of index vec_index(q^n, imgs) q^n + c."""
    return _prefix_walk(IndexCode(spec, n), [], None, budget)


def _fixing_walk(spec: FieldSpec, n: int, t: int, budget: Budget | None):
    """The prefix walk over the maps fixing e_1 .. e_t, without a target."""
    if not 1 <= t <= n:
        raise DomainError(f"need 1 <= t <= n, got t={t}")
    b = ensure(budget)
    b.check_items(m_qt(n, spec.q, t), "fixed-prefix enumeration")
    # the column code of e_j is q^(n - 1 - j)
    fixed = [spec.q ** (n - 1 - j) for j in range(t)]
    return _prefix_walk(IndexCode(spec, n), fixed, None, b)


def canonical_family(n: int, q: int, t: int,
                     budget: Budget | None = None) -> Family:
    """All invertible maps fixing e_1 .. e_t; its dual() is the row-side
    family, the transposes."""
    spec = field(q)
    # a map's column images are its transpose's rows
    rows = [head + c for imgs, last in _fixing_walk(spec, n, t, budget)
            for head in [vec_index(q ** n, imgs) * q ** n] for c in last]
    return Family(spec, n, n, transpose_indices(q, n, n, rows))


def canonical_family_size(n: int, q: int, t: int,
                          budget: Budget | None = None) -> int:
    """Member count by walking the enumeration, never materializing it."""
    return sum(len(last) for _, last in
               _fixing_walk(field(q), n, t, budget))


# --- field-cycle subgroup ----------------------------------------------------

def singer_cycle(n: int, q: int, budget: Budget | None = None) -> Family:
    """A cyclic subgroup of GL(n, q) of order q^n - 1 in which distinct
    members disagree on every nonzero vector.

    The space F_q^n is read as the degree-n field extension in the power
    basis of gf.least_irreducible; members are the matrices of
    multiplication by the powers of gf.first_generator over the elements in
    encoding order, the same searches that build F_{p^s} on F_p.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got n={n}")
    spec = field(q)
    order = q ** n - 1
    ensure(budget).check_items(order * order, "generator search")
    f = least_irreducible(spec, n)
    gen = first_generator((digits(e, q, n) for e in range(1, q ** n)),
                          _unit(n, 0), lambda a, b: poly_mulmod(spec, a, b, f), order)
    members, elt = [], _unit(n, 0)
    for _ in range(order):
        cols = [elt]
        while len(cols) < n:
            cols.append(poly_mod(spec, (0,) + cols[-1], f))
        members.append(Mat(spec, zip(*cols), n))
        elt = poly_mulmod(spec, elt, gen, f)
    if len({M.index() for M in members}) != order:
        raise InvariantViolated("Singer cycle powers are not distinct")
    return Family(spec, n, n, members)


# --- near-agreement derangement counts --------------------------------------

def fixed_prefix_dim(tau: Mat, t: int) -> int:
    """dim of {v in span(e_1 .. e_t) : tau v = v}; like prefix_meet_dim
    it reads only tau's first t columns, so an n x t block will do."""
    spec, n = tau.field, tau.n
    rows = tuple(tuple(spec.sub(tau.rows[i][j], 1 if i == j else 0)
                       for j in range(t)) for i in range(n))
    return t - rank(Mat(spec, rows, t))


def prefix_meet_dim(tau: Mat, t: int) -> int:
    """dim of span(e_1 .. e_t) cap tau span(e_1 .. e_t): t minus the rank
    of tau's first t columns below row t."""
    low = tuple(r[:t] for r in tau.rows[t:])
    return t - (rank(Mat(tau.field, low, t)) if low else 0)


def _check_tau(n: int, q: int, t: int, tau: Mat) -> int:
    """fixed_prefix_dim(tau, t), once tau is a valid target."""
    if tau.n != n or tau.m != n or tau.field.q != q:
        raise DomainError("tau must be a square matrix of the stated shape")
    if not 1 <= t <= n:
        raise DomainError(f"need 1 <= t <= n, got t={t}")
    if rank(tau) != n:
        raise PreconditionViolated("tau must be invertible")
    d = fixed_prefix_dim(tau, t)
    if d > t - 1:
        raise PreconditionViolated(
            "tau must not fix the whole of span(e_1 .. e_t)")
    return d


def derangement_enumerate(n: int, q: int, t: int, tau: Mat) -> int:
    """Exact count of prefix-fixing invertible maps whose agreement with
    tau has dimension exactly t - 1, in closed form.

    Write E = span(e_1 .. e_t), F = E cap Fix tau, of dimension d =
    fixed_prefix_dim(tau, t), and c = dim(E cap tau E) = dim(E cap
    tau^-1 E) = prefix_meet_dim(tau, t).  The count is

      H = sum_{k=t-1..n} (-1)^h q^(h(h-1)/2) [k, t-1]_q      (h = k - t + 1)
            sum_{j=0..min(d,k)} [d, j]_q m_qt(n, q, t+k-j)
              sum_{p=0..min(t-c, k-j)} [t-c, p]_q q^(p(c-j))
                  prod_{i<p} (q^(t-c) - q^i) avoid(n-j-p, 2t-c-j-p, k-j-p)

    where [a, b]_q is gaussian_binomial and avoid(N, s, r) is
    count_subspaces_avoiding(N, s, r, q), zero when r + s > N; a term
    with a zero avoid factor is skipped before m_qt is read, since only
    there does t + k - j exceed n.

    Derivation.  For a subspace K, g(K) counts the sigma that fix E and
    equal tau on K.  The partial map "identity on E, tau on K" is a
    well-defined injection on E + K iff K cap E and K cap tau^-1 E both lie
    in F; then g(K) = m_qt(n, q, dim(E + K)), its extensions to GL, and
    otherwise g(K) = 0.  Moebius inversion on the subspace lattice, with
    mu = (-1)^h q^(h(h-1)/2) across h dimensions, turns these counts of
    ker(sigma - tau) containing K into counts of ker(sigma - tau) = W;
    summing over every (t-1)-dimensional W inside a k-dimensional K gives
    the outer weight [k, t-1]_q.  The admissible K are then grouped three
    ways.  First by J = K cap F = K cap E, of dimension j: [d, j]_q
    choices, and dim(E + K) = t + k - j.  Then by P = (K/J) cap ((E +
    tau^-1 E)/J), of dimension p.  With E/J = I + A and tau^-1 E/J = I + B,
    where I = (E cap tau^-1 E)/J, P meets neither E/J nor tau^-1 E/J, so
    it is the graph of a map from a p-dimensional subspace of B into I + A
    whose part into A is injective: [t-c, p]_q q^(p(c-j)) prod_{i<p}
    (q^(t-c) - q^i) choices.  Last by K/J above P, a (k-j-p)-dimensional
    subspace of (V/J)/P meeting the (2t-c-j-p)-dimensional image of E +
    tau^-1 E trivially: the avoid factor.  Nothing is enumerated, so the
    cost is O(n t^2) integer terms.
    """
    d = _check_tau(n, q, t, tau)
    return _class_count(n, q, t, prefix_meet_dim(tau, t), d)


@lru_cache(maxsize=None)
def _class_count(n: int, q: int, t: int, c: int, d: int) -> int:
    """derangement_enumerate's closed form for every tau of class (c, d)."""
    a = t - c
    total = 0
    for k in range(t - 1, n + 1):
        h = k - t + 1
        inner = 0
        for j in range(min(d, k) + 1):
            for p in range(min(a, k - j) + 1):
                if k + t + a - j - p > n:
                    continue
                graphs = (gaussian_binomial(a, p, q) * q ** (p * (c - j))
                          * _frames(q, a, 0, p))
                inner += (gaussian_binomial(d, j, q) * m_qt(n, q, t + k - j)
                          * graphs * count_subspaces_avoiding(
                              n - j - p, t + a - j - p, k - j - p, q))
        total += ((-1) ** h * q ** (h * (h - 1) // 2)
                  * gaussian_binomial(k, t - 1, q) * inner)
    return total


def derangement_bound(n: int, q: int, t: int, d: int) -> Fraction:
    """Lower bound on the near-agreement count: a quarter of the number
    of admissible seed subspaces times the guaranteed image choices."""
    if not 0 <= d <= t - 1:
        raise DomainError(f"need 0 <= d <= t - 1, got d={d}")
    prod = gaussian_binomial(n, t - d - 1, q)
    for i in range(2 * t - d, n + 1):
        prod *= q ** n - q ** (i - 1) - q ** (i - t)
    return Fraction(prod, 4)


def derangement_ratio_chain(n: int, q: int, t: int, d: int) -> dict:
    """Exact evaluation of the chain bounding four times the count over
    the prefix-fixing family size from below by a positive constant."""
    if t < 2:
        raise DomainError("the chain argument needs t >= 2")
    if 3 * t > n:
        raise DomainError("the chain argument needs 3t <= n")
    if not 0 <= d <= t - 1:
        raise DomainError(f"need 0 <= d <= t - 1, got d={d}")
    m = m_qt(n, q, t)
    small = gl_order(t - d - 1, q)
    num = _frames(q, n, 0, t - d - 1)
    for i in range(2 * t - d, n + 1):
        num *= q ** n - q ** (i - 1) - q ** (i - t)
    lhs_ratio = Fraction(num, m)
    tail = Fraction(1)
    for j in range(1, n - 2 * t + d + 2):
        tail *= 1 - Fraction(1, q ** j)
    rep = {
        "n": n, "q": q, "t": t, "d": d,
        "ratio_over_size": lhs_ratio,
        "small_denominator": small,
        "small_cap": q ** ((t - 1) ** 2),
        "tail_product": tail,
        "identity": 4 * derangement_bound(n, q, t, d) / m
                    == lhs_ratio / small,
        "holds": (small <= q ** ((t - 1) ** 2)
                  and lhs_ratio >= tail
                  and tail > Fraction(1, 4)),
    }
    return rep


# --- constructive near-agreement process ------------------------------------

def _seed_walks(n: int, q: int, t: int, tau: Mat, budget: Budget | None):
    """(basis, walk) per admissible seed W, a (t - d - 1)-dimensional
    subspace meeting E + tau^-1 E trivially, E the prefix span.  The basis,
    as vec_index codes, is e_1 .. e_t, W's rows, then unit vectors
    completing it; the walk fixes the images e_1 .. e_t, tau(W) and targets
    tau.  The prefix's differences span (1 - tau)E, of dimension t - d, and
    every later difference is independent, so each map has dim ker(sigma -
    tau) = t - 1.  Leaves are distinct maps whenever d = 0 (the agreement
    space recovers the seed) or the seed is unique.  E + tau^-1 E is a
    member set, E grown by each vector tau sends into E."""
    d = _check_tau(n, q, t, tau)
    if 3 * t > n:
        raise PreconditionViolated("the construction needs 3t <= n")
    spec = field(q)
    code = IndexCode(spec, n)
    # the code of e_j is q^(n - 1 - j); E's members end in n - t zero digits
    units = [q ** (n - 1 - j) for j in range(n)]
    low = q ** (n - t)
    # entry v is the code of tau applied to the vector with code v
    act = span_indices(code, tuple(zip(*tau.rows)))
    prefix_sum = set(range(0, q ** n, low))
    for v, image in enumerate(act):
        if image % low == 0 and v not in prefix_sum:
            prefix_sum.update(code.extend(prefix_sum, v))
    for W in subspaces_of_dim(spec, n, t - d - 1):
        if not prefix_sum.isdisjoint(W.listing[1:]):
            continue
        # W misses E, so e_1 .. e_t and W's rows all enter the basis
        basis, span = [], {0}
        for v in units[:t] + [vec_index(q, r) for r in W.rows] + units:
            if v not in span:
                span.update(code.extend(span, v))
                basis.append(v)
        images = [act[v] for v in basis]
        fixed = basis[:t] + images[t:2 * t - d - 1]
        yield basis, _prefix_walk(code, fixed, images, budget)


def derangement_construct(n: int, q: int, t: int, tau: Mat,
                          budget: Budget | None = None) -> Iterator[Mat]:
    """Every map the constructive process can produce: identity on the
    prefix span, equal to tau on an admissible seed subspace, every later
    image admitted by the prefix walk's rule."""
    spec = field(q)
    code = IndexCode(spec, n)
    add, smul = code.add, code.smul
    vecs = [vec_from_index(q, n, v) for v in range(q ** n)]
    for basis, walk in _seed_walks(n, q, t, tau, budget):
        # entry vec_index(u) of the basis listing is sum_j u_j b_j, so the
        # entry holding e_k is column k of the inverse basis matrix binv
        listing = span_indices(code, [vecs[v] for v in basis])
        *head, tail = zip(*(vecs[listing.index(q ** (n - 1 - k))]
                            for k in range(n)))
        for imgs, last in walk:
            # column k of the map sending b_j to imgs[j] is
            # sum_j binv[j][k] imgs[j]; only the last term varies in a batch
            part = [0] * n
            for row, v in zip(head, imgs):
                part = [add(a, smul(x, v)) for a, x in zip(part, row)]
            for c in last:
                yield Mat(spec, zip(*(vecs[add(a, smul(x, c))]
                                      for a, x in zip(part, tail))), n)


def derangement_construct_count(n: int, q: int, t: int, tau: Mat,
                                budget: Budget | None = None) -> int:
    """Number of distinct maps derangement_construct yields."""
    return len({M.index() for M in derangement_construct(n, q, t, tau, budget)})


# --- maximality checks -------------------------------------------------------

def _common_agreement_ok(tables: ImageTables, members: Sequence[int],
                         t: int) -> bool:
    """Whether the members at these positions of the tables agree on a
    common t-space of one side.  They agree on a subspace, so exactly when
    at least [t, 1]_q listed vectors of that side, one per line, have a
    single image across the members."""
    return any(sum(len({images[i] for i in members}) == 1
                   for images in side[1:] if images is not None)
               >= gaussian_binomial(t, 1, tables.spec.q)
               for side in (tables.col, tables.row))


def verify_extremal_bound(n: int, q: int, t: int, mode: str,
                          budget: Budget | None = None) -> dict:
    """Stress the prefix-fixing family's optimality claim at one point.

    exhaustive: exact maximum family avoiding agreement dimension t - 1
    inside GL, against the prefix-fixing size, searched on graph_bitsets'
    agreement graph induced on GL; every optimum must carry a
    t-dimensional common-agreement subspace on one side or the other,
    read off the image tables of GL (_common_agreement_ok).
    sample: no single map outside the prefix-fixing family can be added.
    The scan walks GL in index order (_gl); a map's class (c, d), and so
    whether it can join, depends only on its first t columns, read off its
    row codes: one Mat and one evaluation per block, none per scanned map.
    spectral: the ratio bound of the ambient walk operator, as context.
    Findings are exploratory: they are data at one small n, not the
    asymptotic statement.
    """
    if not 1 <= t <= n:
        raise DomainError(f"need 1 <= t <= n, got t={t}")
    b = ensure(budget)
    bound = m_qt(n, q, t)
    params = {"n": n, "q": q, "t": t, "mode": mode}
    if mode == "exhaustive":
        spec = field(q)
        order = gl_order(n, q)
        if order > 200:
            raise BudgetExceeded(f"exhaustive search capped near |GL| = 200, "
                                 f"got {order}")
        # sigma_1, sigma_2 agree on t - 1 dimensions iff rank(sigma_1 - sigma_2)
        # = n - t + 1: the graph on M(n, n) that spectral mode bounds, on GL;
        # it charges its N^2 bits before the walk lists the vertices
        full = graph_bitsets(q, n, n, t - 1, b)
        verts = [head + c for imgs, last in _gl(spec, n, b)
                 for head in [vec_index(q ** n, imgs) * q ** n] for c in last]
        adj = [sum(1 << j for j, v in enumerate(verts) if full[u] >> v & 1)
               for u in verts]
        optima = mis.all_maximum_independent_sets(adj, order, b)
        size = optima[0].bit_count()
        tables = ImageTables(spec, n, n, verts)
        normalized = all(_common_agreement_ok(tables, list(mis.bits_of(bs)), t)
                         for bs in optima)
        status = "exploratory" if size == bound and normalized else "violated"
        witness = [Mat.from_index(spec, n, n, verts[i]).to_literal()
                   for i in mis.bits_of(optima[0])]
        return _report("maximum family avoiding agreement dimension t-1 in "
                       "GL matches the prefix-fixing size", params, size,
                       bound, status, witness, optima=len(optima),
                       normalized=normalized)
    if mode == "sample":
        spec = field(q)
        # the scan is charged for the q^(n^2) matrices GL lies in
        b.check_items(q ** (n * n), "augmentation scan")
        # sigma's class (c, d) depends only on its first t columns: block
        # row j is the leading t digits of sigma's row j
        Q, low, Qt = q ** n, q ** (n - t), q ** t
        joins: dict = {}
        scanned, witness = 0, []
        maps = ((top + c // low, imgs, c) for imgs, last in _gl(spec, n, b)
                for top in [vec_index(Qt, [r // low for r in imgs]) * Qt]
                for c in last)
        for key, imgs, c in maps:
            if key not in joins:
                block = Mat.from_index(spec, n, t, key)
                d = fixed_prefix_dim(block, t)
                # None when sigma fixes e_1 .. e_t, a member; otherwise sigma
                # can join unless some member meets it in t - 1 dimensions
                joins[key] = None if d == t else _class_count(
                    n, q, t, prefix_meet_dim(block, t), d) == 0
            scanned += joins[key] is not None
            if joins[key]:
                i = vec_index(Q, imgs) * Q + c
                witness = [Mat.from_index(spec, n, n, i).to_literal()]
                break
        return _report("no single map outside the prefix-fixing family can "
                       "be added", params, scanned, bound,
                       "violated" if witness else "exploratory", witness)
    if mode == "spectral":
        S = spectrum(q, n, n, t - 1, b)
        h = hoffman_bound(S)
        measure = Fraction(bound, q ** (n * n))
        return _report("ratio bound of the ambient agreement walk, for "
                       "context", params, measure, h, "exploratory",
                       consistent=measure <= h)
    raise DomainError(f"unknown mode {mode!r}")


def sl_family(n: int, q: int, t: int,
              budget: Budget | None = None) -> tuple[Family, dict]:
    """The prefix-fixing family cut down to determinant one."""
    spec = field(q)
    members = [M for M in canonical_family(n, q, t, budget=budget).members
               if M.det_val() == 1]
    total = m_qt(n, q, t)
    # a free column makes det onto F_q^*; at t = n the family is {I}
    classes = q - 1 if t < n else 1
    if total % classes:
        raise InvariantViolated(f"q - 1 = {q - 1} does not divide m_qt = {total}")
    expected = total // classes
    fam = Family(spec, n, n, members)
    return fam, _report("prefix-fixing determinant-one family size",
                        {"n": n, "q": q, "t": t}, len(members), expected,
                        "confirmed" if len(members) == expected else "violated")


def report_to_json(rep: dict) -> str:
    return json.dumps(rep)
