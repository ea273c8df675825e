"""Desk-scale regularity oracle for binomial edge ideals.

The quotient by the binomial edge ideal of a graph on n vertices lives
in 2n variables x_0..x_{n-1}, y_0..y_{n-1} (variable index i is x_i,
n+i is y_i).  Under the lexicographic order x_0 > ... > x_{n-1} > y_0 >
... > y_{n-1} the initial ideal is squarefree, and its minimal
generators are one monomial per admissible path (Herzog-Hibi-
Hreinsdottir-Kahle-Rauh 2010, Thm 3.2).  An admissible path from i to
j (i < j) is label-valid, each interior vertex being < i or > j, and
has no chord.  It contributes
x_i * y_j * prod(x_k for interior k > j) * prod(y_k for interior k < i).
Regularity transfers across this squarefree degeneration; that single
external fact is the oracle's one trust point, and the acceptance suite
stress-tests it against independently known values.

Regularity of the squarefree monomial ideal is then read off reduced
simplicial homology of induced subcomplexes of its Stanley-Reisner
complex: reg = max(t + 1) over vertex subsets W and degrees t with
nonzero reduced homology of the restriction to W.  A subset is ranked
only if it passes two tests.  It is an element of the LCM lattice (a
union of generators, Gasharov-Peeva-Welker), since any other subset has
a cone vertex.  And its complex has no dominated vertex, since deleting
one is a strong collapse (Barmak-Minian) that keeps the homology in
every field and leads to a smaller subset the scan reaches anyway.  The
witness is therefore the first domination-free lattice element, by
descending size and then ascending variable tuple, that attains the
value.  Some pairs (u, v) fail the second test in every union that
holds both, whatever else it holds: u dominates v there.  The lattice
is grown only from unions with no such forbidden pair; every sub-union
of such a union is one too, so the growth still reaches each of them,
and the domination-free elements, and so every value and witness, are
those of the whole lattice.  Every face misses a variable of each
generator, so an element W holding k pairwise disjoint generators gives
at most |W| - k.  The scan packs the generators inside W greedily and
builds no face of W when that cap does not beat every field's best
value: W could then raise none of them, so no value or witness moves.
Homology is computed exactly over GF(2)
and GF(3) via boundary-matrix ranks on Python-int rows (bitmasks for
GF(2), bit-sliced (pos, neg) pairs for GF(3); see ``rank_modp``); the
two fields must agree or an error is raised.  The scan computes only the
ranks it needs: per field it walks the degrees of a subset from the top
down, stops at the first nonzero one, and never goes below the field's
best value so far, since lower degrees cannot raise it.
``homology_dims`` still computes every degree of any subset.

Disconnected graphs are handled per ``Graph.component_subgraphs`` (the
quotient is a tensor product over disjoint variable sets, so regularity
adds and witnesses join), which keeps the per-scan variable count at
2 * (component size).

The sweeps (``bound_chain``, ``verify chain --with-reg`` and ``verify
recursion``) need the value alone and read it from ``_reg_cached``, the
one cache of reg values, keyed by the int of a labelled graph
(``graphs.rows_key``).  A disconnected miss sums its components'
entries, and a connected one on at most ``CANONICAL_MAX_N`` vertices
relabels once to read the class entry of its canonical labelling
(``graphs.canonical_rows``), keyed by that labelling's negated key, so
each isomorphism class is scanned once.  ``regularity_bei`` and the
witnesses that ``reg`` and ``invariants --with-reg`` report stay on the
caller's labelling, uncached: the initial ideal depends on the vertex
order, so a relabelling keeps the value but changes the witness.

The vertex count does not predict the cost, so each call of the
admissible-path walk and of the scan counts its work (a stack pop; an
element of the pruned lattice or a face built) and raises
ResourceLimitError, naming the stage, past ``SCAN_BUDGET`` units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import FieldDisagreementError, ResourceLimitError
from .graphs import CACHE_SIZE, Graph, bits, canonical_rows, key_rows, relabel, rows_key
from .rank_modp import _is_prime, rank_gf2, rank_gf3, rank_modp

# Work units per call: steps of one admissible-path walk, or elements of
# the pruned lattice plus faces built in one scan.
SCAN_BUDGET = 600_000
FIELDS = (2, 3)  # regularity_bei computes over both and requires agreement
# ``_reg_cached`` scans a component on at most this many vertices
# in its canonical labelling, and a larger one in its own.  No labelling
# of a graph this small comes near ``SCAN_BUDGET`` (the most seen is
# 2,852 units over every labeled graph with n = 6, and 16,985 over 12
# labellings of each connected 7-vertex class), so the canonical scan
# passes the budget exactly where the labelled one would.
CANONICAL_MAX_N = 7


# -- squarefree monomial ideals -------------------------------------------


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Minimal squarefree monomial generators, as variable bitmasks."""

    num_vars: int
    gens: tuple[int, ...]

    def supports(self) -> list[tuple[int, ...]]:
        return [tuple(bits(m)) for m in self.gens]


def _variable_mask(indices: Iterable[int], num_vars: int) -> int:
    """Bitmask of variable indices, each checked to lie in 0..num_vars-1."""
    mask = 0
    for v in indices:
        if not 0 <= v < num_vars:
            raise ValueError(f"variable index {v} out of range")
        mask |= 1 << v
    return mask


def variable_name(idx: int, n: int) -> str:
    return f"x{idx}" if idx < n else f"y{idx - n}"


# -- initial ideal of the binomial edge ideal ------------------------------


def initial_ideal(g: Graph) -> SquarefreeIdeal:
    """Squarefree initial ideal of the binomial edge ideal of g.

    Its minimal generators are the monomials of the admissible paths,
    one per path (Herzog-Hibi-Hreinsdottir-Kahle-Rauh 2010, Thm 3.2):
    the label-valid paths with no chord.  A depth-first walk from each
    i toward each j > i steps only to a vertex that the label rule
    allows, that is adjacent to the path's end and to none of its
    earlier vertices (``blocked`` holds their closed neighbourhoods),
    and stops at the first vertex adjacent to j, so it closes each
    admissible path once.  Each stack pop is one step, and past
    ``SCAN_BUDGET`` steps it raises ResourceLimitError.
    """
    n, adj = g.n, g.adj
    gens = []
    steps = 0
    for i in range(n):
        low = (1 << i) - 1  # vertices < i
        for j in range(i + 1, n):
            high = g.full_mask() >> (j + 1) << (j + 1)  # vertices > j
            stack = [(i, 0, 0)]  # (path end, blocked, interior)
            while stack:
                steps += 1
                if steps > SCAN_BUDGET:
                    raise ResourceLimitError(f"admissible-path walk exceeded {SCAN_BUDGET} steps")
                cur, blocked, interior = stack.pop()
                if adj[cur] >> j & 1:
                    gens.append(1 << i | 1 << (n + j) | interior & high | (interior & low) << n)
                    continue
                for nxt in bits(adj[cur] & (low | high) & ~blocked):
                    stack.append((nxt, blocked | adj[cur] | 1 << cur, interior | 1 << nxt))
    return SquarefreeIdeal(2 * n, tuple(sorted(gens)))


# -- induced subcomplex homology -------------------------------------------


def _scan_over_budget() -> ResourceLimitError:
    return ResourceLimitError(f"lattice scan exceeded {SCAN_BUDGET} work units")


def _faces_by_size(gens: Iterable[int], wmask: int, room: float = float("inf")) -> list[list[int]]:
    """Faces of the complex restricted to ``wmask``, relabeled onto 0..k-1.

    Returns lists of face bitmasks grouped by face size (index 0 holds
    the empty face).  A face of size s + 1 extends a face of size s by a
    vertex above its top vertex, so each face is built once, and only
    the generators through that vertex can block it.  Past ``room``
    faces, the empty face included, it raises ResourceLimitError; the
    check runs once per face size.
    """
    k = wmask.bit_count()
    local_gens = relabel([g for g in gens if g & ~wmask == 0], wmask)
    through = [[g for g in local_gens if g >> v & 1] for v in range(k)]
    by_size = []
    level = [0]
    while level:
        room -= len(level)
        if room < 0:
            raise _scan_over_budget()
        by_size.append(level)
        level = []
        for f in by_size[-1]:
            for v in range(f.bit_length(), k):
                h = f | 1 << v
                for g in through[v]:
                    if g & h == g:
                        break
                else:
                    level.append(h)
    return by_size


def _boundary_ranks(by_size: list[list[int]], s: int, fields: tuple[int, ...]) -> dict[int, int]:
    """Rank of the boundary map (size-s faces -> size-(s-1) faces) per field.

    One pass over the face bits builds each row as a bit-sliced
    ``(pos, neg)`` pair: dropping the i-th vertex of a face (ascending,
    from 0) gives a column with sign (-1)^i.  The GF(2) row is
    ``pos | neg``.
    """
    col = {m: c for c, m in enumerate(by_size[s - 1])}
    pairs = []
    for f in by_size[s]:
        pos = neg = 0
        plus = True
        rest = f
        while rest:
            low = rest & -rest
            if plus:
                pos |= 1 << col[f ^ low]
            else:
                neg |= 1 << col[f ^ low]
            plus = not plus
            rest ^= low
        pairs.append((pos, neg))
    ranks = {}
    for p in fields:
        if p == 2:
            ranks[p] = rank_gf2([pos | neg for pos, neg in pairs])
        elif p == 3:
            ranks[p] = rank_gf3(pairs)
        else:
            width = range(len(col))
            ranks[p] = rank_modp(
                [[(pos >> c & 1) - (neg >> c & 1) for c in width] for pos, neg in pairs], p
            )
    return ranks


def _reduced_homology(by_size: list[list[int]], p: int) -> dict[int, int]:
    """Reduced homology dimensions {degree t: dim} over GF(p), t from -1."""
    ranks = [0] + [_boundary_ranks(by_size, s, (p,))[p] for s in range(1, len(by_size))] + [0]
    return {s - 1: len(faces) - ranks[s] - ranks[s + 1] for s, faces in enumerate(by_size)}


def homology_dims(ideal: SquarefreeIdeal, w: Iterable[int], p: int) -> dict[int, int]:
    """Reduced homology dimensions of the Stanley-Reisner complex of
    ``ideal`` restricted to the variable subset ``w``, over GF(p).

    Keys run from -1 (the empty complex {()} reports dimension 1 there)
    to the dimension of the restricted complex.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    wmask = _variable_mask(w, ideal.num_vars)
    return _reduced_homology(_faces_by_size(ideal.gens, wmask), p)


# -- regularity of squarefree ideals ---------------------------------------


def _lcm_lattice(gens: tuple[int, ...], forb: list[int]) -> set[int]:
    """Nonempty unions of generators that hold no forbidden pair (u, v),
    that is v in ``forb[u]``, unordered.

    Every sub-union of such a clean union is clean, so growing the set
    one generator at a time (the largest first) and adding ``x | g``
    only when it is clean still reaches every clean union.  Past
    ``SCAN_BUDGET`` of them it raises ResourceLimitError before the set
    takes them in."""
    lattice = {0}
    for g in sorted(gens, key=int.bit_count, reverse=True):
        fg = 0
        for u in bits(g):
            fg |= forb[u]
        if fg & g:
            continue
        new = {x | g for x in lattice if not x & fg}
        if len(lattice) + len(new) - 1 > SCAN_BUDGET:
            new -= lattice  # only when the sizes alone do not settle it
            if len(lattice) + len(new) - 1 > SCAN_BUDGET:
                raise _scan_over_budget()
        lattice |= new
    lattice.discard(0)
    return lattice


def _domination_table(
    gens: tuple[int, ...], nv: int
) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Per variable u, a pair (g, d) for each generator g holding u, and
    the forbidden masks ``forb``.

    ``d`` holds the variables v outside g for which some generator h
    holds v with h - v inside g - u: the one variable outside g of each
    generator h that has just one and misses u.  Such an h lies in every
    subset that holds g and v, so ``d`` does not depend on the subset.
    The AND of u's ``d`` over every generator through u, its ``sure`` mask,
    holds the v that u dominates in every union holding both, since the
    generators of the union through u are among them.  ``forb[u]`` holds
    the v with v in u's ``sure`` mask or u in v's, so a union holding u
    and v has a dominated vertex, as does every union above it.
    """
    table: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for g in gens:
        near = []  # (h, v) for each h with h - g = {v}
        for h in gens:
            extra = h & ~g
            if extra and extra & (extra - 1) == 0:
                near.append((h, extra))
        for u in bits(g):
            d = 0
            for h, extra in near:
                if not h >> u & 1:
                    d |= extra
            table[u].append((g, d))
    forb = [0] * nv
    for u, row in enumerate(table):
        sure = row[0][1] if row else 0
        for _, d in row:
            sure &= d
        forb[u] |= sure
        for v in bits(sure):
            forb[v] |= 1 << u
    return table, forb


def _has_dominated_vertex(wmask: int, table: list[list[tuple[int, int]]]) -> bool:
    """Whether some v in the lattice element W is dominated by some u.

    v is dominated by u when no generator inside W holds both, and for
    every generator g inside W that holds u, some generator h holds v
    with h - v inside g - u: then every face through v stays a face when
    u is added.  Per u, the candidates v start as W and are cut down by
    the ``d`` of each contained g through u, which also drops u itself.
    """
    rest = wmask
    while rest:
        low = rest & -rest
        rest ^= low
        cand = wmask
        for g, d in table[low.bit_length() - 1]:
            if g & ~wmask == 0:
                cand &= d
                if not cand:
                    break
        else:
            return True
    return False


def _survivors(ideal: SquarefreeIdeal) -> tuple[list[int], int]:
    """The domination-free lattice elements in scan order, by descending
    size and then ascending variable tuple, and the lattice size."""
    table, forb = _domination_table(ideal.gens, ideal.num_vars)
    lattice = _lcm_lattice(ideal.gens, forb)
    survivors = sorted(
        (w for w in lattice if not _has_dominated_vertex(w, table)),
        key=lambda w: (-w.bit_count(), list(bits(w))),
    )
    return survivors, len(lattice)


def _face_size_cap(gens: tuple[int, ...], wmask: int) -> int:
    """|W| - k, for the k generators inside W packed greedily, in order,
    into a pairwise disjoint set.  Every face misses a variable of each,
    so no face of the complex restricted to W has more variables."""
    cap = wmask.bit_count()
    packed = 0
    for g in gens:
        if not (g & ~wmask or g & packed):
            packed |= g
            cap -= 1
    return cap


def _scan_ideal(ideal: SquarefreeIdeal, fields: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Max (t+1) over induced subcomplexes, per field.

    Returns {field: (value, witness_mask)}; the witness degree is
    value - 1, and (0, 0) is the zero result.  Only the LCM-lattice
    elements W (unions of generators) are candidates: any other subset
    has a vertex in no contained generator, a cone apex, so its complex
    is acyclic.  An element whose complex has a dominated vertex v is
    dropped before ordering: deleting v is a strong collapse onto the
    complex of W - v (Barmak-Minian), which has the same homology in
    every field, and W - v (or the smaller element it reduces to) is
    ranked instead with the same value.  The lattice holds only the
    unions with no forbidden pair (``_domination_table``), which drops
    only elements with a dominated vertex.  The rest go by descending
    size, then ascending variable tuple, and an element of size s cannot
    beat a value of s - 1, which bounds the scan.  Nor can an element W
    beat |W| - k, for k generators inside it packed pairwise disjoint
    (``_face_size_cap``), since each face misses a variable of every one
    of them: W is skipped, before its faces are built, when that cap is
    at most the least value over the fields.  A skipped W could not
    strictly raise any field's value, so the values and witnesses are
    those of the scan without the cap, whose size bound is its k = 1
    case.  The witness is the first domination-free element that
    attains the value.  Past
    ``SCAN_BUDGET`` elements of the pruned lattice plus faces built it
    raises ResourceLimitError.
    """
    best = dict.fromkeys(fields, (0, 0))
    gens = ideal.gens
    survivors, used = _survivors(ideal)
    floor = 0  # the least value over the fields
    for wmask in survivors:
        if wmask.bit_count() - 1 <= floor:
            break
        if _face_size_cap(gens, wmask) <= floor:
            continue
        by_size = _faces_by_size(gens, wmask, SCAN_BUDGET - used)
        used += sum(map(len, by_size))
        # H~_{s-1} = |F_s| - r_s - r_{s+1} can raise a field's value
        # only for s above its best, so walk down from the top face
        # size, one new rank per step, to the first nonzero degree.
        live = fields
        r_above = dict.fromkeys(fields, 0)
        for s in range(len(by_size) - 1, 0, -1):
            live = tuple(p for p in live if s > best[p][0])
            if not live:
                break
            r_here = _boundary_ranks(by_size, s, live)
            for p in live:
                if len(by_size[s]) > r_here[p] + r_above[p]:
                    best[p] = (s, wmask)
            r_above = r_here
        floor = min(b[0] for b in best.values())
    return best


def regularity_squarefree(ideal: SquarefreeIdeal, p: int) -> "RegularityResult":
    """Regularity of the quotient by a squarefree monomial ideal over GF(p);
    the scan is exponential, so past ``SCAN_BUDGET`` work units it raises
    ResourceLimitError."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    value, wmask = _scan_ideal(ideal, (p,))[p]
    return RegularityResult(value, frozenset(bits(wmask)), value - 1, (p,), True)


# -- regularity of binomial edge ideals ------------------------------------


@dataclass(frozen=True)
class RegularityResult:
    """Regularity value with a reproducible homology witness.

    ``witness_vars`` is a variable subset W and ``witness_degree`` a
    degree t with nonzero reduced homology of the induced subcomplex on
    W; value = t + 1.  The zero witness is (empty W, degree -1).
    """

    value: int
    witness_vars: frozenset[int]
    witness_degree: int
    fields_used: tuple[int, ...]
    agreement: bool


def require_field_agreement(values_by_prime: dict[int, int]) -> None:
    """Raise with every per-field value on disagreement; never pick one."""
    if len(set(values_by_prime.values())) > 1:
        raise FieldDisagreementError(values_by_prime)


def _component_regularity(g: Graph) -> tuple[int, int]:
    """(value, witness_mask) over ``FIELDS`` for a connected graph."""
    best = _scan_ideal(initial_ideal(g), FIELDS)
    require_field_agreement({p: best[p][0] for p in FIELDS})
    return best[FIELDS[0]]


def regularity_bei(g: Graph) -> RegularityResult:
    """Regularity of the quotient by the binomial edge ideal of g.

    Computed on each of ``g.component_subgraphs()`` (values add; witnesses
    join, mapped back to g's labels, with degrees t = sum(t_i + 1) - 1)
    over both fields of ``FIELDS``, which must agree.  ``SCAN_BUDGET``
    applies to the walk and to the scan of each component.
    """
    total = 0
    witness: set[int] = set()
    for sub, back in g.component_subgraphs():
        value, wmask = _component_regularity(sub)
        total += value
        for v in bits(wmask):
            witness.add(back[v] if v < sub.n else g.n + back[v - sub.n])
    return RegularityResult(total, frozenset(witness), total - 1, FIELDS, True)


@lru_cache(maxsize=CACHE_SIZE)
def _reg_cached(key: int) -> int:
    """The one cache of reg values, keyed by :func:`graphs.rows_key`, or
    by -k for the class entry of the canonical labelling whose key is k,
    which scans that graph at once.  A disconnected miss sums the
    entries of ``Graph.component_subgraphs``; a connected one on at most
    ``CANONICAL_MAX_N`` vertices reads the class entry of its canonical
    labelling, so each isomorphism class is scanned once, and any other
    scans its own labelling.  A miss past ``SCAN_BUDGET`` raises, and
    ``lru_cache`` stores no exception, so a skip is not cached."""
    adj = key_rows(abs(key))
    g = Graph(len(adj), adj)
    if key > 0:
        subs = g.component_subgraphs()
        if len(subs) != 1:  # the empty graph has none, and reg 0
            return sum([_reg_cached(rows_key(sub.adj)) for sub, _ in subs])
        if g.n <= CANONICAL_MAX_N:
            return _reg_cached(-rows_key(canonical_rows(adj)))
    return _component_regularity(g)[0]
