"""Equivariant minimal model program for smooth complete toric surfaces.

A contraction step removes one group orbit of rays whose divisors all have
self-intersection -1 and are pairwise non-adjacent: ``fan._blow_down`` of
the ray cycle and its word.  ``contract`` builds the graph of every sequence
of steps to a fan where no orbit qualifies, labelled as a terminal model;
``traces`` and ``terminal_counts`` read it.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Any, Iterator

from .errors import PreconditionError
from .fan import Fan, _blow_down, _smooth_word
from .intlin import Vector
from .record import Record
from .symmetry import GroupAction, ray_orbits

MAX_TRACES = 100_000  # explore-all refuses a root with more contraction paths than this


def self_intersection_profile(fan: Fan) -> tuple[int, ...]:
    """The word a_i of a smooth complete surface fan, with v_{i-1} + v_{i+1}
    = a_i v_i in cyclic order; the boundary divisor of ray i has
    self-intersection -a_i."""
    return _smooth_word(fan, "the self-intersection profile")


class TerminalLabel(Record):
    """Terminal classification: P2, P1xP1, DP6Terminal, Hirzebruch(a), Other."""

    __slots__ = ("kind", "parameter")

    def __init__(self, kind: str, parameter: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parameter", parameter)

    def __str__(self) -> str:
        return f"{self.kind}({self.parameter})" if self.parameter is not None else self.kind


P2 = TerminalLabel("P2")
P1XP1 = TerminalLabel("P1xP1")
DP6_TERMINAL = TerminalLabel("DP6Terminal")
OTHER = TerminalLabel("Other")


def _label(word: tuple[int, ...]) -> TerminalLabel:
    """The label of the smooth complete surface fan with word a_i, which
    fixes it up to GL2(Z) (Oda 1.6): with 3 rays it is P2, with 4 rays F_a
    for a = max |a_i| (the word is (0, -a, 0, a) up to rotation), and with
    6 rays and every a_i = 1 the degree-6 del Pezzo hexagon."""
    d = len(word)
    if d == 3:
        return P2
    if d == 4:
        a = max(abs(x) for x in word)
        return TerminalLabel("Hirzebruch", a) if a else P1XP1
    return DP6_TERMINAL if word == (1,) * 6 else OTHER


# A fan's node in the contraction graph: its number of paths to a terminal
# model, its ray cycle, then its label if it is terminal, or else its
# (orbit, child) edges in orbit order.
_Node = tuple[int, tuple[Vector, ...], "TerminalLabel | tuple[tuple[tuple[int, ...], _Node], ...]"]


def _explore(cycle: tuple[Vector, ...], word: tuple[int, ...], at: tuple[int, ...], left, first_only, graph) -> _Node:
    """The node of the fan on ``cycle``, whose word is ``word`` and whose rays'
    root orbits, numbered by least ray, are ``at``, built with every node below
    it that ``graph`` does not hold yet; first-only keeps only the first edge.
    ``graph`` keys a fan by ``left``, the bitmask of the orbits that remain."""
    members: dict[int, list[int]] = {}
    for i in compress(range(len(word)), map((1).__eq__, word)):  # the (-1)-rays
        members.setdefault(at[i], []).append(i)
    # A group element carries a ray and its neighbours to a ray and its
    # neighbours, so a_i is constant on an orbit: an orbit with a (-1)-ray
    # has only (-1)-rays, and it qualifies if none follows one of its own.
    orbits = [(k, tuple(m)) for k, m in sorted(members.items()) if all(at[i - 1] != k for i in m)]
    if not orbits:
        node = (1, cycle, _label(word))
    else:
        edges = tuple(
            (orbit, graph.get(key := left & ~(1 << k))
             or _explore(*_blow_down(cycle, word, at, orbit), key, first_only, graph))
            for k, orbit in (orbits[:1] if first_only else orbits)
        )
        node = (sum(child[0] for _, child in edges), cycle, edges)
        if node[0] > MAX_TRACES:  # no fan reached has more paths than the root
            raise PreconditionError("too-many-branches", f"explore-all has more than {MAX_TRACES} traces")
    graph[left] = node
    return node


def contract(fan: Fan, action: GroupAction, first_only: bool) -> _Node:
    """The root of the contraction graph of ``fan`` under ``action``: every
    run of the equivariant contraction loop to a terminal model.

    The edges out of a fan are its qualifying orbits, ordered by their least
    ray vector, and a fan with none is terminal and labelled.  Each path from
    the root is a trace, and the root's ``[0]`` is their number; depth
    first, they are explore-all's traces in order.  ``first_only`` keeps
    only the first edge out of each fan, which leaves the one path that
    contracts, at each stage, the orbit holding the least ray vector: the
    first trace of explore-all.

    Only the input fan is checked, on its ``word``: removing a (-1)-ray i
    leaves the cone (v_{i-1}, v_{i+1}) of determinant a_i = 1 and lowers
    a_{i-1} and a_{i+1} by 1, so each fan below is smooth, complete and
    given its word by its parent, and a terminal is labelled from its word.
    A contraction cuts a whole orbit out of the stored ray cycle, so the
    rays of every fan below the root are a G-invariant subset and its
    orbits are the root's orbits that remain: the orbits are taken once, at
    the root, and a fan below is keyed by the root orbits it keeps.  So each
    distinct fan reached is one node, blown down to, contracted and labelled
    once per call.  The traces grow exponentially with the ray count, so the
    paths are counted as the graph is built, and it is refused
    (``too-many-branches``) exactly when the root has more than
    ``MAX_TRACES``.  No fan has more paths than the root, so the first fan
    past the bound refuses, before the rest is explored.

    ``traces`` walks the graph one trace at a time, and the ``mmp`` command
    streams each trace's text from it (``fanio.traces_text``), so the
    memory of either is the graph, one path and what is made of it.
    """
    word = _smooth_word(fan, "the equivariant contraction loop")
    if action.fan != fan:
        raise PreconditionError("action-fan", "action was built for a different fan")
    orbits = sorted(ray_orbits(action), key=lambda orbit: min(map(fan.rays.__getitem__, orbit)))
    orbit_of = {i: k for k, orbit in enumerate(orbits) for i in orbit}
    at = tuple(map(orbit_of.get, range(fan.ray_count)))
    return _explore(fan.rays, word, at, (1 << len(orbits)) - 1, first_only, {})


def terminal_counts(root: _Node, memo: dict[int, Counter] | None = None) -> Counter:
    """The number of paths from ``root`` to each terminal fan below it, keyed
    by (cycle, label): a terminal's own, or the sum of its children's.
    ``memo`` holds the counts of the nodes already reached."""
    memo = {} if memo is None else memo
    counts = memo.get(id(root))
    if counts is None:
        _, cycle, below = root
        if isinstance(below, TerminalLabel):
            counts = Counter({(cycle, below): 1})
        else:
            counts = sum((terminal_counts(child, memo) for _, child in below), Counter())
        memo[id(root)] = counts
    return counts


def _paths(root: _Node, terminal, edges, extend, empty):
    """Depth first, each path from ``root`` to a terminal model: the
    terminal's parts, and the path's edges folded from ``empty`` by
    ``extend(path, depth, edge_part)``.  Once per distinct fan on ``cycle``,
    ``terminal(cycle, label)`` gives a terminal's parts, and ``edges(cycle,
    orbits)`` the part of each edge out of any other fan, in orbit order."""
    made: dict[int, Any] = {}
    stack = [(root, empty, 0)]
    while stack:
        node, path, depth = stack.pop()
        _, cycle, below = node
        got = made.get(id(node))
        if isinstance(below, TerminalLabel):
            if got is None:
                got = made[id(node)] = terminal(cycle, below)
            yield got, path
        else:
            if got is None:  # (child, part) pairs, last first, as the stack pops them
                parts = edges(cycle, [orbit for orbit, _ in below])
                got = made[id(node)] = [(child, part) for (_, child), part in zip(below, parts)][::-1]
            stack += [(child, extend(path, depth, part), depth + 1) for child, part in got]


def traces(root: _Node) -> Iterator[tuple[tuple, tuple[Vector, ...], TerminalLabel]]:
    """Each trace below ``root``, depth first, as it is reached: its steps,
    each a (cycle, orbit) pair of a fan's ray cycle and the orbit contracted
    there, then its terminal's cycle and label.  Each step is one tuple,
    made once per edge and shared by every trace through it."""

    def edges(cycle, orbits):
        return [(cycle, orbit) for orbit in orbits]

    def extend(steps, depth, step):
        return steps + (step,)

    for (cycle, label), steps in _paths(root, lambda cycle, label: (cycle, label), edges, extend, ()):
        yield steps, cycle, label


def check_adjacent_minus_one_rule(fan: Fan) -> tuple[tuple[int, int], ...]:
    """Verify outer-neighbor opposition at every adjacent (-1)-pair; the pairs (i, i+1) verified.

    For adjacent (-1)-rays i, i+1 the outer neighbors ``fan.rays[i-1]`` and
    ``fan.rays[i+2]`` must be negatives: on a smooth fan v_{i-1} + v_{i+1} = v_i
    and v_i + v_{i+2} = v_{i+1}, so v_{i-1} + v_{i+2} = 0, and it fails only if
    the word disagrees with the rays.
    """
    word, d, pairs = self_intersection_profile(fan), fan.ray_count, []
    for i in range(d):
        j = (i + 1) % d
        if word[i] == word[j] == 1:
            if tuple(a + b for a, b in zip(fan.rays[i - 1], fan.rays[(j + 1) % d])) != (0,) * fan.rank:
                raise AssertionError(f"outer neighbors of adjacent (-1)-rays {i},{j} do not oppose")
            pairs.append((i, j))
    return tuple(pairs)
