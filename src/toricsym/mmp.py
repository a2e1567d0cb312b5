"""Equivariant minimal model program for smooth complete toric surfaces.

A contraction step removes one group orbit of rays whose divisors all have
self-intersection -1 and are pairwise non-adjacent, a local update of the
ray cycle and its word a_i.  ``contract`` builds the graph of every
sequence of steps to a fan where no orbit qualifies, labelled as a terminal
model; ``traces`` and ``terminal_counts`` read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator

from .errors import PreconditionError
from .fan import Fan, _cross, _cycle_dets, _cycle_winds_once
from .intlin import Vector
from .symmetry import GroupAction, ray_orbits

MAX_TRACES = 100_000  # explore-all refuses a root with more contraction paths than this


def _require_smooth_complete_surface(fan: Fan, who: str) -> None:
    if fan.rank != 2:
        raise PreconditionError("rank", f"{who} needs a surface fan (rank 2)")
    dets = _cycle_dets(fan.rays)
    if len(dets) < 3 or any(b <= 0 for b in dets):
        raise PreconditionError("incomplete", f"{who} needs a complete fan")
    if not _cycle_winds_once(fan.rays):
        raise PreconditionError("overlapping-cones", f"{who} needs a ray cycle that winds once round the origin")
    if any(b != 1 for b in dets):
        raise PreconditionError("not-smooth", f"{who} needs a smooth fan")


def self_intersection_profile(fan: Fan) -> tuple[int, ...]:
    """The word a_i of a smooth complete surface fan, with v_{i-1} + v_{i+1}
    = a_i v_i in cyclic order; the boundary divisor of ray i has
    self-intersection -a_i."""
    _require_smooth_complete_surface(fan, "the self-intersection profile")
    return _profile(fan)


def _profile(fan: Fan) -> tuple[int, ...]:
    """The word of a fan already known to be a smooth complete surface fan:
    as det(v_{i-1}, v_i) = 1, a_i = det(v_{i-1}, a_i v_i - v_{i-1}) = det(v_{i-1}, v_{i+1})."""
    rays, d = fan.rays, fan.ray_count
    return tuple(_cross(rays[i - 1], rays[(i + 1) % d]) for i in range(d))


def _blow_down(cycle: tuple[Vector, ...], word: tuple[int, ...], orbit: tuple[int, ...]):
    """The cycle and word, stored from the least ray, of the fan left by
    contracting ``orbit``, pairwise non-adjacent (-1)-rays of ``cycle``: as
    v_i = v_{i-1} + v_{i+1}, a_{i-1} = det(v_{i-2}, v_i) falls by 1 (Oda 1.6),
    as does a_{i+1}, and a ray between two removed rays loses 2."""
    d, word = len(cycle), list(word)
    for i in orbit:
        word[i - 1] -= 1
        word[(i + 1) % d] -= 1
    keep = [i for i in range(d) if i not in orbit]
    if orbit[0] == 0:  # the stored cycle starts at its least ray, which goes
        start = min(range(len(keep)), key=lambda j: cycle[keep[j]])
        keep = keep[start:] + keep[:start]
    return tuple([cycle[i] for i in keep]), tuple([word[i] for i in keep])


@dataclass(frozen=True)
class TerminalLabel:
    """Terminal classification: P2, P1xP1, DP6Terminal, Hirzebruch(a), Other."""

    kind: str
    parameter: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}({self.parameter})" if self.parameter is not None else self.kind


P2 = TerminalLabel("P2")
P1XP1 = TerminalLabel("P1xP1")
DP6_TERMINAL = TerminalLabel("DP6Terminal")
OTHER = TerminalLabel("Other")


def classify_terminal(fan: Fan) -> TerminalLabel:
    """Label a fan by its self-intersection word: a rank-2 fan's stored
    cycle is complete, so it is smooth when every cone has determinant 1,
    and any other fan is Other."""
    if fan.rank != 2 or fan.ray_count not in (3, 4, 6) or any(b != 1 for b in _cycle_dets(fan.rays)):
        return OTHER
    return _label(_profile(fan))


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


def _explore(cycle: tuple[Vector, ...], word: tuple[int, ...], left: int, orbit_of, first_only: bool, graph) -> _Node:
    """The node of the fan on ``cycle``, whose word is ``word``, built with
    every node below it that ``graph`` does not hold yet; first-only keeps
    only the first edge.  ``orbit_of`` numbers the root's orbits by least ray;
    ``graph`` keys a fan by ``left``, the bitmask of those that remain."""
    at = [orbit_of[v] for v in cycle]
    members: dict[int, list[int]] = {}
    for i, k in enumerate(at):
        members.setdefault(k, []).append(i)
    # An orbit is blocked by a ray that is not a (-1)-ray or follows one of its own.
    blocked = {k for i, k in enumerate(at) if word[i] != 1 or at[i - 1] == k}
    orbits = [(k, tuple(members[k])) for k in sorted(members.keys() - blocked)]
    if not orbits:
        node = (1, cycle, _label(word))
    else:
        edges = tuple(
            (orbit, graph.get(key := left & ~(1 << k))
             or _explore(*_blow_down(cycle, word, orbit), key, orbit_of, first_only, graph))
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

    Only the input fan is validated and measured: removing a (-1)-ray i
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
    _require_smooth_complete_surface(fan, "the equivariant contraction loop")
    if action.fan != fan:
        raise PreconditionError("action-fan", "action was built for a different fan")
    orbits = sorted((tuple(fan.rays[i] for i in orbit) for orbit in ray_orbits(action)), key=min)
    orbit_of = {v: k for k, rays in enumerate(orbits) for v in rays}
    return _explore(fan.rays, _profile(fan), (1 << len(orbits)) - 1, orbit_of, first_only, {})


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


@dataclass(frozen=True)
class NeighborOppositionFact:
    """Adjacent (-1)-rays i, i+1 whose outer neighbors sum to zero."""

    left: int
    right: int
    outer_left: Vector
    outer_right: Vector


def check_adjacent_minus_one_rule(fan: Fan) -> tuple[NeighborOppositionFact, ...]:
    """Verify outer-neighbor opposition at every adjacent (-1)-pair.

    For each cyclically adjacent pair of (-1)-rays the two outer neighbors
    must be exact negatives of each other; a violation would mean the fan
    data is internally inconsistent.
    """
    word = self_intersection_profile(fan)
    d = fan.ray_count
    facts = []
    for i in range(d):
        j = (i + 1) % d
        if word[i] == 1 and word[j] == 1:
            outer_left = fan.rays[(i - 1) % d]
            outer_right = fan.rays[(j + 1) % d]
            if tuple(a + b for a, b in zip(outer_left, outer_right)) != (0,) * fan.rank:
                raise AssertionError(
                    f"outer neighbors of adjacent (-1)-rays {i},{j} do not oppose"
                )
            facts.append(NeighborOppositionFact(i, j, outer_left, outer_right))
    return tuple(facts)
