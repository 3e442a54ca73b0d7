"""Shared fixtures: the acceptance-criteria recorder and brute-force oracles.

The oracles here recompute results by exhaustive enumeration, independently
of the library's algorithms, so tests compare two genuinely different
computations.
"""

from __future__ import annotations

import contextlib
import itertools
from fractions import Fraction

import pytest

from isodec import FinAbGroup, GroupElement, MatQ, Subgroup

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion."""

    @contextlib.contextmanager
    def recorder(name: str):
        try:
            yield
        except BaseException:
            line = f"criterion {name}: FAIL"
            ACCEPTANCE_LINES.append(line)
            print(line, flush=True)
            raise
        else:
            line = f"criterion {name}: PASS"
            ACCEPTANCE_LINES.append(line)
            print(line, flush=True)

    return recorder


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ------------------------------------------------------------------ oracles


def perm_matrix(n: int, shift: int = 1) -> MatQ:
    """The permutation matrix of translation by `shift` on Z/n."""
    return MatQ(
        [[1 if (i - shift) % n == j else 0 for j in range(n)] for i in range(n)]
    )


def elements(group: FinAbGroup) -> list[GroupElement]:
    """The elements of G as GroupElements, in index order."""
    return [GroupElement(group, x) for x in group.exponent_tuples()]


def add_exps(group: FinAbGroup, x, y) -> tuple[int, ...]:
    """x + y in G, on exponent tuples."""
    return tuple((a + b) % n for a, b, n in zip(x, y, group.moduli))


def closure(group: FinAbGroup, gens) -> frozenset:
    """The subgroup generated by exponent tuples `gens`, as a frozenset of
    reduced exponent tuples."""
    identity = (0,) * group.rank
    elems = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add_exps(group, x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def element_order(group: FinAbGroup, exps) -> int:
    """The least m >= 1 with m * x = 0 in G, by counting up."""
    return next(
        m
        for m in itertools.count(1)
        if all(m * e % n == 0 for e, n in zip(exps, group.moduli))
    )


def closure_subgroups(group: FinAbGroup) -> set[frozenset]:
    """Every subgroup of a small group, by breadth-first generation."""
    trivial = closure(group, [])
    found = {trivial}
    queue = [trivial]
    while queue:
        s = queue.pop()
        for exps in group.exponent_tuples():
            if exps in s:
                continue
            t = closure(group, [*s, exps])
            if t not in found:
                found.add(t)
                queue.append(t)
    return found


def subgroup_element_set(sub: Subgroup) -> frozenset:
    """The exponent tuples of G that H contains."""
    return frozenset(filter(sub.contains_exps, sub.group.exponent_tuples()))


def quotient_order_counts(group: FinAbGroup, sub: Subgroup) -> dict[int, int]:
    """For each m dividing exp(G): how many cosets x + H satisfy m(x+H) = H.

    This multiset determines the isomorphism type of G/H, giving an oracle
    for invariant factors: if G/H has invariants (d_1, ..., d_k) then the
    count for m is the product of gcd(d_i, m).
    """
    counts = {}
    coset_reps = []
    seen = set()
    members = subgroup_element_set(sub)
    for g in elements(group):
        key = min(add_exps(group, g.exps, h) for h in members)
        if key not in seen:
            seen.add(key)
            coset_reps.append(g)
    exponent = group.exponent
    for m in range(1, exponent + 1):
        if exponent % m:
            continue
        counts[m] = sum(1 for g in coset_reps if sub.contains_exps((m * g).exps))
    return counts


def fraction_matrix(rows) -> MatQ:
    return MatQ([[Fraction(v) for v in row] for row in rows])
