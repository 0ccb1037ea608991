"""An independent welfare oracle: the SWM problem as one mixed-integer
program on ``scipy.optimize.milp`` (HiGHS); skipped without scipy.

With N buyers, K cells and the tiers t of each tiered vendor s:

- binary ``x[i,j]``: buyer i takes cell j, with ``Σ_j x[i,j] = 1``;
- binary ``y[s,t]``: tier t of s is met, with ``y[s,t] ≤ y[s,t−1]`` and
  ``demand[s,k] ≥ threshold[s,t,k]·y[s,t]``, where ``demand[s,k]`` is the
  sum of ``x[i,j]`` over the cells j that buy item k from s;
- ``z[i,s,t]`` in [0, 1], with ``z[i,s,t] ≤ x[i, bundle(s)]`` and
  ``z[i,s,t] ≤ y[s,t]``, worth the price step from tier t−1 to t.

The objective, maximised, is ``Σ (v_ij − base_j)·x[i,j] + Σ step·z``: a
buyer of s's full bundle pays its base bundle price less every step up to
the highest tier met.  The model prices nothing through ``gbb``.

``milp_welfare`` checks the welfare.  ``milp_lex_counts`` checks the
counts tie rule, the lexicographically smallest counts tuple among the
welfare-maximal ones, at any N: it keeps the objective at least W − 1/2,
W being the optimum, then minimises ``n_j = Σ_i x[i,j]`` and fixes it, for
j = 0..K−2 in cell order.  The assignment within the counts is pinned by
the kernel-against-flow tests.
"""

import collections
import random

import pytest

pytest.importorskip("scipy")

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

from gbb.generate import generate_instance  # noqa: E402
from gbb.swm import solve_swm  # noqa: E402

from tests.test_swm import counts_of  # noqa: E402


def _program(market):
    """The module docstring's program: its objective, which variables are
    integral, and its constraint rows ``(terms, lower, upper)``."""
    cells = market.vendor_tuples
    n, width = len(market.buyers), len(cells)
    prices = {v.id: v.base_prices for v in market.vendors}
    base = [sum(prices[vid][k] for k, vid in enumerate(cell)) for cell in cells]
    objective = [
        b.valuation(cell) - p for b in market.buyers for cell, p in zip(cells, base)
    ]
    integral = [1] * len(objective)
    rows = []

    def row(terms, lo, hi):
        rows.append((terms, lo, hi))

    def new_variable(worth, integer):
        objective.append(worth)
        integral.append(integer)
        return len(objective) - 1

    for i in range(n):
        row([(i * width + j, 1) for j in range(width)], 1, 1)
    for vendor in market.vendors:
        if not vendor.tiers:
            continue
        bundle = cells.index((vendor.id,) * market.c)
        buying = [
            [j for j, cell in enumerate(cells) if cell[k] == vendor.id]
            for k in range(market.c)
        ]
        price, met = vendor.base_bundle_price, None
        for tier in vendor.tiers:
            y = new_variable(0, 1)
            if met is not None:
                row([(y, 1), (met, -1)], -np.inf, 0)
            for js, threshold in zip(buying, tier.thresholds):
                terms = [(i * width + j, 1) for i in range(n) for j in js]
                row(terms + [(y, -threshold)], 0, np.inf)
            for i in range(n):
                z = new_variable(price - tier.bundle_price, 0)
                row([(z, 1), (i * width + bundle, -1)], -np.inf, 0)
                row([(z, 1), (y, -1)], -np.inf, 0)
            price, met = tier.bundle_price, y
    return objective, integral, rows


def _maximum(objective, integral, rows):
    """The largest integer value of ``objective`` under ``rows``."""
    ids, cols, coefs = zip(
        *((r, col, coef) for r, (terms, _, _) in enumerate(rows) for col, coef in terms)
    )
    matrix = coo_array((coefs, (ids, cols)), shape=(len(rows), len(integral)))
    _, lower, upper = zip(*rows)
    result = milp(
        -np.array(objective, dtype=float),
        integrality=integral,
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(matrix, lower, upper),
        options={"mip_rel_gap": 0},
    )
    assert result.success, result.message
    best = round(-result.fun)
    assert abs(best + result.fun) < 1e-6
    return best


def milp_welfare(market):
    """The market's optimal social welfare; see the module docstring."""
    return _maximum(*_program(market))


def milp_lex_counts(market):
    """The lexicographically smallest counts tuple, aligned with
    ``market.vendor_tuples``, of a welfare-maximal allocation; see the
    module docstring."""
    objective, integral, rows = _program(market)
    welfare = _maximum(objective, integral, rows)
    terms = [(col, w) for col, w in enumerate(objective) if w]
    rows.append((terms, welfare - 0.5, np.inf))
    n, width = len(market.buyers), market.cell_count
    counts = []
    for j in range(width - 1):
        column = [(i * width + j, 1) for i in range(n)]
        # Minimise n_j as the maximum of -n_j, then hold it there.
        negated = [0] * len(integral)
        for col, _ in column:
            negated[col] = -1
        least = -_maximum(negated, integral, rows)
        rows.append((column, least, least))
        counts.append(least)
    return tuple(counts) + (n - sum(counts),)


# Largest buyer count drawn per (vendors, item types): the shapes of the
# ROADMAP's SWM table, at sizes that keep the sweep within seconds.
SWEEP = {(2, 2): 40, (3, 2): 12, (2, 1): 40, (3, 1): 40}


@pytest.mark.parametrize("vendors, items", list(SWEEP))
def test_solve_swm_welfare_matches_the_milp(vendors, items):
    rng = random.Random(f"milp/{vendors}/{items}")
    for _ in range(6):
        buyers, seed = rng.randint(8, SWEEP[vendors, items]), rng.randrange(10**6)
        market = generate_instance(buyers, vendors, items, seed)
        welfare = solve_swm(market, max_partitions=10**9).social_welfare
        assert welfare == milp_welfare(market), (buyers, seed)


@pytest.mark.parametrize("vendors, items", list(SWEEP))
def test_solve_swm_counts_match_the_lexicographic_milp(vendors, items):
    # Small value ranges make equal-welfare partitions common, so this pins
    # the counts tie rule as well as the optimum.
    rng = random.Random(f"milp-lex/{vendors}/{items}")
    for _ in range(6):
        buyers, seed = rng.randint(1, SWEEP[vendors, items]), rng.randrange(10**6)
        max_value = rng.choice((3, 20))
        market = generate_instance(buyers, vendors, items, seed, max_value=max_value)
        choice = solve_swm(market, max_partitions=10**9).allocation.choice
        counts = counts_of(market, collections.Counter(choice.values()))
        assert counts == milp_lex_counts(market), (buyers, seed, max_value)
