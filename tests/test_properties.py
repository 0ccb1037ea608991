"""Property tests drawn by Hypothesis; skipped when it is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gbb.generate import generate_instance  # noqa: E402
from gbb.model import Buyer, Market, NULL_VENDOR  # noqa: E402
from gbb.swm import brute_force_swm, solve_swm  # noqa: E402


@st.composite
def small_markets(draw):
    """Vendors and tiers of a seeded generated market, drawn valuations 0-6."""
    base = generate_instance(
        buyers=draw(st.integers(0, 4)),
        vendors=draw(st.integers(1, 2)),
        items=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 10**6)),
    )
    cells = [t for t in base.vendor_tuples if any(v != NULL_VENDOR for v in t)]
    buyers = [
        Buyer(b.id, {cell: draw(st.integers(0, 6)) for cell in cells})
        for b in base.buyers
    ]
    return Market.build(c=base.c, vendors=list(base.vendors), buyers=buyers)


@settings(max_examples=80, deadline=None)
@given(small_markets())
def test_solve_swm_matches_brute_force(market):
    res = solve_swm(market)
    assert res.social_welfare == brute_force_swm(market)[1]
    assert res.flows_solved <= res.partitions_total
