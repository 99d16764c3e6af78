"""Tests for the greedy set-cover routine (Algorithm 3)."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.set_cover import CoverGains, CoverResult, check_cover
from repro.obs import metrics


def reference_greedy(sigma, m, k, last_used, tie_breaking="lru", costs=None):
    """Straightforward (non-lazy) greedy reference implementation."""
    covered = set()
    selected = []
    candidates = set(range(len(sigma)))
    while len(selected) < k:
        best = None
        best_key = None
        for j in sorted(candidates):
            gain = len(sigma[j] - covered)
            if gain == 0:
                continue
            if tie_breaking == "lru":
                tie = last_used[j]
            elif tie_breaking == "cost":
                tie = costs[j]
            else:
                tie = 0
            key = (-gain, tie, j)
            if best_key is None or key < best_key:
                best, best_key = j, key
        if best is None:
            break
        selected.append(best)
        candidates.discard(best)
        covered |= sigma[best]
        if len(covered) == m:
            break
    return selected, covered


def reference_lazy_heap(
    sigma, n_customers, k, last_used, tie_breaking="lru", costs=None
):
    """One lazy max-heap over every facility with a non-empty ``sigma_j``.

    The all-facilities implementation ``check_cover`` replaced; returns
    its result and its heap-pop count, which the gain-level version must
    both reproduce exactly.
    """
    covered = [False] * n_customers
    selected = []

    def tie_key(j):
        if tie_breaking == "lru":
            return last_used[j]
        if tie_breaking == "cost":
            return float(costs[j])
        return 0.0

    heap = []
    for j in range(len(sigma)):
        gain = len(sigma[j])
        if gain > 0:
            heap.append((-gain, tie_key(j), j))
    heapq.heapify(heap)
    heap_pops = 0

    n_covered = 0
    while heap and len(selected) < k:
        neg_gain, tie, j = heapq.heappop(heap)
        heap_pops += 1
        members = sigma[j]
        fresh_gain = len(members)
        for i in members:
            if covered[i]:
                fresh_gain -= 1
        if fresh_gain == 0:
            continue
        if fresh_gain != -neg_gain:
            heapq.heappush(heap, (-fresh_gain, tie, j))
            continue
        selected.append(j)
        for i in members:
            if not covered[i]:
                covered[i] = True
                n_covered += 1
        if n_covered == n_customers:
            break
    result = CoverResult(
        selected=selected, covered=covered, fully_covered=all(covered)
    )
    return result, heap_pops


class TestCheckCover:
    def test_full_cover_detected(self):
        sigma = [{0, 1}, {2}, set()]
        result = check_cover(sigma, 3, 2, [-1, -1, -1])
        assert result.fully_covered
        assert sorted(result.selected) == [0, 1]
        assert result.covered == [True, True, True]

    def test_partial_cover(self):
        sigma = [{0}, {1}, set()]
        result = check_cover(sigma, 3, 2, [-1, -1, -1])
        assert not result.fully_covered
        assert result.covered == [True, True, False]

    def test_marginal_gain_preferred_over_raw_size(self):
        # Facility 0 covers {0,1,2}; facility 1 covers {0,1,3}; facility 2
        # covers {3}.  After selecting 0, facility 1's marginal gain is 1,
        # tying facility 2 -- lower last_used wins.
        sigma = [{0, 1, 2}, {0, 1, 3}, {3}]
        result = check_cover(sigma, 4, 2, [-1, 5, 0])
        assert result.selected[0] == 0
        assert result.selected[1] == 2  # least recently used wins the tie

    def test_lru_tie_breaking(self):
        sigma = [{0}, {1}]
        result = check_cover(sigma, 3, 1, [3, 1])
        assert result.selected == [1]

    def test_index_tie_breaking(self):
        sigma = [{0}, {1}]
        result = check_cover(sigma, 3, 1, [3, 1], tie_breaking="index")
        assert result.selected == [0]

    def test_unknown_tie_breaking_rejected(self):
        with pytest.raises(ValueError):
            check_cover([{0}], 1, 1, [-1], tie_breaking="bogus")

    def test_cost_tie_breaking(self):
        # Equal gains; the cheaper service cluster wins.
        sigma = [{0}, {1}]
        result = check_cover(
            sigma, 3, 1, [-1, -1], tie_breaking="cost", costs=[5.0, 2.0]
        )
        assert result.selected == [1]

    def test_cost_tie_breaking_requires_costs(self):
        with pytest.raises(ValueError, match="costs"):
            check_cover([{0}], 1, 1, [-1], tie_breaking="cost")

    def test_cost_never_overrides_gain(self):
        # A bigger gain beats any cost.
        sigma = [{0, 1}, {2}]
        result = check_cover(
            sigma, 3, 1, [-1, -1], tie_breaking="cost", costs=[100.0, 0.0]
        )
        assert result.selected == [0]

    def test_zero_gain_facilities_skipped(self):
        sigma = [{0, 1}, set(), set()]
        result = check_cover(sigma, 2, 3, [-1, -1, -1])
        assert result.selected == [0]
        assert result.fully_covered

    def test_budget_respected(self):
        sigma = [{0}, {1}, {2}, {3}]
        result = check_cover(sigma, 4, 2, [-1] * 4)
        assert len(result.selected) == 2
        assert not result.fully_covered

    def test_empty_sigma(self):
        result = check_cover([set(), set()], 2, 1, [-1, -1])
        assert result.selected == []
        assert not result.fully_covered

    def test_greedy_picks_biggest_first(self):
        sigma = [{0}, {1, 2, 3}, {4, 5}]
        result = check_cover(sigma, 6, 3, [-1] * 3)
        assert result.selected[0] == 1
        assert result.selected[1] == 2
        assert result.selected[2] == 0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n_fac=st.integers(1, 8),
    m=st.integers(1, 12),
    k=st.integers(1, 8),
    tie_breaking=st.sampled_from(["lru", "index", "cost"]),
)
def test_property_lazy_greedy_matches_reference(
    data, n_fac, m, k, tie_breaking
):
    """Gain-level greedy == lazy heap over all facilities == plain greedy.

    Checked twice per input: with the index built from ``sigma`` and with
    one grown member by member, in shuffled order, from all-empty.
    """
    sigma = [
        set(
            data.draw(
                st.lists(st.integers(0, m - 1), max_size=m, unique=True)
            )
        )
        for _ in range(n_fac)
    ]
    last_used = data.draw(
        st.lists(
            st.integers(-1, 5), min_size=n_fac, max_size=n_fac
        )
    )
    # Few distinct values, so cost ties are common.
    costs = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.25, 3.0]),
            min_size=n_fac,
            max_size=n_fac,
        )
    )
    grown = CoverGains([set() for _ in sigma])
    for j in data.draw(
        st.permutations([j for j, s in enumerate(sigma) for _ in s])
    ):
        grown.grow(j)
    assert grown.size == [len(s) for s in sigma]

    ref, ref_pops = reference_lazy_heap(
        sigma, m, k, last_used, tie_breaking, costs
    )
    plain_selected, plain_covered = reference_greedy(
        sigma, m, k, last_used, tie_breaking, costs
    )
    assert ref.selected == plain_selected
    assert {i for i, c in enumerate(ref.covered) if c} == plain_covered
    for gains in (None, grown):
        reg = metrics.Registry()
        with metrics.use(reg):
            result = check_cover(
                sigma, m, k, last_used,
                tie_breaking=tie_breaking, costs=costs, gains=gains,
            )
        assert result == ref
        assert reg.counter("set_cover.heap_pops").value == ref_pops
