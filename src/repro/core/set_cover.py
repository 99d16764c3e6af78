"""The greedy set-cover routine of WMA (Algorithm 3, ``CheckCover``).

After each matching round, WMA asks: do the top-``k`` candidate
facilities, ranked by *marginal gain* (how many still-uncovered customers
each would cover through its current ``sigma_j`` assignments), cover every
customer?  The routine runs the classic lazy-greedy set-cover heuristic:
facilities are keyed ``(-gain, tie, j)`` by a possibly stale gain; the
smallest key is popped, and a popped facility whose gain changed is
re-inserted with the fresh value, otherwise it is selected.

Every check starts with nothing covered, so a facility's starting gain
is ``|sigma_j|``.  :class:`CoverGains` keeps those sizes bucketed by
value across checks, and the greedy draws its candidates from it one
gain level at a time, highest first: a level becomes a heap of its
facilities' keys only when the greedy reaches it, and is merged with a
second heap holding the re-inserted stale entries.  Every key is unique
(it ends in ``j``), so the pops come out in exactly the order one
max-heap over all facilities would give, while a check touches only the
levels it visits instead of all ``l`` facilities.

Ties between equal marginal gains are broken in favour of the facility
selected *least recently* in earlier iterations (Section IV-F) -- the
diversification that keeps WMA out of local minima.  Two alternative
tie-breakings are available for the ablation study and as practical
extensions:

* ``"index"`` -- deterministic arbitrary order (no diversification);
* ``"cost"`` -- prefer the facility whose matched customers are closest
  (smallest total sigma-edge distance).  Not in the paper; it markedly
  reduces WMA's variance on tie-dense instances (small marginal gains,
  fragmented networks) where pure LRU rotation picks distance-blindly.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.obs import metrics


@dataclass
class CoverResult:
    """Outcome of one ``CheckCover`` call.

    Attributes
    ----------
    selected:
        Chosen facility indices, at most ``k``, in selection order.
    covered:
        Per-customer flag: covered by some selected facility's
        ``sigma_j``.
    fully_covered:
        True iff every customer is covered (WMA's termination signal).
    """

    selected: list[int]
    covered: list[bool]
    fully_covered: bool


class CoverGains:
    """Starting gains ``|sigma_j|``, bucketed by value, kept across checks.

    Attributes
    ----------
    size:
        ``size[j] == len(sigma[j])`` for every facility.
    buckets:
        ``gain -> facilities`` with that size; only non-zero sizes have a
        bucket, and no bucket is empty.

    The owner of ``sigma`` keeps the index exact by calling :meth:`grow`
    whenever a set gains one member.  An SSPA augmenting path changes
    ``|sigma_j|`` only at its endpoint -- every facility inside the path
    loses one customer and gains another -- so WMA calls it once per
    :func:`repro.flow.sspa.find_pair` return value.
    """

    def __init__(self, sigma: Sequence[set[int]]) -> None:
        self.size = [len(s) for s in sigma]
        self.buckets: dict[int, set[int]] = {}
        for j, gain in enumerate(self.size):
            if gain:
                self.buckets.setdefault(gain, set()).add(j)

    def grow(self, j: int) -> None:
        """Record that ``sigma_j`` gained one member."""
        gain = self.size[j]
        if gain:
            bucket = self.buckets[gain]
            bucket.remove(j)
            if not bucket:
                del self.buckets[gain]
        self.size[j] = gain + 1
        self.buckets.setdefault(gain + 1, set()).add(j)


def check_cover(
    sigma: Sequence[set[int]],
    n_customers: int,
    k: int,
    last_used: Sequence[int],
    *,
    tie_breaking: str = "lru",
    costs: Sequence[float] | None = None,
    gains: CoverGains | None = None,
) -> CoverResult:
    """Greedily select up to ``k`` facilities maximizing customer coverage.

    Parameters
    ----------
    sigma:
        Per-facility set of customers currently assigned to it in ``G_b``
        (the ``sigma_j`` sets of the paper).
    n_customers:
        Total number of customers ``m``.
    k:
        Selection budget.
    last_used:
        Per-facility iteration index at which it was last selected
        (``-1`` if never).  Smaller means "least recently used" and wins
        ties under ``tie_breaking="lru"``.
    tie_breaking:
        ``"lru"`` (paper), ``"index"`` (ablation: deterministic
        arbitrary order), or ``"cost"`` (extension: cheapest service
        cluster wins ties; requires ``costs``).
    costs:
        Per-facility total distance of its ``sigma_j`` edges; required
        for (and only used by) ``tie_breaking="cost"``.
    gains:
        The caller's :class:`CoverGains` over ``sigma``, kept exact
        across checks; built from ``sigma`` when omitted.

    Notes
    -----
    Selection stops early when the best remaining marginal gain is zero:
    such facilities cannot improve coverage, and Algorithm 4 later pads
    the selection with facilities chosen to *reduce cost* instead, which
    dominates padding with useless cover picks.
    """
    if tie_breaking not in ("lru", "index", "cost"):
        raise ValueError(f"unknown tie_breaking {tie_breaking!r}")
    if tie_breaking == "cost" and costs is None:
        raise ValueError("tie_breaking='cost' requires the costs argument")
    if gains is None:
        gains = CoverGains(sigma)
    ties = {"lru": last_used, "cost": costs}.get(tie_breaking)

    buckets = gains.buckets
    levels = sorted(buckets, reverse=True)
    next_level = 0
    # ``level`` holds the untouched entries of the lowest gain level
    # reached so far; ``stale`` the re-inserted ones.  Levels below are
    # loaded only once ``stale`` no longer outranks them.
    level: list[tuple[int, float, int]] = []
    stale: list[tuple[int, float, int]] = []
    covered: set[int] = set()
    selected: list[int] = []
    heap_pops = 0

    while len(selected) < k:
        if not level and next_level < len(levels):
            gain = levels[next_level]
            if not stale or -stale[0][0] <= gain:
                next_level += 1
                if ties is None:
                    level = [(-gain, 0.0, j) for j in buckets[gain]]
                else:
                    level = [(-gain, ties[j], j) for j in buckets[gain]]
                heapq.heapify(level)
        if level and (not stale or level[0] < stale[0]):
            neg_gain, tie, j = heapq.heappop(level)
        elif stale:
            neg_gain, tie, j = heapq.heappop(stale)
        else:
            break
        heap_pops += 1
        members = sigma[j]
        fresh_gain = len(members.difference(covered))
        if fresh_gain == 0:
            # Stale keys over-estimate, so only this entry can be dropped.
            continue
        if fresh_gain != -neg_gain:
            heapq.heappush(stale, (-fresh_gain, tie, j))
            continue
        selected.append(j)
        covered |= members
        if len(covered) == n_customers:
            break

    reg = metrics.active()
    reg.counter("set_cover.checks").add()
    reg.counter("set_cover.heap_pops").add(heap_pops)
    reg.counter("set_cover.selections").add(len(selected))
    return CoverResult(
        selected=selected,
        covered=[i in covered for i in range(n_customers)],
        fully_covered=len(covered) == n_customers,
    )
