"""Reply oracles: truthful geometry, i.i.d. noise, and budgeted adversaries.

A reply to query q is either q itself (only when q is the target) or a
neighbor of q that starts a shortest path toward the target. The noisy
oracle corrupts replies independently with probability p; the adversarial
one spends lies from a fixed budget however its schedule dictates.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, branch_masks
from .potential import _gamma, exact_argbest

TIE_BREAKS = ("uniform-random", "lowest-id", "adversarial-weight")
ERROR_MODELS = ("uniform-wrong", "adversarial-wrong")
ADVERSARY_SCHEDULES = ("greedy-heavy", "random-schedule", "fixed-schedule")


def truthful_candidates(g: Graph, target: int, q: int) -> np.ndarray:
    """All honest replies at q: the neighbors one hop closer to the target."""
    if q == target:
        return np.array([q], dtype=np.int32)
    nbrs = g.neighbors[q]
    to_target = g.row(target)
    return nbrs[to_target[nbrs] == to_target[q] - 1]


def wrong_replies(g: Graph, target: int, q: int) -> np.ndarray:
    """All dishonest replies at q: q and its neighbors minus every truthful
    candidate, ascending."""
    nbrs = g.neighbors[q]
    to_target = g.row(target)
    wrong = nbrs[to_target[nbrs] != to_target[q] - 1]
    if q == target:
        return wrong
    i = np.searchsorted(wrong, q)
    return np.concatenate((wrong[:i], np.full(1, q, dtype=wrong.dtype), wrong[i:]))


def _heaviest(masks: np.ndarray, omega: np.ndarray) -> int:
    """Index of the mask row that keeps the most weight, exactly, for
    nonnegative omega; the lowest index on ties.

    masks @ omega screens: each entry adds at most n exact terms (a mask
    entry is 0 or 1), so in any order it is within gamma_{n-1} of the exact
    sum at unit roundoff 2**-53, and gamma_{n+2} leaves three terms to
    spare for the rounding of the cut. A row whose entry is below the cut
    keeps less than the row of the largest entry; exact_argbest decides
    among the rest.
    """
    w = masks @ omega
    near = np.flatnonzero(w >= w.max() * (1.0 - 2.0 * _gamma(len(omega) + 2, 2.0 ** -53)))
    return int(near[0] if len(near) == 1 else near[exact_argbest(masks[near], omega, largest=True)])


class NoisyOracle:
    """Replies truthfully except with probability p per query, independently."""

    def __init__(
        self,
        g: Graph,
        target: int,
        p: float,
        rng: np.random.Generator,
        tie_break: str = "uniform-random",
        error_model: str = "uniform-wrong",
    ):
        if not 0.0 <= p < 0.5:
            raise ValueError(f"noise rate must lie in [0, 1/2), got {p}")
        if not 0 <= target < g.n:
            raise ValueError(f"target {target} outside graph")
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break {tie_break!r} not in {TIE_BREAKS}")
        if error_model not in ERROR_MODELS:
            raise ValueError(f"error_model {error_model!r} not in {ERROR_MODELS}")
        self.g = g
        self.target = target
        self.p = p
        self.rng = rng
        self.tie_break = tie_break
        self.error_model = error_model
        self.queries_made = 0
        self.errors_made = 0
        self.last_was_error = False

    def _pick_truthful(self, q: int, omega) -> int:
        cands = truthful_candidates(self.g, self.target, q)
        if len(cands) == 1:
            return int(cands[0])
        if self.tie_break == "lowest-id":
            return int(cands[0])
        if self.tie_break == "adversarial-weight":
            if omega is None:
                raise ValueError("adversarial-weight tie break needs the weight vector")
            return int(cands[_heaviest(branch_masks(self.g, q, cands), omega)])
        return int(cands[self.rng.integers(len(cands))])

    def _pick_wrong(self, q: int, truth: int, omega) -> int:
        wrong = wrong_replies(self.g, self.target, q)
        if len(wrong) == 0:
            return truth  # single-vertex graph leaves no room to lie
        if self.error_model == "adversarial-wrong":
            if omega is None:
                raise ValueError("adversarial-wrong errors need the weight vector")
            return int(wrong[_heaviest(branch_masks(self.g, q, wrong), omega)])
        # neighbors first and q last, the order the uniform draw has always
        # indexed, so seeded runs keep their replies wherever truth is unique
        wrong = np.concatenate([wrong[wrong != q], wrong[wrong == q]])
        return int(wrong[self.rng.integers(len(wrong))])

    def reply(self, q: int, weights=None) -> int:
        """Answer one query; weights only steer the adversarial variants."""
        omega = weights.omega if weights is not None else None
        self.queries_made += 1
        err = self.rng.random() < self.p
        truth = self._pick_truthful(q, omega)
        if not err:
            self.last_was_error = False
            return truth
        r = self._pick_wrong(q, truth, omega)
        self.last_was_error = r != truth
        self.errors_made += int(self.last_was_error)
        return r


class AdversarialOracle:
    """Spends at most `budget` lies; schedule decides when and what to lie.

    greedy-heavy lies whenever some wrong reply would keep more weight alive
    than the best truthful one. random-schedule precommits `budget` lie steps
    uniformly over the horizon. fixed-schedule lies on the first steps.
    """

    def __init__(
        self,
        g: Graph,
        target: int,
        budget: int,
        schedule: str = "greedy-heavy",
        rng: np.random.Generator | None = None,
        horizon: int | None = None,
    ):
        if schedule not in ADVERSARY_SCHEDULES:
            raise ValueError(f"schedule {schedule!r} not in {ADVERSARY_SCHEDULES}")
        if budget < 0:
            raise ValueError("lie budget cannot be negative")
        if not 0 <= target < g.n:
            raise ValueError(f"target {target} outside graph")
        self.g = g
        self.target = target
        self.budget = budget
        self.schedule = schedule
        self.rng = rng
        self.queries_made = 0
        self.lies_spent = 0
        self.last_was_error = False
        self._lie_steps: set[int] = set()
        if schedule == "random-schedule":
            if rng is None or horizon is None:
                raise ValueError("random-schedule needs rng and horizon")
            k = min(budget, horizon)
            if k:
                steps = rng.choice(horizon, size=k, replace=False)
                self._lie_steps = set(int(t) for t in steps)

    def reply(self, q: int, weights=None) -> int:
        t = self.queries_made
        self.queries_made += 1
        cands = truthful_candidates(self.g, self.target, q)
        omega = weights.omega if weights is not None else None

        if self.schedule == "greedy-heavy":
            if omega is None:
                raise ValueError("greedy-heavy needs the weight vector")
            wrong = wrong_replies(self.g, self.target, q)
            can_lie = self.lies_spent < self.budget and len(wrong) > 0
            # the truthful rows come first and ties go to the lowest index,
            # so a wrong reply wins only when it keeps strictly more weight
            # than every truthful one
            replies = np.concatenate((cands, wrong)) if can_lie else cands
            i = _heaviest(branch_masks(self.g, q, replies), omega)
            self.last_was_error = i >= len(cands)
            self.lies_spent += self.last_was_error
            return int(replies[i])

        lie_now = (
            t in self._lie_steps
            if self.schedule == "random-schedule"
            else t < self.budget
        )
        if lie_now and self.lies_spent < self.budget:
            wrong = wrong_replies(self.g, self.target, q)
            if len(wrong):
                self.lies_spent += 1
                self.last_was_error = True
                if self.schedule == "random-schedule":
                    return int(self.rng.choice(wrong))
                return int(wrong[0])
        self.last_was_error = False
        return int(cands[0])
