"""Re-seed policies and the maintenance procedure they trigger.

A stale seeded tree is refreshed the paper's one way: seed, grow and
clean up from scratch. :func:`rebuild_seeded` reads every object out
of the old tree, re-seeds from the partner's *current* top levels, and
grows a brand-new tree, all charged to the maintenance (CONSTRUCT)
phase because it is index construction.

:class:`ReseedPolicy` objects decide *when* a rebuild is worth it from
a :class:`~repro.dynamic.staleness.StalenessSnapshot`.
:class:`ReseedManager` glues tracker, policy, and procedure to one
resident tree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Callable

from ..errors import SeedingError
from ..rtree import RTree
from ..rtree.node import Entry
from ..seeded import SeededTree
from ..workspace import Workspace
from .staleness import StalenessSnapshot, StalenessTracker


class ReseedDecision(Enum):
    NONE = "none"
    REBUILD = "rebuild"


class ReseedPolicy(ABC):
    """Maps a staleness snapshot to a maintenance decision."""

    name = "reseed-policy"

    @abstractmethod
    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        ...


class NeverReseed(ReseedPolicy):
    """The do-nothing baseline: ride the drifted tree forever."""

    name = "never"

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        return ReseedDecision.NONE


class AlwaysRebuild(ReseedPolicy):
    """The paranoid baseline: full rebuild whenever the partner moved."""

    name = "always-rebuild"

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        if snap.partner_churn > 0:
            return ReseedDecision.REBUILD
        return ReseedDecision.NONE


class StalenessThreshold(ReseedPolicy):
    """Trigger on structural drift: rebuild once seed dilation reaches
    ``rebuild_at`` or occupancy skew reaches ``skew_at``."""

    name = "staleness-threshold"

    def __init__(self, rebuild_at: float = 2.0, skew_at: float = 4.0) -> None:
        if rebuild_at <= 0:
            raise ValueError("rebuild_at must be positive")
        if skew_at <= 1:
            # Skew is max/mean occupancy, so it is never below 1.
            raise ValueError("skew_at must exceed 1")
        self.rebuild_at = rebuild_at
        self.skew_at = skew_at

    def decide(self, snap: StalenessSnapshot) -> ReseedDecision:
        if (snap.seed_dilation >= self.rebuild_at
                or snap.occupancy_skew >= self.skew_at):
            return ReseedDecision.REBUILD
        return ReseedDecision.NONE


# --------------------------------------------------------------------- #
# Maintenance procedures
# --------------------------------------------------------------------- #


def _drain_tree(tree: SeededTree) -> list[tuple]:
    """Read every object out of a tree (accounted) and drop its pages."""
    entries: list[Entry] = []
    tree._flatten_subtree(tree.root_id, entries)
    return [(e.mbr, e.ref) for e in entries]


def _make_successor(
    old: SeededTree, partner: RTree, seed_levels: int | None
) -> SeededTree:
    # Churn may have shrunk the partner below the old seeding depth;
    # clamp so seeding stays legal (slots need pointer entries).
    k = min(seed_levels or old.seed_levels, partner.height - 1)
    if k < 1:
        raise SeedingError(
            "partner tree has no internal levels left to seed from"
        )
    return SeededTree(
        old.buffer, old.config, old.metrics,
        copy_strategy=old.copy_strategy,
        update_policy=old.update_policy,
        seed_levels=k,
        # Filtering drops objects that cannot *join*; a retained index
        # must keep everything, so successors never filter.
        filtering=False,
        split=old.split,
        name=old.name,
    )


def rebuild_seeded(
    workspace: Workspace,
    old: SeededTree,
    partner: RTree,
    seed_levels: int | None = None,
) -> SeededTree:
    """Full rebuild: drain the old tree, re-seed, re-grow. Accounted
    under the maintenance phase; the old tree's pages are freed."""
    with workspace.maintenance_phase():
        data = _drain_tree(old)
        tree = _make_successor(old, partner, seed_levels)
        tree.seed(partner)
        tree.grow_from(data)
        tree.cleanup()
    return tree


# --------------------------------------------------------------------- #
# Manager
# --------------------------------------------------------------------- #


class ReseedManager:
    """Owns one resident seeded tree's staleness loop.

    Feed it measured joins (:meth:`record_run`); call :meth:`evaluate`
    at maintenance points. When the policy fires, the tree is rebuilt,
    the tracker re-baselines, and subscribers (update streams, the
    incremental join) are re-pointed at the successor.
    """

    def __init__(
        self,
        workspace: Workspace,
        tree: SeededTree,
        partner: RTree,
        policy: ReseedPolicy,
        tracker: StalenessTracker | None = None,
    ) -> None:
        self.workspace = workspace
        self.tree = tree
        self.partner = partner
        self.policy = policy
        self.tracker = tracker or StalenessTracker()
        self.tracker.rebaseline(partner, tree)
        self.rebuilds = 0
        self._subscribers: list[Callable[[SeededTree], None]] = []

    def subscribe(self, callback: Callable[[SeededTree], None]) -> None:
        """Register to be re-pointed when the tree is replaced."""
        self._subscribers.append(callback)

    def record_run(self, predicted_io: float, measured_io: float) -> None:
        self.tracker.record_run(predicted_io, measured_io)

    def measure(self) -> StalenessSnapshot:
        return self.tracker.measure(self.partner, self.tree)

    def evaluate(self) -> tuple[ReseedDecision, StalenessSnapshot]:
        """Measure, decide, and execute; returns what happened."""
        snap = self.measure()
        decision = self.policy.decide(snap)
        if decision is ReseedDecision.NONE:
            return decision, snap
        if self.partner.height <= 1:
            # Nothing to seed from; keep the current tree.
            return ReseedDecision.NONE, snap
        self.tree = rebuild_seeded(self.workspace, self.tree, self.partner)
        self.rebuilds += 1
        self.tracker.rebaseline(self.partner, self.tree)
        for callback in self._subscribers:
            callback(self.tree)
        return decision, snap
