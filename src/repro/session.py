"""One-object pipeline facade: data → segmentation → OSSM → mine/serve.

:class:`Session` strings the package's layers together behind a small
keyword-only API with the canonical parameter names used everywhere
else (``min_support``, ``workers``, ``n_segments``)::

    import repro

    session = (
        repro.Session(workers=4)
        .generate("quest", n_transactions=5_000, n_items=400, seed=0)
        .segment(n_segments=40, algorithm="greedy")
    )
    result = session.mine(min_support=0.01)
    service = session.serve(cache_size=1024)     # BoundQueryService

Every step is also available à la carte (the facade only forwards);
the one piece of state a Session adds is bookkeeping for serving:
:meth:`extend` grows the collection through
:func:`~repro.core.incremental.extend_ossm` and pushes the
epoch-advanced map into every service the session has handed out, so
their caches invalidate per DESIGN.md §10.
"""

from __future__ import annotations

import asyncio
import os
from collections.abc import Sequence
from typing import Any

from .core.greedy import GreedySegmenter
from .core.hybrid import RandomGreedySegmenter, RandomRCSegmenter
from .core.incremental import extend_ossm
from .core.ossm import OSSM
from .core.random_seg import RandomSegmenter
from .core.rc import RCSegmenter
from .core.segmentation import SegmentationResult, Segmenter
from .data import io as data_io
from .data.alarms import generate_alarms
from .data.pages import PagedDatabase
from .data.quest import generate_quest
from .data.skewed import generate_skewed
from .data.transactions import TransactionDatabase
from .mining.apriori import Apriori
from .mining.base import MiningResult
from .mining.depth_project import DepthProject
from .mining.dhp import DHP
from .mining.eclat import Eclat
from .mining.fpgrowth import FPGrowth
from .mining.partition import Partition
from .mining.pruning import NullPruner, OSSMPruner
from .serve.service import BoundQueryService

__all__ = ["Session"]

_SEGMENTERS: dict[str, Any] = {
    "greedy": GreedySegmenter,
    "rc": RCSegmenter,
    "random": RandomSegmenter,
    "random-rc": RandomRCSegmenter,
    "random-greedy": RandomGreedySegmenter,
}

_GENERATORS: dict[str, Any] = {
    "quest": generate_quest,
    "skewed": generate_skewed,
    "alarms": generate_alarms,
}


class Session:
    """Fluent end-to-end pipeline over one transaction collection.

    Parameters
    ----------
    workers:
        Default worker count forwarded to mining (None = serial).
        Mining follows Apriori's ``workers=`` rule: counting fans out
        over bitmap thread shards (the default engine when workers are
        given) and any other named engine counts serially; DHP's chunk
        passes and Partition's phase 1 run on this many worker
        processes. Serving always evaluates in the service's own
        process.
    page_size:
        Page granularity used when the collection is paged for
        segmentation.
    """

    def __init__(
        self, *, workers: int | None = None, page_size: int = 100
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self.workers = workers
        self.page_size = int(page_size)
        self._database: TransactionDatabase | None = None
        self._segmentation: SegmentationResult | None = None
        self._ossm: OSSM | None = None
        self._services: list[BoundQueryService] = []

    # -- state accessors -------------------------------------------------

    @property
    def database(self) -> TransactionDatabase:
        """The loaded/generated collection (raises before one exists)."""
        if self._database is None:
            raise RuntimeError(
                "no database yet: call load(), use(), or generate() first"
            )
        return self._database

    @property
    def ossm(self) -> OSSM:
        """The current map (raises before segment()/use_ossm())."""
        if self._ossm is None:
            raise RuntimeError(
                "no OSSM yet: call segment() or use_ossm() first"
            )
        return self._ossm

    @property
    def segmentation(self) -> SegmentationResult | None:
        """Full result of the last segment() call, if any."""
        return self._segmentation

    # -- data ------------------------------------------------------------

    def load(self, path: str | os.PathLike[str]) -> "Session":
        """Load a transaction file (.dat/.txt/.npz) into the session."""
        self._database = data_io.load(os.fspath(path))
        return self

    def use(self, database: TransactionDatabase) -> "Session":
        """Adopt an already-built collection."""
        self._database = database
        return self

    def generate(self, kind: str = "quest", **params: Any) -> "Session":
        """Synthesize a workload (``quest``/``skewed``/``alarms``)."""
        generator = _GENERATORS.get(kind)
        if generator is None:
            raise ValueError(
                f"unknown workload kind {kind!r}; "
                f"expected one of {sorted(_GENERATORS)}"
            )
        self._database = generator(**params)
        return self

    # -- segmentation ----------------------------------------------------

    def segment(
        self,
        *,
        n_segments: int = 40,
        algorithm: str | Segmenter = "greedy",
        seed: int = 0,
        n_mid: int | None = None,
    ) -> "Session":
        """Page the collection and build its OSSM."""
        if isinstance(algorithm, Segmenter):
            segmenter = algorithm
        else:
            factory = _SEGMENTERS.get(algorithm)
            if factory is None:
                raise ValueError(
                    f"unknown segmenter {algorithm!r}; "
                    f"expected one of {sorted(_SEGMENTERS)}"
                )
            kwargs: dict[str, Any] = {}
            if algorithm in ("rc", "random", "random-rc", "random-greedy"):
                kwargs["seed"] = seed
            if algorithm in ("random-rc", "random-greedy") and n_mid:
                kwargs["n_mid"] = n_mid
            segmenter = factory(**kwargs)
        paged = PagedDatabase(self.database, page_size=self.page_size)
        self._segmentation = segmenter.segment(paged, n_segments=n_segments)
        self._ossm = self._segmentation.ossm
        return self

    def use_ossm(self, ossm: OSSM) -> "Session":
        """Adopt an existing map (e.g. loaded from .npz)."""
        self._ossm = ossm
        self._segmentation = None
        return self

    # -- growth ----------------------------------------------------------

    def extend(self, new_transactions: TransactionDatabase) -> "Session":
        """Grow the collection; the map advances one epoch.

        Any service handed out by :meth:`serve` is updated in place, so
        its epoch-tagged cache invalidates wholesale.
        """
        grown = extend_ossm(self.ossm, new_transactions,
                            page_size=self.page_size)
        self._ossm = grown
        if self._database is not None:
            self._database = self._database.concatenated(new_transactions)
        for service in self._services:
            service.update(grown)
        return self

    # -- mining ----------------------------------------------------------

    def mine(
        self,
        *,
        min_support: float | int,
        algorithm: str = "apriori",
        max_level: int | None = None,
        workers: int | None = None,
        engine: str | None = None,
    ) -> MiningResult:
        """Mine the collection, OSSM-pruned when a map has been built."""
        workers = self.workers if workers is None else workers
        pruner = (
            OSSMPruner(self._ossm) if self._ossm is not None else NullPruner()
        )
        if algorithm == "apriori":
            miner: Any = Apriori(
                pruner=pruner, max_level=max_level, workers=workers,
                engine=engine,
            )
        elif algorithm == "dhp":
            miner = DHP(pruner=pruner, max_level=max_level, workers=workers)
        elif algorithm == "partition":
            miner = Partition(
                max_level=max_level, workers=workers, engine=engine
            )
        elif algorithm == "depthproject":
            miner = DepthProject(pruner=pruner, max_level=max_level)
        elif algorithm == "fpgrowth":
            miner = FPGrowth(max_level=max_level)
        elif algorithm == "eclat":
            miner = Eclat(max_level=max_level)
        else:
            raise ValueError(f"unknown mining algorithm {algorithm!r}")
        return miner.mine(self.database, min_support)

    # -- serving ---------------------------------------------------------

    def serve(
        self,
        *,
        cache_size: int = 4096,
        max_pending: int = 1024,
        timeout: float | None = None,
        slo_target: float | None = None,
        slo_objective: float = 0.99,
    ) -> BoundQueryService:
        """A :class:`BoundQueryService` over the session's map.

        Keyword names match the service constructor one for one — the
        session only forwards. The session keeps a reference so
        :meth:`extend` can push epoch-advanced maps into it and
        :meth:`close` can release it.
        """
        service = BoundQueryService(
            self.ossm,
            cache_size=cache_size,
            max_pending=max_pending,
            timeout=timeout,
            slo_target=slo_target,
            slo_objective=slo_objective,
        )
        self._services.append(service)
        return service

    # -- lifecycle -------------------------------------------------------

    async def aclose(self) -> None:
        """Close every service this session handed out (async callers)."""
        services, self._services = self._services, []
        for service in services:
            await service.aclose()

    def close(self) -> None:
        """Close every service this session handed out.

        Service teardown is async (it drains in-flight batches), so
        this synchronous wrapper spins a private event loop. Inside a
        running loop, ``await session.aclose()`` instead.
        """
        if not self._services:
            return
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            asyncio.run(self.aclose())
        else:
            raise RuntimeError(
                "Session.close() called inside a running event loop; "
                "use 'await session.aclose()' instead"
            )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        db = len(self._database) if self._database is not None else None
        epoch = self._ossm.epoch if self._ossm is not None else None
        return (
            f"Session(transactions={db}, "
            f"segments="
            f"{self._ossm.n_segments if self._ossm is not None else None}, "
            f"epoch={epoch}, services={len(self._services)})"
        )
