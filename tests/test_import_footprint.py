"""Neither mining nor serving loads scipy.

numpy is the package's only runtime dependency: Equation (1) runs in
integer numpy kernels, and the correlation p-value is a closed form.
scipy would cost about a second of import time and ~30 MB of memory
in every process that touched it. The check runs in a fresh
interpreter, because the test process may have loaded scipy through
some other package.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_fresh(script: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_mining_p_values_and_serving_load_no_scipy(tmp_path):
    out = run_fresh(f"""
        import asyncio, sys

        import numpy as np

        import repro, repro.cli
        from repro import OSSM, BoundQueryService
        from repro.core.greedy import GreedySegmenter
        from repro.core.itemset_table import ItemsetTable
        from repro.data import PagedDatabase, TransactionDatabase
        from repro.mining.apriori import Apriori
        from repro.mining.correlations import contingency_table
        from repro.mining.counting import make_counter
        from repro.mining.pruning import OSSMPruner

        rng = np.random.default_rng(0)
        database = TransactionDatabase(
            [tuple(np.flatnonzero(rng.random(12) < 0.4)) for _ in range(300)],
            n_items=12,
        )
        pages = PagedDatabase(database, page_size=20)
        ossm = GreedySegmenter().segment(pages, 4).ossm

        # A +OSSM mining run: level 2 takes the triangle bound, level 3
        # the blocked gather.
        result = Apriori(
            pruner=OSSMPruner(ossm), counter=make_counter("bitmap"),
            max_level=3,
        ).mine(database, 30)
        assert len(result.levels) >= 3, result.levels
        basis = np.array([0, 2, 3, 7, 11])
        table = ItemsetTable.pairs_of(basis)
        assert np.array_equal(
            ossm.upper_bounds(table), ossm.upper_bounds(table.array)
        )

        p_value = contingency_table(database, (0, 1, 2)).p_value()
        assert 0.0 <= p_value <= 1.0, p_value

        path = {str(tmp_path / "map.npz")!r}
        ossm.save(path)
        served = OSSM.load(path)
        queries = [(0, 1), (2, 5, 7), (3,), (4, 11)]

        async def answer():
            service = BoundQueryService(served)
            try:
                return await service.query_batch(queries)
            finally:
                await service.aclose()

        bounds = asyncio.run(answer())
        assert bounds == [ossm.upper_bound(q) for q in queries], bounds

        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert scipy == [], scipy
        print("OK")
    """)
    assert "OK" in out
