"""The serving path loads no scipy.

scipy costs about a second of import time and most of a serving
process's memory, and only two call sites use it: the level-2
triangle bound (``OSSM._triangle_bounds``, via ``pdist``) and the
correlation p-value (``ContingencyTable.p_value``, via ``chi2``). Each
check runs in a fresh interpreter, because the test process itself has
long since loaded scipy.
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


def test_serving_loads_no_scipy_and_the_triangle_bound_does(tmp_path):
    out = run_fresh(f"""
        import asyncio, sys

        import numpy as np

        import repro, repro.cli
        from repro import OSSM, BoundQueryService
        from repro.core.itemset_table import ItemsetTable

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        rng = np.random.default_rng(0)
        path = {str(tmp_path / "map.npz")!r}
        OSSM(rng.integers(0, 50, size=(6, 12))).save(path)
        ossm = OSSM.load(path)
        queries = [(0, 1), (2, 5, 7), (3,), (4, 11)]

        async def answer():
            service = BoundQueryService(ossm)
            try:
                return await service.query_batch(queries)
            finally:
                await service.aclose()

        bounds = asyncio.run(answer())
        assert bounds == [ossm.upper_bound(q) for q in queries], bounds
        assert scipy_modules() == [], scipy_modules()

        basis = np.array([0, 2, 3, 7, 11])
        table = ItemsetTable.pairs_of(basis)
        triangle = ossm.upper_bounds(table)
        gathered = ossm.upper_bounds(table.array)
        assert np.array_equal(triangle, gathered), (triangle, gathered)
        assert "scipy.spatial.distance" in sys.modules
        print("OK")
    """)
    assert "OK" in out


def test_pool_workers_start_with_scipy_loaded():
    out = run_fresh("""
        import sys

        from repro.mining.counting import make_pool

        def probe(_):
            return "scipy.spatial.distance" in sys.modules

        assert "scipy.spatial.distance" not in sys.modules
        pool = make_pool(2, 4)
        try:
            loaded = pool.run(probe, range(4))
        finally:
            pool.close()
        assert loaded == [True] * 4, loaded
        print("OK")
    """)
    assert "OK" in out

