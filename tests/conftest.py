import pytest

from spdorders import core


@pytest.fixture
def small_blocks(monkeypatch):
    """core.BLOCK_ROWS at 8, so that few rows cross several block boundaries: core._block_rows
    gives 128 rows at n = 2 (the 128-row split of every n before blocks were sized by n), 56 at
    n = 3, 32 at n = 4 and 20 at n = 5."""
    monkeypatch.setattr(core, "BLOCK_ROWS", 8)
