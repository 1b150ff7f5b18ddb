import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from grmk import ffield  # noqa: E402  (imported from SRC, inserted above)

FIXTURES = ROOT / "fixtures"


@pytest.fixture(autouse=True)
def fresh_residue_fields():
    """Every test starts with no residue-field context built, so a test that
    spies on their memos (`koszul_memo`, `ac_closure_memo`) sees the same
    cold state alone and in the whole suite, whatever ran before it."""
    ffield.residue_field.cache_clear()


@pytest.fixture
def fixtures_dir():
    return FIXTURES
