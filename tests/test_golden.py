import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_golden_digests(tmp_path):
    """Every file the fixed CLI corpus writes has the bytes recorded in
    tests/golden.json; a change meant to alter outputs rewrites the table
    with ``python3 tools/golden.py --write``."""
    golden = _golden()
    want = json.loads(golden.GOLDEN_JSON.read_text())
    got = golden.digests(tmp_path)
    changed = sorted(p for p in set(want) & set(got) if want[p] != got[p])
    assert (sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            changed) == ([], [], [])
