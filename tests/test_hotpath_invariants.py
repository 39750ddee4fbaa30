"""The hot-path invariant lint: catches violations, passes the real tree."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_hotpath_invariants.py"

sys.path.insert(0, str(REPO / "scripts"))

from check_hotpath_invariants import check_tree  # noqa: E402


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_real_tree_is_clean():
    problems = check_tree(REPO / "src")
    assert problems == []


def test_cli_exit_zero_on_clean_tree():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(REPO / "src")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "invariants hold" in result.stdout


def test_flags_perf_counter_outside_hostprof(tmp_path):
    _write(
        tmp_path,
        "repro/simt/rogue.py",
        "import time\n\ndef now():\n    return time.perf_counter()\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "rogue.py:4" in problems[0]
    assert "time.perf_counter" in problems[0]


def test_flags_from_time_import_perf_counter(tmp_path):
    _write(
        tmp_path,
        "repro/vmpi/rogue.py",
        "from time import perf_counter\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "from time import perf_counter" in problems[0]


def test_hostprof_itself_may_use_the_clock(tmp_path):
    _write(
        tmp_path,
        "repro/telemetry/hostprof.py",
        "import time\nCLOCK = time.perf_counter\n",
    )
    assert check_tree(tmp_path) == []


def test_flags_bytes_in_decode_path(tmp_path):
    _write(
        tmp_path,
        "repro/codec/frame.py",
        "def parse_frame(blob, verify=True):\n"
        "    return bytes(blob)\n"
        "\n"
        "def to_bytes(self):\n"
        "    return bytes(bytearray(4))\n",
    )
    problems = check_tree(tmp_path)
    # Encode-side to_bytes() may copy; the decode path may not.
    assert len(problems) == 1
    assert "parse_frame" in problems[0]
    assert "zero-copy" in problems[0]


def test_other_modules_may_call_bytes(tmp_path):
    _write(
        tmp_path,
        "repro/instrument/packer.py",
        "def parse_frame(blob):\n    return bytes(blob)\n",
    )
    # The decode-path rule is scoped to codec/frame.py only.
    assert check_tree(tmp_path) == []


def test_flags_ndjson_writes_outside_obs(tmp_path):
    _write(
        tmp_path,
        "repro/telemetry/rogue.py",
        "import json\n"
        "\n"
        "def dump(fh, records):\n"
        "    for r in records:\n"
        "        fh.write(json.dumps(r))\n"
        "        fh.write(json.dumps(r) + '\\n')\n"
        "    fh.write('plain text')\n"
        "    json.dump(records, fh)\n",
    )
    problems = check_tree(tmp_path)
    # Both record-per-line shapes are flagged; plain writes and a single
    # json.dump document (a Chrome trace) are not.
    assert [p.split(": ")[0] for p in problems] == [
        "repro/telemetry/rogue.py:5",
        "repro/telemetry/rogue.py:6",
    ]
    assert all("FileSink" in p for p in problems)


def test_obs_package_may_write_ndjson(tmp_path):
    _write(
        tmp_path,
        "repro/obs/__main__.py",
        "import json, sys\n\ndef out(r):\n    sys.stdout.write(json.dumps(r))\n",
    )
    assert check_tree(tmp_path) == []


def test_cli_exit_one_on_violation(tmp_path):
    _write(tmp_path, "repro/app.py", "import time\nT = time.perf_counter()\n")
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "violation" in result.stdout


def test_cli_exit_two_on_missing_root(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "nope")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


@pytest.mark.parametrize(
    "fn", ["peek_header", "peek_provenance", "frame_content_size", "_header_fields"]
)
def test_every_decode_path_function_is_covered(tmp_path, fn):
    _write(
        tmp_path,
        "repro/codec/frame.py",
        f"def {fn}(blob):\n    return bytes(blob)\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert fn in problems[0]
