"""Every BENCH_*.json at the root of the repository parses and holds the
fields a performance record needs: the machine, the Python version, the
Rat backend, the parent commit it was measured against, the end-to-end
numbers and the stage that moved."""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
REQUIRED = ("machine", "python", "rat_backend", "parent_commit", "end_to_end", "stage_moved")
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_has_the_required_fields(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if key not in record]
    assert not missing, f"{os.path.basename(path)} lacks {missing}"
    empty = [key for key in REQUIRED if record[key] in (None, "", {}, [])]
    assert not empty, f"{os.path.basename(path)} has empty {empty}"
