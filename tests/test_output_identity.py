"""`tools/output_identity.py --compare` gates: it exits 1 unless two output trees hold the same bytes, and ends with a summary line."""

import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_identity.py")


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


@pytest.mark.parametrize("change, code, line", [
    ({}, 0, "seed_0/run/summary.json: byte-equal"),
    ({"seed_0/run/summary.json": b'{"eps_avg": 0.126}'}, 1, "seed_0/run/summary.json: differs"),
    ({"seed_0/extra.txt": b"0x1.0p+0\n"}, 1, "seed_0/extra.txt: only in "),
], ids=["equal", "changed-byte", "one-side-only"])
def test_compare_exits_1_on_any_difference(tmp_path, change, code, line):
    files = {"seed_0/run/summary.json": b'{"eps_avg": 0.125}', "seed_0/run/timeseries.csv": b"t,u_sq\n0,1.5\n"}
    a = write_tree(tmp_path / "a", files)
    b = write_tree(tmp_path / "b", {**files, **change})
    out = subprocess.run([sys.executable, TOOL, "--compare", a, b], capture_output=True, text=True, timeout=60)
    assert out.returncode == code, out.stdout + out.stderr
    assert line in out.stdout


def test_compare_names_a_difference_in_key_order_only(tmp_path):
    # still a difference: the file is counted and the exit is 1
    a = write_tree(tmp_path / "a", {"seed_0/run/summary.json": b'{"eps_avg": 0.125, "U_T": 2.0}'})
    b = write_tree(tmp_path / "b", {"seed_0/run/summary.json": b'{"U_T": 2.0, "eps_avg": 0.125}'})
    out = subprocess.run([sys.executable, TOOL, "--compare", a, b], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stdout + out.stderr
    assert out.stdout.splitlines() == ["seed_0/run/summary.json: differs in key order only", "1 of 1 files differ"]


@pytest.mark.parametrize("change, summary", [
    ({}, "0 of 2 files differ"),
    ({"seed_0/run/summary.json": b'{"eps_avg": 0.126, "U_T": 2.0}',
      "seed_0/run/timeseries.csv": b"t,u_sq\n0,1.5000001\n"},
     "2 of 2 files differ; largest relative difference 0.00794, in seed_0/run/summary.json at eps_avg"),
    ({"seed_0/extra.txt": b"0x1.0p+0\n"}, "1 of 3 files differ"),
], ids=["equal", "two-files-differ", "one-side-only"])
def test_compare_ends_with_the_count_and_the_largest_difference(tmp_path, change, summary):
    files = {"seed_0/run/summary.json": b'{"eps_avg": 0.125, "U_T": 2.0}',
             "seed_0/run/timeseries.csv": b"t,u_sq\n0,1.5\n"}
    a = write_tree(tmp_path / "a", files)
    b = write_tree(tmp_path / "b", {**files, **change})
    out = subprocess.run([sys.executable, TOOL, "--compare", a, b], capture_output=True, text=True, timeout=60)
    assert out.stdout.splitlines()[-1] == summary
