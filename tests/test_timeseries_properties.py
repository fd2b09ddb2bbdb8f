"""Properties of the timeseries.csv record schema over random records.

`runner.COLUMNS` pairs each `stats.Diagnostics` field, in order, with its
CSV column and print factor. Rows written with `CSV_HEADER` and `_csv_row`
parse back through `_rows_up_to` (the restart-in-place reader) to the same
records bit for bit, as long as half of u_sq is a normal float or zero.
"""

import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graddivbox.runner import COLUMNS, CSV_HEADER, _csv_row, _rows_up_to
from graddivbox.stats import Diagnostics

FINITE = {"allow_nan": False, "allow_infinity": False}
# a u_sq below 2 * float_info.min has a subnormal half, which may lose u_sq's last bit
U_SQ = st.floats(**FINITE).filter(lambda x: x == 0 or abs(x) >= 2 * sys.float_info.min)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("timeseries") / "timeseries.csv"


def bits(records):
    return [struct.pack("<5d", *d, r) for d, r in records]


def test_columns_pair_with_the_diagnostics_fields_in_order():
    assert dict(zip(Diagnostics._fields, (name for name, _ in COLUMNS), strict=True)) == {
        "u_sq": "kinetic_energy", "eps_nu": "eps_nu", "eps_gamma": "eps_gamma", "div_sq": "div_norm_sq"}
    assert CSV_HEADER == "t,kinetic_energy,eps_nu,eps_gamma,div_norm_sq,budget_residual"
    for j, (_, factor) in enumerate(COLUMNS):
        one_channel = Diagnostics(*(1.0 if i == j else 0.0 for i in range(len(COLUMNS))))
        cells = [float(c) for c in _csv_row(2.0, one_channel, 3.0).split(",")]
        assert cells == [2.0, *(factor if i == j else 0.0 for i in range(len(COLUMNS))), 3.0]


@st.composite
def timeseries(draw):
    """(start_step, dt, records): the records of consecutive steps ending at start_step."""
    channels = st.builds(Diagnostics, U_SQ, st.floats(**FINITE), st.floats(**FINITE), st.floats(**FINITE))
    records = draw(st.lists(st.tuples(channels, st.floats(**FINITE)), min_size=1, max_size=6))
    start_step = draw(st.integers(len(records) - 1, 1000))
    return start_step, draw(st.floats(min_value=1e-300, max_value=1e3)), records


@settings(max_examples=100, deadline=None)
@given(timeseries())
def test_written_rows_parse_back_to_the_same_records(path, series):
    start_step, dt, records = series
    first = start_step + 1 - len(records)
    text = CSV_HEADER + "\n" + "".join(_csv_row(i * dt, d, r) for i, (d, r) in enumerate(records, first))
    path.write_text(text)
    head, back = _rows_up_to(str(path), start_step, dt, records[-1][0])
    assert head == text
    assert all(type(d) is Diagnostics for d, _ in back)
    assert bits(back) == bits(records)
