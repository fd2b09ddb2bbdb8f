"""Properties of the timeseries.csv record schema over random records.

The `stats.Diagnostics` fields are the CSV columns between t and
budget_residual, in order, printed as they are held. Rows written with
`CSV_HEADER` and `_csv_row` parse back through `_rows_up_to` (the
restart-in-place reader) to the same records bit for bit, for every finite
float, subnormals included.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from graddivbox.runner import CSV_HEADER, _csv_row, _rows_up_to
from graddivbox.stats import Diagnostics

FINITE = {"allow_nan": False, "allow_infinity": False}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("timeseries") / "timeseries.csv"


def bits(records):
    return [struct.pack("<5d", *d, r) for d, r in records]


def test_columns_are_the_diagnostics_fields_in_order():
    assert CSV_HEADER == "t,kinetic_energy,eps_nu,eps_gamma,div_norm_sq,budget_residual"
    assert [float(c) for c in _csv_row(2.0, Diagnostics(0.25, 0.5, 0.75, 1.0), 3.0).split(",")] == [
        2.0, 0.25, 0.5, 0.75, 1.0, 3.0]


@st.composite
def timeseries(draw):
    """(start_step, dt, records): the records of consecutive steps ending at start_step."""
    channels = st.builds(Diagnostics, *[st.floats(**FINITE)] * len(Diagnostics._fields))
    records = draw(st.lists(st.tuples(channels, st.floats(**FINITE)), min_size=1, max_size=6))
    start_step = draw(st.integers(len(records) - 1, 1000))
    return start_step, draw(st.floats(min_value=1e-300, max_value=1e3)), records


@settings(max_examples=100, deadline=None)
@given(timeseries())
# a kinetic energy whose last bit a print factor of 1/2 would lose
@example((0, 1.0, [(Diagnostics(2.0 ** -1022 * (1 + 2.0 ** -52), 0.0, 0.0, 0.0), 0.0)]))
def test_written_rows_parse_back_to_the_same_records(path, series):
    start_step, dt, records = series
    first = start_step + 1 - len(records)
    text = CSV_HEADER + "\n" + "".join(_csv_row(i * dt, d, r) for i, (d, r) in enumerate(records, first))
    path.write_text(text)
    head, back = _rows_up_to(str(path), start_step, dt, records[-1][0])
    assert head == text
    assert all(type(d) is Diagnostics for d, _ in back)
    assert bits(back) == bits(records)
