"""The bundled figure presets at two frames per point against stored CSVs.

``tests/data/golden/figN.csv`` holds ``render_csv(run_figure(name, frames=2),
extra_key="series")``.  Labels, SNR points, frame counts and bit error rates
must match exactly; SE and channel NMSE, which sum floating-point error
energies, to a relative 1e-9.
"""
import csv
import io
from pathlib import Path

import pytest

from afdmrsma.experiments import FIGURES, run_figure
from afdmrsma.harness import render_csv

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
EXACT = ("series", "snr_db", "frames", "ber_common", "ber_private", "ber_total")
CLOSE = ("se", "channel_nmse")


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_matches_golden(name):
    text = render_csv(run_figure(name, frames=2), extra_key="series")
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == want.splitlines()[0]
    got_rows, want_rows = _rows(text), _rows(want)
    assert len(got_rows) == len(want_rows)
    for got, ref in zip(got_rows, want_rows):
        assert [got[c] for c in EXACT] == [ref[c] for c in EXACT]
        for c in CLOSE:
            assert float(got[c]) == pytest.approx(float(ref[c]), rel=1e-9, abs=0.0), \
                (got["series"], got["snr_db"], c)
