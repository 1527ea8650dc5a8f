"""The identity catalogue: every ``qeuclid verify`` suite at the CLI defaults.

Each suite is the single home of the identities it checks; unit tests keep
only the assertions no suite case or acceptance criterion makes.
"""

import json

import pytest

from qeuclid.verify import run_suite


@pytest.mark.parametrize(
    "suite", ["qarith", "ncalgebra", "starcalc", "qcalculus", "qexp", "schrodinger"]
)
def test_suite(suite):
    report = run_suite(suite)
    assert not report.failures, report.render()
    json.dumps(report.to_json(), sort_keys=True)
