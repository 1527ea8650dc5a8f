"""The identity catalogue: every ``qeuclid verify`` suite at the CLI defaults.

Each suite is the single home of the identities it checks; unit tests keep
only the assertions no suite case or acceptance criterion makes.  The
canonical JSON of each report is pinned by its sha256, so a refactor that
renames, drops, adds or reorders a case, or changes a reported
configuration, shows here.
"""

import hashlib
import json

import pytest

from qeuclid.verify import run_suite

#: sha256 of json.dumps(report.to_json(), sort_keys=True) at seed 2024
DIGESTS = {
    "qarith": "1a7ea90f51628226a3a8178b5343c9f3bbd2838e871e46043b58bfef2fe411fa",
    "ncalgebra": "4c9ba83b7b8b3fecf68ff8cd03da6731e180c38831b2c8453a9c845beb19c989",
    "starcalc": "d31eab453463f22a00febac70aac4b4534b727883469ff995dc0bf08c04a59e7",
    "qcalculus": "47807d2274b00c43afec3a5e27c9fb127ace4917f869487de69d9be3549f3e80",
    "qexp": "1ebd2a1a28e87ac8a994dd96c9f5875a826bed3cbb85ff468d02269daf52aaf5",
    "schrodinger": "5eb935e46e0d6a1d20d69aed65a7adaddb5c44008cdecfe652f774ad061931ee",
}


@pytest.mark.parametrize("suite", DIGESTS)
def test_suite(suite):
    report = run_suite(suite)
    assert not report.failures, report.render()
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[suite], text


#: sha256 of json.dumps(report.to_json(), sort_keys=True) for ``--suite all``,
#: where one random stream feeds every suite in turn (the stdout of
#: ``qeuclid verify --json`` is this string and a newline)
ALL_DIGESTS = {
    2024: "fe9fefdf954e210295afe7341df947a95f6283fa71cf6ee0837f649652f57a8e",
    1: "6104df16144605f96f769a3dc1ee2e6a727fba1c5146df1d8912710e60c390c1",
}


@pytest.mark.parametrize("seed", ALL_DIGESTS)
def test_all_suites_in_one_stream(seed):
    report = run_suite("all", seed=seed)
    assert not report.failures, report.render()
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ALL_DIGESTS[seed], text
