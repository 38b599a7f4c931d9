"""A wrong result is counted as a failed item, never passed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tamper.py
"""

import pytest

import segre_secant as ss
import workloads


@pytest.fixture(scope="module")
def certificate_items():
    inputs = workloads.build_inputs("certificates", workloads.DEFAULT_SEED, jobs=1)
    return workloads.canonical_items("certificates", workloads.run_pass(inputs))


def test_recorded_certificates_pass(certificate_items):
    attempted, failed = workloads.check("certificates", 7, certificate_items)
    assert attempted == len(certificate_items) and failed == []


def test_flipped_certificate_dimension_fails(certificate_items):
    items = dict(certificate_items)
    expected_dim, dim, defect = items["corollary:2,3,5"]
    items["corollary:2,3,5"] = [expected_dim, dim + 1, defect - 1]
    attempted, failed = workloads.check("certificates", 7, items)
    assert attempted == len(items) and failed == ["corollary:2,3,5"]


def test_missing_item_fails(certificate_items):
    items = dict(certificate_items)
    del items["replay:3,4,1"]
    attempted, failed = workloads.check("certificates", 7, items)
    assert attempted == len(certificate_items) and failed == ["replay:3,4,1"]


def _verify_items(flip=None):
    """Verify rows of the cells (2, 1, 3, b), with the row (b, s) = flip made wrong."""
    config = workloads._sweep_config((2,), (3,), 3, (ss.DEFAULT_PRIME, ss.SECOND_PRIME), 0, 1)
    payload, _, _ = ss.cli.run_verify(config)
    rows = payload["cells"]
    for row in rows:
        if (row["b"], row["s"]) == flip:
            row["computed_dim"] += 1
            row["defect"] -= 1
    return workloads.canonical_items("sweep", {"rows": rows, "errors": payload["errors"]})


def test_flipped_verify_row_fails_closed_form_and_digest():
    honest = _verify_items()
    reference = {key: workloads.item_hash(value) for key, value in honest.items()}
    assert workloads.check("sweep", 0, honest, reference) == (len(honest), [])
    recorded = workloads.load_reference("sweep", 0)
    assert all(recorded[key] == reference[key] for key in honest)

    tampered = _verify_items(flip=(1, 5))  # (2, 1, 3, 1, 5) is defective: 18, not 19
    assert workloads.check("sweep", 0, tampered, reference) == (len(honest), ["row:2,1,3,1,5"])
    # The digest alone also catches a change the closed form would accept.
    reference["row:2,1,3,1,4"] = "0" * 16
    assert workloads.check("sweep", 0, honest, reference)[1] == ["row:2,1,3,1,4"]


def test_cross_check_disagreement_fails_on_held_out_seed():
    spec = ss.SegreVeroneseSpec(2, 1, 3, 1)
    tangent = ss.secant_dimension(spec, 5, trials=2, seed=3)
    reduction = ss.secant_dimension_via_reduction(spec, 5, trials=2, seed=3)
    key = "spec0:2,1,3,1,5"
    honest = {key: [tangent.computed_dim, reduction.computed_dim, tangent.expected_dim]}
    assert workloads.load_reference("cross-check", 12345) is None
    assert workloads.check("cross-check", 12345, honest) == (1, [])
    flipped = {key: [tangent.computed_dim + 1, reduction.computed_dim, tangent.expected_dim]}
    assert workloads.check("cross-check", 12345, flipped) == (1, [key])
