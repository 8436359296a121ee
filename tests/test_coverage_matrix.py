"""The check-coverage matrix, regenerated, against the recorded file."""

import json

import coverage_matrix


def test_coverage_matrix_matches_the_recorded_file():
    # a change that moves a cell re-records the file with
    # ``python tests/coverage_matrix.py --write`` and names the cell
    recorded = json.loads(coverage_matrix.RECORD.read_text(encoding="utf-8"))
    assert coverage_matrix.build() == recorded
