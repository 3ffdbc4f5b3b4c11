import math
from dataclasses import replace

import numpy as np

from qcs import spin_models as sm
from qcs.verify import WARN_CHECKS, _check_stereo_round_trip, _check_surface_extrema, format_report, run_suite


def test_suite_passes_and_reports_known_warns():
    results = run_suite(seed=0)
    statuses = {r.name: r.status for r in results}
    assert all(s in ("PASS", "WARN") for s in statuses.values()), statuses
    for name in WARN_CHECKS:
        assert statuses[name] == "WARN"
    warn_count = sum(1 for s in statuses.values() if s == "WARN")
    assert warn_count == len(WARN_CHECKS)


def test_report_is_reproducible():
    first = format_report(run_suite(seed=4), seed=4)
    second = format_report(run_suite(seed=4), seed=4)
    assert first == second
    assert first.endswith("result: PASS\n")
    assert "summary:" in first


def test_different_seeds_still_pass():
    for seed in (1, 9):
        results = run_suite(seed=seed)
        assert all(r.status != "FAIL" for r in results)


def test_stereo_round_trip_near_the_south_pole():
    # Seeds whose antipodal labels sit near z = -1, where (x + iy) / (1 + z)
    # cancelled to 1.27e-11 and 1.18e-12 against the check's 1e-12.
    for seed in (104, 1008208770):
        assert _check_stereo_round_trip(np.random.Generator(np.random.PCG64(seed))) <= 1e-12


def test_surface_extrema_check_reads_kinds_and_values_from_the_oracle(monkeypatch):
    """A PG+ MIN <-> MAX swap keeps the extremum counts, and values 1e-5 off keep every position; the check reads
    kinds and values from the scalar oracle, so it rejects both."""
    sort = sm._sort_extrema
    flip = {sm.MIN: sm.MAX, sm.MAX: sm.MIN}

    def swapped(extrema):
        rows = sort(extrema)
        if {e.kind for e in rows} == {sm.MIN, sm.MAX}:
            return tuple(replace(e, kind=flip[e.kind]) for e in rows)
        return rows

    rng = np.random.default_rng(0)
    assert 0.0 < _check_surface_extrema(rng) <= 1e-6
    monkeypatch.setattr(sm, "_sort_extrema", swapped)
    assert _check_surface_extrema(rng) == math.inf
    shifted = lambda extrema: tuple(replace(e, value=e.value + 1e-5) for e in sort(extrema))
    monkeypatch.setattr(sm, "_sort_extrema", shifted)
    assert abs(_check_surface_extrema(rng) - 1e-5) <= 1e-8
