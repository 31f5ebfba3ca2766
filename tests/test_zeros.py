"""Zero-ordinate ingestion, refinement, and zeta derivatives."""

import numpy as np
import pytest

from xiverify import zeros
from xiverify.zeros import (ZeroRecord, load_zeros, prepare_zeros,
                            refine_zero, refine_zeros, scan_zero_brackets,
                            zeta_derivative)

GAMMA_1 = 14.1347251417347
GAMMA_2 = 21.0220396387716
GAMMA_3 = 25.0108575801457


def test_record_validation():
    rec = ZeroRecord(14.1)
    assert rec.gamma == 14.1
    assert rec.refined is False
    assert rec.zeta_prime is None
    with pytest.raises(ValueError):
        ZeroRecord(0.0)
    with pytest.raises(ValueError):
        ZeroRecord(-3.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                   float("-inf")])
def test_record_rejects_nonfinite(gamma):
    with pytest.raises(ValueError, match="positive"):
        ZeroRecord(gamma)


class TestLoadZeros:
    def test_sample_file(self, sample_zeros_path):
        recs = load_zeros(sample_zeros_path, max_count=100)
        assert len(recs) == 100
        gammas = [r.gamma for r in recs]
        assert gammas == sorted(gammas)
        assert abs(gammas[0] - GAMMA_1) < 1e-8

    def test_max_count_truncates(self, sample_zeros_path):
        assert len(load_zeros(sample_zeros_path, max_count=7)) == 7

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.13\nnot-a-number\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_zeros(str(p), max_count=10)

    def test_rejects_nonpositive(self, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("-14.13\n")
        with pytest.raises(ValueError, match="positive"):
            load_zeros(str(p), max_count=10)

    def test_rejects_descending(self, tmp_path):
        p = tmp_path / "desc.txt"
        p.write_text("21.02\n14.13\n")
        with pytest.raises(ValueError, match="ascending"):
            load_zeros(str(p), max_count=10)

    def test_skips_blank_lines(self, tmp_path):
        p = tmp_path / "blanks.txt"
        p.write_text("14.134725\n\n21.022040\n\n")
        assert len(load_zeros(str(p), max_count=10)) == 2


class TestRefineZero:
    @pytest.mark.parametrize("seed,want", [
        (14.1, GAMMA_1),
        (21.0, GAMMA_2),
        (25.0, GAMMA_3),
    ])
    def test_refines_to_reference(self, seed, want):
        assert abs(refine_zero(seed) - want) < 1e-9

    def test_sample_refinement_work(self, sample_zeros_path, monkeypatch):
        # Illinois steps need about 13 Xi values per zero on the sample;
        # the bound leaves room while catching a fall back to slow steps
        points = []
        xi_cap = zeros.xi_cap

        def counted(t):
            points.append(np.size(t))
            return xi_cap(t)

        monkeypatch.setattr(zeros, "xi_cap", counted)
        for rec in load_zeros(sample_zeros_path, max_count=100):
            assert abs(refine_zero(rec.gamma) - rec.gamma) < 1e-9
        assert sum(points) <= 2000

    def test_no_zero_nearby_raises(self):
        # Xi has no zero below gamma_1; a seed at 5 finds no sign change
        with pytest.raises(ValueError):
            refine_zero(5.0)


def test_zeta_derivative_at_first_zero():
    # reference: 25-digit mpmath derivative at the first zero
    want = 0.78329651186703093 + 0.12469982974817109j
    got = zeta_derivative(GAMMA_1)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_zeta_derivative_at_largest_sample_zero():
    # 30-digit mpmath zeta'(1/2 + i gamma) at the refined last sample
    # zero, where the eta series takes the most terms of any sample zero
    gamma = 236.5242296658162
    want = 2.2455848965356822 - 3.3041746292630608j
    got = zeta_derivative(gamma)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_scan_brackets_below_fifty():
    brackets = scan_zero_brackets(0.0, 50.0)
    assert len(brackets) == 10
    for lo, hi in brackets:
        assert 0.0 <= lo < hi <= 50.0


def _illinois_reference(xi, gamma0):
    """One ordinate at a time, scalar floats: the loop refine_zeros runs
    in lockstep, kept as the reference it must match bit for bit."""
    lo, hi = gamma0 - 0.5, gamma0 + 0.5
    flo, fhi = float(xi(lo)), float(xi(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        grid = np.arange(lo, hi + 1e-12, 0.02)
        vals = xi(grid)
        i = int(np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][0])
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo, fhi = float(vals[i]), float(vals[i + 1])
    kept = None
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        x = hi - fhi * (hi - lo) / (fhi - flo)
        margin = 1e-3 * (hi - lo)
        x = min(max(x, lo + margin), hi - margin)
        fx = float(xi(x))
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
            if kept == "lo":
                flo *= 0.5
            kept = "lo"
        else:
            lo, flo = x, fx
            if kept == "hi":
                fhi *= 0.5
            kept = "hi"
    return 0.5 * (lo + hi)


class TestRefineZeros:
    def test_lockstep_equals_scalar_reference(self, monkeypatch):
        # with a stand-in whose values do not depend on the batch (Xi's
        # eta term count follows the batch's largest ordinate), lockstep
        # and one-at-a-time refinement must agree exactly; the chirp's
        # sign changes close in with t, so about half the windows have
        # ends of one sign and take the scan fallback
        def fake_xi(t):
            t = np.asarray(t, dtype=np.float64)
            return np.sin(0.1 * t * t) + 0.2

        seeds = np.linspace(20.0, 60.0, 400)
        want = [_illinois_reference(fake_xi, g) for g in seeds]
        monkeypatch.setattr(zeros, "xi_cap", fake_xi)
        np.testing.assert_array_equal(refine_zeros(seeds), want)

    def test_lockstep_refinement_work(self, sample_zeros_path, monkeypatch):
        # one xi_cap call per lockstep step (about 19 on the sample), not
        # one per zero and step; and one zeta_eta_prime call for them all
        calls = {"xi_cap": [], "zeta_eta_prime": []}
        for name in calls:
            def counted(x, _fn=getattr(zeros, name), _name=name):
                calls[_name].append(np.size(x))
                return _fn(x)
            monkeypatch.setattr(zeros, name, counted)
        recs = prepare_zeros(sample_zeros_path, max_count=100)
        assert len(recs) == 100
        assert len(calls["xi_cap"]) <= 30
        assert sum(calls["xi_cap"]) <= 2000
        assert calls["zeta_eta_prime"] == [100]

    def test_matches_table_and_scalar_refinement(self, sample_zeros_path,
                                                 zero_records):
        table = [rec.gamma for rec in load_zeros(sample_zeros_path, 100)]
        for g0, rec in zip(table, zero_records):
            assert rec.refined
            assert abs(rec.gamma - g0) < 1e-9
            assert abs(rec.gamma - refine_zero(g0)) < 1e-11

    def test_scan_fallback_and_exact_zero(self, monkeypatch):
        # a cubic stand-in for Xi with zeros at 10.01, 10.3 and 20: the
        # window of 9.9 has ends of one sign, so it is scanned for the
        # first sign change; the windows of 20.5 and 19.5 end exactly on
        # the zero at 20, at their lo and hi end
        def fake_xi(t):
            t = np.asarray(t, dtype=np.float64)
            return (t - 10.01) * (t - 10.3) * (t - 20.0)

        monkeypatch.setattr(zeros, "xi_cap", fake_xi)
        got = refine_zeros([9.9, 20.5, 19.5])
        assert abs(got[0] - 10.01) < 1e-12
        assert got[1] == 20.0
        assert got[2] == 20.0

    def test_one_bad_window_raises(self):
        with pytest.raises(ValueError, match="change sign"):
            refine_zeros([14.1, 5.0])

    def test_empty_input(self):
        assert refine_zeros([]).shape == (0,)


def test_batched_derivatives_against_mpmath(zero_records):
    # 30-digit mpmath zeta'(1/2 + i gamma) at every 10th refined sample
    # zero, all taken from one zeta_eta_prime call in prepare_zeros
    refs = [
        (0, 14.134725141734705, 0.7832965118670335 + 0.12469982974816403j),
        (10, 52.970321477714485, 2.344970632667489 + 0.6240181923931485j),
        (20, 79.33737502024937, 1.9673676408202196 + 1.7572444965098593j),
        (30, 103.72553804047854, 1.9181860435380136 - 1.009082869189628j),
        (40, 124.25681855434578, 0.8537247685918992 + 2.1528388832675156j),
        (50, 146.00098248676557, 2.40197726307774 - 2.186227667979196j),
        (60, 165.53706918790039, 2.647128028842095 - 2.1246249414886136j),
        (70, 184.8744678483875, 0.2041888430357504 - 1.4803208726149923j),
        (80, 202.4935945141405, 2.1807129078074445 - 0.48084393200469105j),
        (90, 220.71491883931452, 0.9862408927781265 - 1.0981201867296475j),
    ]
    for i, gamma, want in refs:
        rec = zero_records[i]
        assert abs(rec.gamma - gamma) < 1e-11
        assert abs(rec.zeta_prime - want) <= 1e-12 * abs(want)


def test_prepare_zeros_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no ordinates"):
        prepare_zeros(str(p), max_count=100)


def test_prepare_zeros_pipeline(sample_zeros_path):
    recs = prepare_zeros(sample_zeros_path, max_count=5)
    assert len(recs) == 5
    for rec in recs:
        assert rec.refined
        assert rec.zeta_prime is not None
    assert abs(recs[0].gamma - GAMMA_1) < 1e-9
    assert abs(recs[1].gamma - GAMMA_2) < 1e-9
