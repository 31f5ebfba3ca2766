"""Zero-ordinate ingestion, refinement, and zeta derivatives."""

import numpy as np
import pytest

from xiverify import zeros
from xiverify.zeros import (ZeroRecord, load_zeros, prepare_zeros,
                            refine_zero, scan_zero_brackets, zeta_derivative)

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


def test_prepare_zeros_pipeline(sample_zeros_path):
    recs = prepare_zeros(sample_zeros_path, max_count=5)
    assert len(recs) == 5
    for rec in recs:
        assert rec.refined
        assert rec.zeta_prime is not None
    assert abs(recs[0].gamma - GAMMA_1) < 1e-9
    assert abs(recs[1].gamma - GAMMA_2) < 1e-9
