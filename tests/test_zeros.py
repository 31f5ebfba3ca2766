"""Zero-ordinate ingestion, refinement, and zeta derivatives."""

import pathlib

import numpy as np
import pytest

from xiverify import zeros
from xiverify.specfun import zeta_and_prime
from xiverify.xikernel import xi_cap
from xiverify.zeros import ZeroRecord, load_zeros, prepare_zeros, refine_zeros

GAMMA_1 = 14.1347251417347
GAMMA_2 = 21.0220396387716
GAMMA_3 = 25.0108575801457

# the first 100 zero ordinates from mpmath.zetazero (see the file header)
ZETAZERO_100 = np.loadtxt(pathlib.Path(__file__).parent / "data"
                          / "zetazero_100.txt")


def scan_zero_brackets(t_min, t_max, step=0.05):
    """Sign-change brackets of Xi on a uniform grid over [t_min, t_max].

    The minimal gap between ordinates below 240 is about 0.7, so the
    default step cannot straddle two zeros in one cell; each returned
    (lo, hi) pair brackets exactly one ordinate.
    """
    grid = np.arange(t_min, t_max + step, step)
    vals = xi_cap(grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return [(float(grid[i]), float(grid[i + 1])) for i in flips]


def test_record_validation():
    rec = ZeroRecord(14.1, 0.8 + 0.1j)
    assert rec.gamma == 14.1
    assert rec.zeta_prime == 0.8 + 0.1j
    with pytest.raises(ValueError):
        ZeroRecord(0.0, 1.0)
    with pytest.raises(ValueError):
        ZeroRecord(-3.0, 1.0)


def test_record_requires_its_derivative():
    with pytest.raises(TypeError):
        ZeroRecord(14.1)
    with pytest.raises(TypeError):
        ZeroRecord(14.1, None)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                   float("-inf")])
def test_record_rejects_nonfinite(gamma):
    with pytest.raises(ValueError, match="positive"):
        ZeroRecord(gamma, 1.0)


class TestLoadZeros:
    def test_sample_file(self, sample_zeros_path):
        gammas = load_zeros(sample_zeros_path, max_count=100)
        assert len(gammas) == 100
        assert all(type(g) is float for g in gammas)
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
        assert abs(refine_zeros([seed])[0] - want) < 1e-9

    def test_sample_refinement_work(self, sample_zeros_path, monkeypatch):
        # one ordinate at a time, Xi is evaluated only for the sign
        # certificate: two points per zero
        points = []
        xi_cap = zeros.xi_cap

        def counted(t):
            points.append(np.size(t))
            return xi_cap(t)

        monkeypatch.setattr(zeros, "xi_cap", counted)
        for g in load_zeros(sample_zeros_path, max_count=100):
            assert abs(refine_zeros([g])[0] - g) < 1e-9
        assert points == [2] * 100

    def test_no_zero_nearby_raises(self):
        # Xi has no zero below gamma_1; from the seed 5 Newton's steps
        # head for t = 2.48 and stop at the window's end, 4.5
        with pytest.raises(ValueError, match="change sign"):
            refine_zeros([5.0])


def test_zeta_derivative_at_first_zero():
    # reference: 25-digit mpmath derivative at the first zero
    want = 0.78329651186703093 + 0.12469982974817109j
    got = zeta_and_prime(0.5 + 1j * GAMMA_1)[1]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_zeta_derivative_at_largest_sample_zero():
    # 30-digit mpmath zeta'(1/2 + i gamma) at the refined last sample
    # zero, where the eta series takes the most terms of any sample zero
    gamma = 236.5242296658162
    want = 2.2455848965356822 - 3.3041746292630608j
    got = zeta_and_prime(0.5 + 1j * gamma)[1]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_scan_brackets_below_fifty():
    brackets = scan_zero_brackets(0.0, 50.0)
    assert len(brackets) == 10
    for lo, hi in brackets:
        assert 0.0 <= lo < hi <= 50.0


class TestRefineZeros:
    def test_lockstep_refinement_work(self, sample_zeros_path, monkeypatch):
        # one zeta_and_prime call per Newton step (two on the sample), not
        # one per zero and step; one xi_cap call for the certificates; and
        # one more zeta_and_prime call for the derivatives of them all
        calls = {"xi_cap": [], "zeta_and_prime": []}
        for name in calls:
            def counted(x, _fn=getattr(zeros, name), _name=name):
                calls[_name].append(np.size(x))
                return _fn(x)
            monkeypatch.setattr(zeros, name, counted)
        recs = prepare_zeros(sample_zeros_path, max_count=100)
        assert len(recs) == 100
        assert calls["xi_cap"] == [200]
        assert calls["zeta_and_prime"] == [100, 100, 100]

    def test_sample_against_mpmath(self, sample_zeros_path):
        seeds = load_zeros(sample_zeros_path, 100)
        got = refine_zeros(seeds)
        assert np.max(np.abs(got - ZETAZERO_100)) <= 1e-13

    @pytest.mark.parametrize("offset", [-0.4, 0.4])
    def test_off_seeds_reach_sample_zeros(self, sample_zeros_path, offset):
        # a seed 0.4 off can sit nearer a neighbouring zero (the sample's
        # smallest gap is about 0.72); each must reach a zero of the
        # sample within 0.5 of itself, most of them their own
        seeds = np.array(load_zeros(sample_zeros_path, 100)) + offset
        got = refine_zeros(seeds)
        dist = np.abs(got[:, None] - ZETAZERO_100[None, :])
        assert np.max(dist.min(axis=1)) <= 1e-13
        assert np.max(np.abs(got - seeds)) <= 0.5
        assert np.mean(np.abs(got - ZETAZERO_100) <= 1e-13) >= 0.95

    def test_sample_file_provenance(self, sample_zeros_path):
        # the sample is the refined midpoints of the scan's brackets,
        # rounded to 9 decimals
        mids = [0.5 * (lo + hi) for lo, hi in scan_zero_brackets(10.0, 237.0)]
        table = load_zeros(sample_zeros_path, 1000)
        assert np.round(refine_zeros(mids), 9).tolist() == table

    def test_matches_table_and_scalar_refinement(self, sample_zeros_path,
                                                 zero_records):
        table = load_zeros(sample_zeros_path, 100)
        for g0, rec in zip(table, zero_records):
            assert abs(rec.gamma - g0) < 1e-9
            assert abs(rec.gamma - refine_zeros([g0])[0]) < 1e-11

    def test_one_bad_window_raises(self):
        with pytest.raises(ValueError, match="change sign"):
            refine_zeros([14.1, 5.0])

    def test_empty_input(self):
        assert refine_zeros([]).shape == (0,)


def test_batched_derivatives_against_mpmath(zero_records):
    # 30-digit mpmath zeta'(rho) at rho = mpmath.zetazero(k + 1) for every
    # 10th sample zero k, all taken from one zeta_and_prime call in
    # prepare_zeros
    refs = [
        (0, 14.134725141734695, 0.783296511867031 + 0.12469982974817109j),
        (10, 52.970321477714464, 2.344970632667445 + 0.6240181923932675j),
        (20, 79.33737502024937, 1.9673676408202183 + 1.7572444965098601j),
        (30, 103.72553804047834, 1.9181860435388025 - 1.0090828691886666j),
        (40, 124.25681855434577, 0.8537247685917665 + 2.152838883267503j),
        (50, 146.0009824867655, 2.4019772630781726 - 2.186227667978945j),
        (60, 165.5370691879004, 2.6471280288417987 - 2.124624941488847j),
        (70, 184.8744678483875, 0.20418884303568094 - 1.4803208726149486j),
        (80, 202.49359451414054, 2.1807129078074152 - 0.48084393200486647j),
        (90, 220.714918839314, 0.986240892781184 - 1.098120186728983j),
    ]
    for i, gamma, want in refs:
        rec = zero_records[i]
        assert abs(rec.gamma - gamma) < 1e-13
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
        assert type(rec.zeta_prime) is complex
    assert abs(recs[0].gamma - GAMMA_1) < 1e-9
    assert abs(recs[1].gamma - GAMMA_2) < 1e-9
