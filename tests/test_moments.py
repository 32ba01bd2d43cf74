import json
import math
from fractions import Fraction

import pytest

from momexp import MomentSequence, SequenceError, growth_probe
from momexp.moments import load_custom, parse_specifier


class TestValues:
    def test_factorial(self):
        seq = MomentSequence.factorial()
        assert seq.value(5) == 120
        assert seq.value(0) == 1

    def test_q_factorial(self):
        seq = MomentSequence.q_factorial(2)
        # [1] [2] [3] = 1 * 3 * 7
        assert seq.value(3) == 21

    def test_geometric(self):
        assert MomentSequence.geometric(2).value(4) == 16

    def test_memoized_identical(self):
        seq = MomentSequence.mittag_leffler(2)
        assert seq.value(13) == seq.value(13)

    def test_normalization(self):
        for seq in (
            MomentSequence.factorial(),
            MomentSequence.q_factorial(3),
            MomentSequence.geometric(Fraction(7, 2)),
            MomentSequence.mittag_leffler(1.5),
            MomentSequence.custom(["1", "1/2"], rapid_growth_declared=False),
        ):
            assert seq.value(0) == 1

    def test_recurrences_exact(self):
        fac = MomentSequence.factorial()
        qf = MomentSequence.q_factorial(2)
        for p in range(1, 30):
            assert fac.value(p) == p * fac.value(p - 1)
            assert qf.value(p) == qf.q_number(p) * qf.value(p - 1)

    def test_ml1_matches_factorial(self):
        ml = MomentSequence.mittag_leffler(1)
        fac = MomentSequence.factorial()
        for p in range(31):
            assert math.isclose(ml.value(p), float(fac.value(p)), rel_tol=1e-12)

    def test_step_ratio(self):
        for seq in (MomentSequence.factorial(), MomentSequence.mittag_leffler(2)):
            for p in (1, 5, 20):
                assert math.isclose(
                    float(seq.step_ratio(p)),
                    float(seq.value(p - 1)) / float(seq.value(p)),
                    rel_tol=1e-12,
                )


class TestCustom:
    def test_m0_must_be_one(self):
        with pytest.raises(SequenceError):
            MomentSequence.custom(["2", "3"], rapid_growth_declared=False)

    def test_positive_required(self):
        with pytest.raises(SequenceError):
            MomentSequence.custom(["1", "-1/2"], rapid_growth_declared=False)

    def test_no_extrapolation(self):
        seq = MomentSequence.custom(["1", "2", "6"], rapid_growth_declared=False)
        assert seq.value(2) == 6
        with pytest.raises(SequenceError):
            seq.value(3)

    def test_rapid_growth_must_be_declared(self):
        with pytest.raises(SequenceError):
            MomentSequence("custom", values=["1", "2"])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(["1", "3/2", "15/4"]))
        seq = load_custom(path)
        assert seq.value(2) == Fraction(15, 4)


class TestMittagLefflerParameter:
    @pytest.mark.parametrize("k", [0, -1, math.nan, math.inf])
    def test_rejects_nonpositive_and_nonfinite(self, k):
        with pytest.raises(SequenceError):
            MomentSequence.mittag_leffler(k)


class TestRapidGrowthDefaults:
    def test_defaults(self):
        assert MomentSequence.factorial().rapid_growth_declared
        assert MomentSequence.mittag_leffler(2).rapid_growth_declared
        assert MomentSequence.q_factorial(2).rapid_growth_declared
        assert not MomentSequence.geometric(2).rapid_growth_declared


class TestGrowthProbe:
    def test_factorial_unbounded(self):
        assert not growth_probe(MomentSequence.factorial(), 64).finite_radius_suspected

    def test_geometric_plateau(self):
        report = growth_probe(MomentSequence.geometric(2), 64)
        assert report.finite_radius_suspected
        assert abs(report.min_root - 2.0) < 1e-9

    def test_q_factorial_unbounded(self):
        # oracle: [p]_2!^{1/p} keeps growing like 2^{(p-1)/2}
        report = growth_probe(MomentSequence.q_factorial(2), 32)
        assert not report.finite_radius_suspected

    def test_min_terms(self):
        with pytest.raises(ValueError):
            growth_probe(MomentSequence.factorial(), 4)


class TestSpecifiers:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("factorial", "factorial"),
            ("ml:2", "mittag_leffler"),
            ("qfac:2", "q_factorial"),
            ("geom:2", "geometric"),
        ],
    )
    def test_parse(self, spec, kind):
        assert parse_specifier(spec).kind == kind

    def test_unknown(self):
        with pytest.raises(SequenceError):
            parse_specifier("gevrey:2")
