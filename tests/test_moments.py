import json
import math
import sys
import threading
import time
from fractions import Fraction

import pytest

from momexp import MomentSequence, SequenceError, growth_probe, phi_coefficients
from momexp.moments import _KINDS, load_custom, parse_specifier

SPECS_WITH_FLOAT_RATIOS = ("factorial", "qfac:2", "qfac:3/2", "geom:5/3", "ml:2",
                           "ml:0.5", "custom")


def _sequence(spec, table):
    if spec == "custom":
        return MomentSequence.custom(table, rapid_growth_declared=True)
    return parse_specifier(spec)


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
        # the memoized float row holds the correctly rounded exact ratio
        # (the lgamma value for ml:k), whether it is filled upward or at once
        table = [str(math.factorial(p) * 3**p) for p in range(61)]
        for spec in SPECS_WITH_FLOAT_RATIOS:
            for order in (range(1, 61), range(60, 0, -1)):
                seq = _sequence(spec, table)  # fresh: empty memo
                got = {p: seq.float_step_ratio(p) for p in order}
                assert got == {p: float(seq.step_ratio(p)) for p in got}, spec
        short = MomentSequence.custom(table[:10], rapid_growth_declared=True)
        assert short.float_step_ratio(9) == float(short.step_ratio(9))
        for ratio in (short.step_ratio, short.float_step_ratio):
            with pytest.raises(SequenceError):
                ratio(10)
        with pytest.raises(ValueError):
            short.float_step_ratio(0)

    @pytest.mark.parametrize("spec", ["factorial", "qfac:2", "qfac:3/2", "geom:3/7",
                                      "ml:2", "ml:0.1", "ml:1.2345678", "ml:7"])
    def test_log_convex_kinds_have_falling_float_step_ratios(self, spec):
        # the float sums bound every later term ratio by the current one
        seq = parse_specifier(spec)
        assert seq.rules.log_convex
        ratios = [seq.float_step_ratio(p) for p in range(1, 400)]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("spec, order", [
        ("ml:2", 2), ("ml:2.0", 2), ("ml:3", 3), ("ml:5", 5), ("ml:1", 1),
        ("ml:1.5", None), ("ml:0.5", None), ("ml:12", 12), ("ml:12.5", None),
        ("factorial", 1), ("qfac:2", None), ("geom:2", None)])
    def test_ramification_order(self, spec, order):
        # m(p + k) = (1 + p/k) m(p): the matrix series is summed in (Az)^k
        seq = parse_specifier(spec)
        assert (seq.rules.ramify and seq.rules.ramify(seq.param)) == order
        if order:
            for p in range(40):
                assert math.isclose(seq.value(p + order), (1 + p / order) * seq.value(p),
                                    rel_tol=1e-13)

    def test_float_ratios_threads_agree_with_one_thread(self):
        # the row fills m(0..p) before it takes the lock that value() takes
        want = [float(MomentSequence.q_factorial(2).step_ratio(p)) for p in range(1, 61)]
        seq = MomentSequence.q_factorial(2)  # fresh: empty memo
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()
            results.append([seq.float_step_ratio(p) for p in range(1, 61)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # daemon threads: a deadlocked worker must not hold up exit
            threads = [threading.Thread(target=worker, daemon=True) for _ in range(6)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 6

    def test_ml_ratio_rows_past_gamma_range(self):
        seq = MomentSequence.mittag_leffler(2)
        assert seq.value(341) < math.inf == seq.value(342)
        for q in (342, 350, 400):
            row = seq.ratio_row(q)
            assert len(row) == q + 1 and all(map(math.isfinite, row))
            assert row == row[::-1] and row[0] == row[-1] == 1.0
        # the log-gamma form agrees with the direct quotient where both exist
        lg = [seq.log_value(n) for n in range(301)]
        for n, direct in enumerate(seq.ratio_row(300)):
            logged = math.exp(lg[300] - (lg[n] + lg[300 - n]))
            assert math.isclose(logged, direct, rel_tol=1e-12)
        phis = phi_coefficients(MomentSequence.mittag_leffler(2), 400)
        assert not any(map(math.isnan, phis))


def _gaussian_binomials(q, P):
    """Rows of [p choose n]_q for p <= P by the q-Pascal rule
    [p, n] = [p - 1, n - 1] + q^n [p - 1, n], with [p, 0] = [p, p] = 1."""
    rows = [[Fraction(1)]]
    for p in range(1, P + 1):
        prev = rows[-1]
        rows.append([Fraction(1)] + [prev[n - 1] + q**n * prev[n] for n in range(1, p)]
                    + [Fraction(1)])
    return rows


class TestRatioRows:
    """ratio_row(p)[n] = m(p) / (m(n) m(p - n)), against values computed
    without momexp."""

    P = 40

    def check(self, seq, want):
        for p in range(self.P + 1):
            row = seq.ratio_row(p)
            assert all(type(x) is Fraction for x in row)
            assert list(row) == want[p], p

    def test_factorial_is_binomial(self):
        want = [[Fraction(math.comb(p, n)) for n in range(p + 1)] for p in range(self.P + 1)]
        self.check(MomentSequence.factorial(), want)

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
    def test_q_factorial_is_gaussian_binomial(self, q):
        self.check(MomentSequence.q_factorial(q), _gaussian_binomials(q, self.P))

    def test_geometric_is_one(self):
        self.check(parse_specifier("geom:5/3"),
                   [[Fraction(1)] * (p + 1) for p in range(self.P + 1)])

    def test_custom_table(self):
        table = [Fraction(1)] + [Fraction(3 * p + 1, 7 * p % 11 + 1) for p in range(1, self.P + 1)]
        seq = MomentSequence.custom([str(v) for v in table], rapid_growth_declared=False)
        self.check(seq, [[table[p] / (table[n] * table[p - n]) for n in range(p + 1)]
                         for p in range(self.P + 1)])

    def test_factorial_phi_alternates(self):
        # E(z)^{-1} = e^{-z}, whose moment-basis coefficients are (-1)^p
        assert phi_coefficients(MomentSequence.factorial(), self.P) == [
            (-1) ** p for p in range(self.P + 1)]


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


class TestInvalidSequences:
    @pytest.mark.parametrize("build", [
        lambda: MomentSequence("gevrey", 2),
        lambda: MomentSequence.q_factorial(1),
        lambda: MomentSequence.q_factorial(Fraction(1, 2)),
        lambda: MomentSequence.geometric(0),
        lambda: MomentSequence.geometric(-2),
        lambda: MomentSequence.custom([], rapid_growth_declared=True),
        lambda: MomentSequence("factorial", 5),
        lambda: MomentSequence("custom", 5, values=["1", "2"], rapid_growth_declared=True),
    ], ids=["unknown-kind", "q-one", "q-below-one", "b-zero", "b-negative",
            "empty-custom-table", "factorial-parameter", "custom-parameter"])
    def test_rejected(self, build):
        with pytest.raises(SequenceError):
            build()

    @pytest.mark.parametrize("param", ["two", None, [2], 1j, True, False],
                             ids=["word", "none", "list", "complex", "true", "false"])
    @pytest.mark.parametrize("kind", [kind for kind, row in _KINDS.items()
                                      if row.param or row.value is None])
    def test_parameter_that_is_not_a_number(self, kind, param):
        # a custom table's numbers are its values; a bool is not taken as 0 or 1
        with pytest.raises(SequenceError, match="must be (rational|a real number), got"):
            if _KINDS[kind].param:
                MomentSequence(kind, param)
            else:
                MomentSequence.custom(["1", param, "2"], rapid_growth_declared=True)

    @pytest.mark.parametrize("call", [
        lambda s: s.value(-1),
        lambda s: s.step_ratio(0),
        lambda s: s.float_step_ratio(0),
    ], ids=["value", "step_ratio", "float_step_ratio"])
    def test_index_out_of_range(self, call):
        with pytest.raises(ValueError):
            call(MomentSequence.factorial())


class TestMittagLefflerParameter:
    @pytest.mark.parametrize("k", [0, -1, math.nan, math.inf, 10**400])
    def test_rejects_nonpositive_and_nonfinite(self, k):
        with pytest.raises(SequenceError):
            MomentSequence.mittag_leffler(k)


class TestRapidGrowthDefaults:
    def test_defaults(self):
        assert MomentSequence.factorial().rapid_growth_declared
        assert MomentSequence.mittag_leffler(2).rapid_growth_declared
        assert MomentSequence.q_factorial(2).rapid_growth_declared
        assert not MomentSequence.geometric(2).rapid_growth_declared

    @pytest.mark.parametrize("kind,param", [("factorial", None), ("q_factorial", 2),
                                            ("geometric", 2), ("mittag_leffler", 2)])
    @pytest.mark.parametrize("declared", [True, False])
    def test_builtin_kind_fixes_growth(self, kind, param, declared):
        with pytest.raises(SequenceError):
            MomentSequence(kind, param, rapid_growth_declared=declared)


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

    def test_to_json(self):
        report = growth_probe(MomentSequence.geometric(2), 64)
        assert report.to_json() == {"min_root": report.min_root, "trend": "plateau",
                                    "finite_radius_suspected": True}
        assert list(report.to_json()) == ["min_root", "trend", "finite_radius_suspected"]
        assert growth_probe(MomentSequence.factorial(), 8).to_json() == {
            "min_root": 1.0, "trend": "increasing", "finite_radius_suspected": False}

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

    @pytest.mark.parametrize("spec", ["factorial:", "factorial:2", "ml", "qfac", "custom"])
    def test_colon_only_after_a_parametrized_kind(self, spec):
        with pytest.raises(SequenceError):
            parse_specifier(spec)

    @pytest.mark.parametrize(
        "seq",
        [MomentSequence.factorial(), MomentSequence.q_factorial(2),
         MomentSequence.q_factorial(Fraction(3, 2)), MomentSequence.geometric(2),
         MomentSequence.geometric(Fraction(5, 3)), MomentSequence.mittag_leffler(2),
         MomentSequence.mittag_leffler(0.5), MomentSequence.mittag_leffler(1.2345678),
         MomentSequence.mittag_leffler(1e-07), MomentSequence.mittag_leffler(3.0000001),
         MomentSequence.mittag_leffler(1e6), MomentSequence.mittag_leffler(0.1 + 0.2)],
        ids=repr,
    )
    def test_round_trip(self, seq):
        assert parse_specifier(seq.specifier()) == seq

    def test_custom_round_trips_through_its_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(["1", "2", "6"]))
        seq = load_custom(path)
        assert seq.specifier() == f"custom:{path}"
        assert parse_specifier(seq.specifier()) == seq
        # equality is by table values; a table built in memory names no file
        in_memory = MomentSequence.custom(["1", "2", "6"], rapid_growth_declared=False)
        assert in_memory == seq and hash(in_memory) == hash(seq)
        assert in_memory.specifier() == "custom"

    @pytest.mark.parametrize(
        "spec", ["factorial", "ml:2", "ml:0.5", "ml:1e-07", "ml:1e+06", "ml:1.2345678",
                 "qfac:2", "qfac:3/2", "geom:5/3", "geom:2"])
    def test_printed_forms(self, spec):
        assert parse_specifier(spec).specifier() == spec
