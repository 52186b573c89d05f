"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import contextlib
import math
import time
from fractions import Fraction

from mpmath import mp

from bealsearch.errors import Divergent
from bealsearch.exact_arith import classify_radical, iroot
from bealsearch.identity import run_random_suite
from bealsearch.records import canonical_json, emit_csv, records_from_report
from bealsearch.reparam import (Plane, canonical_alpha_beta, reconstruct,
                                scalar_m, solve_alpha_given_beta)
from bealsearch.search import SearchConfig, brute_force_oracle, search_solutions
from bealsearch.slopes import binomial_series_slope, slope_candidate
from bealsearch.triples import BealTriple

KNOWN_HITS = [
    BealTriple(2, 3, 2, 3, 2, 4),
    BealTriple(3, 3, 6, 3, 3, 5),
    BealTriple(7, 3, 7, 4, 14, 3),
    BealTriple(3, 6, 18, 3, 3, 8),
]


def exact(x) -> Fraction:
    """The exact value an mpmath mpf stores, with no rounding to 53 bits."""
    return int(mp.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp  # x.man is unsigned


@contextlib.contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL [{number}] {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE PASS [{number}] {description} ({elapsed:.1f}s)")


def test_criterion_1_identity_suite():
    with criterion(1, "1000 randomized expansion instances hold exactly, all n, < 30 s"):
        started = time.perf_counter()
        failures = run_random_suite(1000, seed=20260809)
        elapsed = time.perf_counter() - started
        assert failures == []
        assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_desk_scale_regime():
    with criterion(2, "bound 10^12 regime (min 4,3,3) < 10 min, zero coprime hits"):
        started = time.perf_counter()
        report = search_solutions(SearchConfig(bound=10 ** 12, min_x=4, min_y=3, min_z=3))
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"search took {elapsed:.1f}s"
        assert len(report.hits) > 0
        assert all(hit.gcd_abc > 1 for hit in report.hits)
        coprime_hits = [hit for hit in report.hits if hit.gcd_abc == 1]
        assert coprime_hits == []
        # every desk-scale hit passes the full verification bundle, which
        # includes slope rationality and the rational-parameter/common-factor
        # consistency check
        assert all(hit.passed for hit in report.hits)


def test_criterion_3_oracle_equivalence_and_determinism():
    with criterion(3, "oracle-identical hit sets at 10^4/10^5/10^6; identical bytes for 1/2/8 workers"):
        for bound in (10 ** 4, 10 ** 5, 10 ** 6):
            fast = search_solutions(SearchConfig(bound=bound))
            slow = brute_force_oracle(bound)
            assert fast.triples == slow.triples, f"bound {bound}"
        baseline = None
        for workers in (1, 2, 8):
            report = search_solutions(SearchConfig(bound=10 ** 6, workers=workers))
            csv_bytes = emit_csv(records_from_report(report)).encode()
            # the config echo necessarily differs in its workers field, so the
            # byte comparison covers the sorted hits and counts
            json_bytes = canonical_json(report).replace(
                f'"workers": {workers}', '"workers": 1').encode()
            if baseline is None:
                baseline = (csv_bytes, json_bytes)
            assert (csv_bytes, json_bytes) == baseline, f"workers={workers}"


def test_criterion_4_known_hits_present():
    with criterion(4, "the four known hits below 10^4 are all present"):
        report = search_solutions(SearchConfig(bound=10 ** 4))
        triples = set(report.triples)
        for expected in KNOWN_HITS:
            assert expected.ax + expected.by == expected.cz  # direct multiplication
            assert expected in triples, str(expected)


def test_criterion_5_radical_classifier_oracle():
    with criterion(5, "classifier matches candidate-root enumeration, p,q <= 500, deg <= 6, < 60 s"):
        started = time.perf_counter()
        limit = 500
        # oracle tables per degree: every candidate root a/b with a**n, b**n
        # within range, built by plain multiplication
        tables = {}
        for degree in range(2, 7):
            table = {}
            a = 1
            while a ** degree <= limit:
                b = 1
                while b ** degree <= limit:
                    table.setdefault(Fraction(a ** degree, b ** degree), Fraction(a, b))
                    b += 1
                a += 1
            tables[degree] = table
        for p in range(1, limit + 1):
            for q in range(1, limit + 1):
                radicand = Fraction(p, q)
                for degree in range(2, 7):
                    result = classify_radical(1, radicand, degree)
                    expected = tables[degree].get(radicand)
                    if expected is None:
                        assert not result.is_rational, (p, q, degree)
                    else:
                        assert result.is_rational, (p, q, degree)
                        assert result.value == expected
                        assert result.value ** degree == radicand
                # degree 1 root is the radicand itself
                one = classify_radical(1, radicand, 1)
                assert one.value == radicand
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"classifier oracle took {elapsed:.1f}s"


def test_criterion_6_reparameterization_round_trip():
    with criterion(6, "100 random betas per known hit reconstruct exactly; canonical values match"):
        import random
        rng = random.Random(20260809)
        report = search_solutions(SearchConfig(bound=10 ** 4))
        assert set(KNOWN_HITS) <= set(report.triples)
        for triple in report.triples:
            root = Fraction(triple.A)
            difference = triple.cz - triple.by
            for _ in range(100):
                beta = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
                alpha = solve_alpha_given_beta(triple.B, triple.C, root, beta)
                value = reconstruct(triple.B, triple.C, triple.X, alpha, beta)
                assert value == difference, (str(triple), beta)

        pair = canonical_alpha_beta(BealTriple(3, 3, 6, 3, 3, 5), Plane.CB)
        assert pair.alpha.exact_value == 2

        two_k = BealTriple(2, 9, 2, 9, 2, 10)
        pair = canonical_alpha_beta(two_k, Plane.CB)
        assert pair.alpha.exact_value == 1
        assert pair.beta.exact_value == Fraction(1, 2)
        assert two_k.gcd_abc == 2


def test_criterion_7_scalar_m():
    with criterion(7, "scaling factor reconstructs 27 within 1e-25; value matches oracle within 1e-5"):
        triple = BealTriple(3, 3, 6, 3, 3, 5)
        pair = canonical_alpha_beta(triple, Plane.CB)
        m = scalar_m(triple, pair, 256)
        value = reconstruct(6, 3, 3, pair.alpha, pair.beta, m, 256)
        tolerance = Fraction(1, 10 ** 25)
        assert value.width < tolerance
        assert value.distance_to(27) < tolerance
        with mp.workprec(400):
            oracle = exact(3 / (18 - 18 * (mp.mpf(71) / 216) ** (mp.mpf(1) / 3)))
        assert m.width < Fraction(1, 10 ** 60)
        assert m.distance_to(oracle) < Fraction(1, 10 ** 60)
        assert abs(m.mid - Fraction("0.537861")) < Fraction(1, 10 ** 5)


def test_criterion_8_binomial_series():
    with criterion(8, "80-term series matches slope 1/2 within 1e-20; (7,7,14) diverges"):
        value = binomial_series_slope(2, 1, 3, 3, 3, 5, "ca", terms=80, precision_bits=256)
        tolerance = Fraction(1, 10 ** 20)
        assert value.width < tolerance
        assert value.distance_to(Fraction(1, 2)) < tolerance
        diverged = False
        try:
            binomial_series_slope(1, 1, 7, 3, 4, 3, "ca", terms=80, precision_bits=256)
        except Divergent:
            diverged = True
        assert diverged


def test_criterion_9_slope_dichotomy():
    with criterion(9, "rational slope <=> perfect power for A,B <= 50, exps in [3,6]; rational => gcd>1"):
        for A in range(2, 51):
            for B in range(2, 51):
                for X in range(3, 7):
                    ax = A ** X
                    for Y in range(3, 7):
                        s = ax + B ** Y
                        for Z in range(3, 7):
                            cb, ca = slope_candidate(A, B, X, Y, Z)
                            root, exact = iroot(s, Z)
                            assert cb.is_rational == exact, (A, B, X, Y, Z)
                            assert ca.is_rational == exact, (A, B, X, Y, Z)
                            if exact:
                                assert math.gcd(A, B) > 1, (A, B, X, Y, Z)
                                assert cb.value == Fraction(root, B)
                                assert ca.value == Fraction(root, A)
