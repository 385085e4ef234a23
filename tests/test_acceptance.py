"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success (visible with pytest -s or
-rA); pytest -v shows the same information through the test names.
"""

import json
import time

from zclrp import (MAX_DP_CELLS, RingSpec, build_row, explicit_witness,
                   g_stabilization_probe, rank, sample_report, sigma_of,
                   trailing_ones, verify_generators_lemma, verify_witness,
                   word_nonzero, z_of, zcl_exact)
from cli_runner import invoke as run_cli
from oracles import (brute_force_zcl, dense_mul, get_ring,
                     ideal_basis_by_products, ideal_degree_basis)


def _announce(n, text):
    print(f"PASS criterion {n}: {text}")


def test_01_two_factor_closed_formula():
    t0 = time.perf_counter()
    expected = [1, 3, 3, 7, 7, 7, 7, 15]
    got = [zcl_exact(m, 2).value for m in range(1, 9)]
    assert got == expected
    _announce(1, f"zcl(m,2) for m=1..8 = {got} "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_02_hopf_dimensions_exact():
    t0 = time.perf_counter()
    cases = [(m, s) for m in (1, 3) for s in range(2, 6)]
    cases += [(7, s) for s in (2, 3, 4)]
    for m, s in cases:
        assert zcl_exact(m, s).value == m * (s - 1), (m, s)
    _announce(2, f"zcl = m(s-1) on {len(cases)} Hopf-dimension cases "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_03_even_m_chain_collapse():
    t0 = time.perf_counter()
    for m, s in [(2, 3), (2, 4), (4, 5)]:
        row = build_row(m, s, "exact")
        assert row.zcl == s * m and row.equality, (m, s)
    _announce(3, "zcl = s*m with equality flag at (2,3), (2,4), (4,5) "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_04_block_witnesses():
    t0 = time.perf_counter()
    w = explicit_witness(5, 3)
    assert w.length == 14
    assert w.certificate == (5, 5, 4)       # x1^5 x2^5 x3^4, sigma=3, e=1
    assert verify_witness(w)

    w11 = explicit_witness(11, 3)           # sigma=3, e=2
    assert w11.length == 3 * 11 - 3 == 30
    assert verify_witness(w11)
    _announce(4, "witnesses at (5,3) length 14 on x1^5*x2^5*x3^4 and "
                 f"(11,3) length 30 verify ({time.perf_counter() - t0:.2f}s)")


def test_05_gap_sequences():
    t0 = time.perf_counter()
    for m in range(1, 7):
        probe = g_stabilization_probe(m, 5)
        gs = probe.g_values
        assert all(a >= b for a, b in zip(gs, gs[1:])), (m, gs)
        assert all(g >= 0 for g in gs), (m, gs)
    p5 = g_stabilization_probe(5, 5)
    assert p5.g_values[1] == 1 == (1 << trailing_ones(5)) - 1  # at s = 3
    assert p5.reached_stable
    _announce(5, f"gaps nonincreasing for m=1..6; m=5 reaches 1 at s=3 "
                 f"({time.perf_counter() - t0:.2f}s)")


GENERATOR_SHAPES = ([(1, s) for s in range(2, 10)]
                    + [(2, s) for s in range(2, 6)]
                    + [(3, s) for s in (2, 3, 4)]
                    + [(4, s) for s in (2, 3, 4)]
                    + [(m, s) for m in range(5, 10) for s in (2, 3)])


# every shape with (m+1)^s <= 2^16: 338 shapes
LEMMA_SHAPES = [(m, s) for s in range(2, 17) for m in range(1, 256)
                if (m + 1) ** s <= 1 << 16]

# the largest shape of each s in 2..7 under the work cap's charge
# s*(m+1)^s of the generators check, and (1, 16), at the cap exactly
CAP_SHAPES = [(723, 2), (69, 3), (21, 4), (10, 5), (6, 6), (4, 7), (1, 16)]


def test_06_generator_span_equals_kernel():
    t0 = time.perf_counter()
    assert len(LEMMA_SHAPES) == 338
    for m, s in LEMMA_SHAPES:
        checks = verify_generators_lemma(RingSpec(m, s))
        assert len(checks) == s * m
        assert all(c.passed for c in checks), (m, s)
        assert all(c.dim_kernel == c.dim_ideal for c in checks)
    _announce(6, f"kernel = generator span in every degree on "
                 f"{len(LEMMA_SHAPES)} ring shapes "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_06_generator_span_at_the_work_cap():
    t0 = time.perf_counter()
    for m, s in CAP_SHAPES:
        spec = RingSpec(m, s)
        assert s * spec.size <= MAX_DP_CELLS < s * (m + 2) ** s
        checks = verify_generators_lemma(spec)
        assert len(checks) == s * m
        assert all(c.passed for c in checks), (m, s)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    _announce(6, f"kernel = generator span in every degree at "
                 f"{len(CAP_SHAPES)} shapes of s*(m+1)^s <= {MAX_DP_CELLS} "
                 f"({elapsed:.2f}s)")


def test_06_ideal_rows_match_dense_products():
    # the rows built from ranks against rows of dense generator products,
    # in every degree of the criterion-6 shapes
    t0 = time.perf_counter()
    for m, s in GENERATOR_SHAPES:
        spec = RingSpec(m, s)
        for d in range(1, s * m + 1):
            assert ideal_degree_basis(spec, d) == \
                ideal_basis_by_products(spec, d), (m, s, d)
    _announce(6, f"direct ideal rows == dense products on "
                 f"{len(GENERATOR_SHAPES)} ring shapes "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_07_criterion_matches_ring_oracle():
    t0 = time.perf_counter()
    total = 0
    for m, s in [(1, 2), (2, 2), (2, 3), (3, 3), (5, 3)]:
        ring = get_ring(m, s)
        cap = 2 * m

        def words(parts, budget, floor):
            if parts == 0:
                yield ()
                return
            for v in range(floor, min(cap, budget) + 1):
                for rest in words(parts - 1, budget - v, v):
                    yield (v,) + rest

        for b in words(s - 1, s * m, 0):
            total += 1
            product = ring.one
            for i, e in enumerate(b, 1):
                if e:
                    product = dense_mul(product, ring.binomial_pow(i, s, e))
            ok, cert = word_nonzero(m, s, b)
            assert ok == (not product.is_zero), (m, s, b)
            if ok:
                assert (product.bits >> rank(ring.spec, cert)) & 1, (m, s, b)
    _announce(7, f"combinatorial criterion == ring product on {total} words "
                 f"({time.perf_counter() - t0:.2f}s)")


def test_08_brute_force_reduction_sanity():
    t0 = time.perf_counter()
    for m, s in [(1, 2), (2, 2), (1, 3)]:
        assert brute_force_zcl(m, s) == zcl_exact(m, s).value, (m, s)
    _announce(8, "arbitrary kernel products reach exactly the word-search "
                 f"maximum at (1,2), (2,2), (1,3) ({time.perf_counter() - t0:.2f}s)")


def test_09_join_component_structure():
    t0 = time.perf_counter()
    for s in range(2, 6):
        for k in range(0, 5):
            rep = sample_report(s, k, samples=1000, seed=1000 * s + k)
            assert rep.keys_found == 1 << (s - 1), (s, k)
            assert rep.transitive, (s, k)
            assert rep.segment_checks_passed == 1000, (s, k)
    _announce(9, "2^(s-1) component keys, simply transitive action, 20000 "
                 f"segment checks ({time.perf_counter() - t0:.2f}s)")


def test_10_report_chain_consistency():
    t0 = time.perf_counter()
    result = run_cli("report", "--m-range", "1..7", "--s-range", "2..5",
                     "--policy", "exact")
    assert result.exit_code in (0, 2)
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert result.exit_code == 0 and len(rows) == 28  # nothing skipped here
    for row in rows:
        assert 0 <= row["zcl"] <= row["upper"] == row["m"] * row["s"]
        if row["known_tc"] is not None:
            assert row["zcl"] <= row["known_tc"] <= row["upper"], row
    _announce(10, f"all 28 rows of report 1..7 x 2..5 satisfy "
                  f"zcl <= TC <= s*m ({time.perf_counter() - t0:.2f}s)")


# The paper's claims over a wide grid: one probe per m gives every s at once.
WIDE_M = range(1, 130)
WIDE_S_MAX = 39


def _wide_probes():
    return {m: g_stabilization_probe(m, WIDE_S_MAX) for m in WIDE_M}


def test_11_stable_gap_wide_grid():
    t0 = time.perf_counter()
    checks = 0
    for m, probe in _wide_probes().items():
        stable = (1 << trailing_ones(m)) - 1
        sigma = sigma_of(m) or 2          # m = 2^e - 1 is stable from s = 2
        for s in range(sigma, WIDE_S_MAX + 1):
            assert probe.g_values[s - 2] == stable, (m, s)
            checks += 1
    assert checks == 1692
    _announce(11, f"gap s*m - zcl = 2^e - 1 for all sigma <= s <= "
                  f"{WIDE_S_MAX}, m <= {WIDE_M[-1]}: {checks} shapes "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_12_two_factor_formula_wide_grid():
    t0 = time.perf_counter()
    for m, probe in _wide_probes().items():
        assert probe.zcl_values[0] == (1 << z_of(m)) - 1, m
    _announce(12, f"zcl(m,2) = 2^z - 1 for m <= {WIDE_M[-1]} "
                  f"({time.perf_counter() - t0:.2f}s)")


def test_13_gap_nonincreasing_wide_grid():
    t0 = time.perf_counter()
    for m, probe in _wide_probes().items():
        gs = probe.g_values
        assert all(a >= b >= 0 for a, b in zip(gs, gs[1:])), (m, gs)
    _announce(13, f"gap sequences over s = 2..{WIDE_S_MAX} nonincreasing for "
                  f"m <= {WIDE_M[-1]} ({time.perf_counter() - t0:.2f}s)")
