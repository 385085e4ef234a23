import math

import pytest

from zclrp import sigma_of, trailing_ones, two_adic_profile, z_of


def test_trailing_ones_examples():
    for m in (2, 4, 6, 100):
        assert trailing_ones(m) == 0
    assert trailing_ones(7) == 3
    assert trailing_ones(11) == 2   # 1011
    assert trailing_ones(1) == 1


def test_trailing_ones_definition():
    # largest e with m = 2^e - 1 mod 2^(e+1)
    for m in range(1, 400):
        e = max(t for t in range(m.bit_length() + 1)
                if m % (1 << (t + 1)) == (1 << t) - 1)
        assert trailing_ones(m) == e, m


def test_z_of_examples():
    assert z_of(1) == 1
    assert z_of(4) == 3
    assert z_of(8) == 4


def test_z_of_powers_of_two():
    for t in range(1, 20):
        assert z_of(1 << t) == t + 1
        assert z_of((1 << t) - 1) == t


def test_z_of_definition():
    for m in range(1, 2000):
        z = z_of(m)
        assert (1 << z) <= 2 * m < (1 << (z + 1))


def test_sigma_examples():
    assert sigma_of(5) == 3
    assert sigma_of(7) is None
    for m in (2, 4, 10):
        assert sigma_of(m) == m + 1


def test_rejects_nonpositive():
    for fn in (trailing_ones, z_of, sigma_of):
        with pytest.raises(ValueError):
            fn(0)


def test_profile_invariants():
    for m in range(1, 400):
        p = two_adic_profile(m)
        assert p.m % (1 << (p.e + 1)) == (1 << p.e) - 1
        assert (1 << p.z) <= 2 * m < (1 << (p.z + 1))
        if p.sigma is None:
            assert m == (1 << p.e) - 1
        else:
            assert p.sigma << p.e == m + 1
            assert p.sigma % 2 == 1 and p.sigma >= 3
        assert p.as_dict() == {"m": m, "e": p.e, "z": p.z, "sigma": p.sigma}


def test_hypothesis_to_parity_step():
    # whenever sigma is defined, C(m + 2^e, 2^e) is odd
    for m in range(1, 600):
        if sigma_of(m) is not None:
            e = trailing_ones(m)
            assert math.comb(m + (1 << e), 1 << e) % 2 == 1
