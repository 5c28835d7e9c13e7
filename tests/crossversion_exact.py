"""Check _exact._written, rational_recurrence, rational_companion_power,
affine_recurrence, affine_column and floats on any CPython, without numpy,
pytest or an install.

_written writes Fraction's private slots, and affine_column and floats read
them; their names are CPython's, so this script compares the results
against Fraction on the interpreter it runs under. It loads src/kbonacci/_exact.py by path (the module imports only the
standard library) and exits 1 on the first mismatch:

    python3.13 tests/crossversion_exact.py
"""

import importlib.util
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "src" / "kbonacci" / "_exact.py"


def load_exact():
    spec = importlib.util.spec_from_file_location("_exact", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_written(exact, rng, cases=2000):
    pairs = []
    for _ in range(cases):
        bits = rng.choice([8, 64, 1000, 10_000])
        p, q = rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits)
        g = gcd(p, q)
        pairs.append((p // g, q // g))
    written = exact._written([p for p, _ in pairs], [q for _, q in pairs], cases)
    assert type(written) is tuple and len(written) == cases
    for value, (p, q) in zip(written, pairs):
        expected = Fraction(p, q)
        other = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (p, q)
        assert value == expected and hash(value) == hash(expected)
        assert str(value) == str(expected) and repr(value) == repr(expected)
        assert value + other == expected + other and other - value == other - expected
        assert value * other == expected * other and value ** 2 == expected ** 2
        if other:
            assert value / other == expected / other
    column = [Fraction(0), Fraction(7), Fraction(-1, 3)]
    assert all(v is w for v, w in zip(exact.fractions(column), column))
    for d in (1, 6):
        ints = [0, 7, -3, 12, -(1 << 90)]
        values = exact.fractions(ints, d)
        assert values == tuple(Fraction(x, d) for x in ints) and all(type(v) is Fraction for v in values)
        assert [hash(v) for v in values] == [hash(Fraction(x, d)) for x in ints]


def fraction_loop(lams, window, n):
    window = list(window)
    values = [window[-1]]
    for _ in range(n):
        nxt = sum((lam * x for lam, x in zip(lams, reversed(window))), Fraction(0))
        values.append(nxt)
        window = window[1:] + [nxt]
    return values


def check_recurrence(exact, rng, cases=200):
    # composite denominators make bases that a step refines; the last two
    # have no factor below 2^16
    pool = [1, 2, 3, 4, 6, 9, 10, 14, 35, 65537, 65537**2, ((1 << 61) - 1) * ((1 << 31) - 1)]
    for _ in range(cases):
        k = rng.randint(1, 6)
        lams = [Fraction(rng.choice([-3, -2, -1, 0, 1, 2, 3, 5, 7]), rng.choice(pool)) for _ in range(k)]
        window = [Fraction(rng.randint(-9, 9), rng.choice(pool)) for _ in range(k)]
        n = rng.randint(0, 200)
        got = exact.rational_recurrence(lams, window, n)
        want = fraction_loop(lams, window, n)
        assert type(got) is tuple and got == tuple(want)
        assert all(type(v) is Fraction and hash(v) == hash(w) for v, w in zip(got, want))
        if not all(lams):  # companion powers take nonzero coefficients only
            continue
        got, want = exact.rational_companion_power(lams, window, n), (window[:-1] + want)[-k:]
        assert type(got) is tuple and got == tuple(want)
        assert all(type(v) is Fraction and hash(v) == hash(w) for v, w in zip(got, want))


def check_long_runs(exact, n=4000):
    """Two long runs, from the windows that the seeds (1, 1, 1/3) and
    (2/3, 1/3) give: one with values of thousands of bits, and a constant
    one, 2/3, whose every step divides by 2."""
    for lams, window in [(("1/2", "1/3", "1/6"), ("2", "3", "1")), (("1/2", "1/2"), ("2/3", "2/3"))]:
        lams, window = list(map(Fraction, lams)), list(map(Fraction, window))
        got = exact.rational_recurrence(lams, window, n)
        want = fraction_loop(lams, window, n)
        assert type(got) is tuple and got == tuple(want)
        assert all(type(v) is Fraction and hash(v) == hash(w) for v, w in zip(got, want))


def check_slot_readers(exact, rng, cases=300):
    """affine_column and floats on Fractions, and affine_recurrence, which
    runs rational_recurrence on the differenced recurrence."""
    for _ in range(cases):
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2))
        values = [Fraction(rng.randint(-(1 << 80), 1 << 80), rng.randint(1, 1 << 80)) for _ in range(5)]
        got, want = exact.affine_column(a, b, values), tuple(a * x + b for x in values)
        assert got == want and all(type(v) is Fraction and hash(v) == hash(w) for v, w in zip(got, want))
        assert exact.floats(values) == [float(x) for x in values]
    lams, c = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], Fraction(13, 6)
    values = [Fraction(1), Fraction(7, 3), Fraction(1, 7)]
    values.append(sum((lam * x for lam, x in zip(lams, reversed(values))), c))
    want = list(values)
    while len(want) < 2000:
        want.append(sum((lam * x for lam, x in zip(lams, reversed(want[-3:]))), c))
    got = exact.affine_recurrence(lams, c, values, 2000, 1 << 4000)
    assert got == want and all(type(v) is Fraction and hash(v) == hash(w) for v, w in zip(got, want))


def main() -> int:
    exact = load_exact()
    rng = random.Random(20071)
    try:
        check_written(exact, rng)
        check_recurrence(exact, rng)
        check_long_runs(exact)
        check_slot_readers(exact, rng)
    except AssertionError:
        print(f"FAIL on Python {sys.version.split()[0]}")
        raise
    print(
        "ok: _written, rational_recurrence, rational_companion_power, affine_recurrence,"
        " affine_column and floats match Fraction"
        f" on Python {sys.version.split()[0]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
