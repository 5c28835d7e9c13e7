"""Reference answers for benchmark ops, computed outside every timed span.

The references are written here, independently of the library:

- sequences: a plain int / Fraction loop over the recurrence;
- exact spectra of linear specs: the closed form alpha_n^(i) = lambda_i *
  alpha_{n-i+1} and N_n^2 = alpha_{n+1} - alpha_0, which follows from the
  spectrum recursions once f_i(x) = lambda_i x;
- verify of a linear spec (exact or float64): the exact-mode verdict. With
  linear functions every relation residual vanishes identically, so the
  verdict is "passes" exactly when N_n^2 >= 0 on the truncation, and
  NonUnitaryRepresentationError otherwise;
- char polys: x^k - lambda_1 x^{k-1} - ... - lambda_k for every matrix form;
- roots: numpy.roots, matched at relative tolerance ROOT_RTOL, after an
  exact squarefree test (a repeated root must be refused);
- Binet values: the exact sequence, at relative tolerance FLOAT_RTOL;
- float64 expression spectra: a float loop over the same level functions;
- stationary vectors: the closed form pi_c ~ lambda_k + ... + lambda_{k-c};
- chains: letter-count iteration, the length recurrence, and the rule count
  (lambda_1 + 1)...(lambda_1 + k - 1);
- CLI runs: the README contract (exit code, exactly one ``error:`` line on
  failure, no traceback, strict JSON without Infinity/NaN) plus the values
  of ``sequence --format json``.

``check(op, outcome)`` returns None when the outcome matches and a one-line
reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from workloads import Op, digest

ROOT_RTOL = 1e-9  # |root - numpy root| <= ROOT_RTOL * max(1, |numpy root|)
FLOAT_RTOL = 1e-9  # |value - reference| <= FLOAT_RTOL * max(1, |reference|)
REPEATED_ROOT_ERRORS = ("RepeatedRootsError", "NearRepeatedRootsError")


def _q(values):
    return tuple(Fraction(v) for v in values)


def _as_int_if_whole(values):
    if all(v.denominator == 1 for v in values):
        return tuple(v.numerator for v in values)
    return values


def _recurrence(coeffs, vacuum, n, keep_all):
    lams = _as_int_if_whole(_q(coeffs))
    vac = _q(vacuum)
    k = len(lams)
    window = [vac[m] / lams[m] for m in range(k - 1, 0, -1)] + [vac[0]]
    out = list(_as_int_if_whole(tuple(window)))
    for _ in range(n):
        nxt = 0
        for i in range(k):
            nxt += lams[i] * out[-1 - i]
        out.append(nxt)
        if not keep_all:
            del out[0]
    return tuple(out)


@lru_cache(maxsize=64)
def sequence(coeffs: tuple, vacuum: tuple, n: int) -> tuple:
    """alpha_{-(k-1)}..alpha_n by the plain recurrence loop; index 0 is alpha_{-(k-1)}."""
    return _recurrence(coeffs, vacuum, n, keep_all=True)


def last_window(coeffs: tuple, vacuum: tuple, n: int) -> tuple:
    """alpha_{n-k+1}..alpha_n, keeping only k values in memory."""
    return _recurrence(coeffs, vacuum, n, keep_all=False)


def _alphas(coeffs, vacuum, n):
    """alpha_0..alpha_n."""
    k = len(coeffs)
    return sequence(tuple(coeffs), tuple(vacuum), n)[k - 1 :]


def _close(a, b, rtol=FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _first_far(values, refs, rtol=FLOAT_RTOL):
    for i, (v, r) in enumerate(zip(values, refs)):
        if not _close(v, r, rtol):
            return i
    return None


# ----------------------------------------------------------------------------
# Polynomials.


def char_poly(coeffs) -> tuple:
    return (Fraction(1), *(-v for v in _q(coeffs)))


def _squarefree(poly) -> bool:
    """Exact test: gcd(p, p') is constant. poly descending, integer-valued."""
    p = [Fraction(c) for c in poly]
    dp = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    # Modulo a large prime first: a trivial gcd there proves squarefree over Q
    # for a monic integer polynomial. Otherwise decide over Fraction.
    if all(c.denominator == 1 for c in p) and p[0] == 1:
        prime = (1 << 61) - 1
        if _gcd_degree([int(c) % prime for c in p], [int(c) % prime for c in dp], prime) == 0:
            return True
    return _gcd_degree(p, dp, None) == 0


def _gcd_degree(a, b, prime):
    """Degree of gcd(a, b) over GF(prime), or over Q when prime is None."""

    def strip(p):
        i = 0
        while i < len(p) and p[i] == 0:
            i += 1
        return p[i:]

    def rem(a, b):
        lead_inv = pow(b[0], -1, prime) if prime else 1 / b[0]
        r = list(a)
        while len(r) >= len(b):
            f = r[0] * lead_inv
            for i in range(len(b)):
                r[i] = r[i] - f * b[i]
                if prime:
                    r[i] %= prime
            r = strip(r)
        return r

    a, b = strip(list(a)), strip(list(b))
    while b:
        a, b = b, rem(a, b)
    return len(a) - 1


def numpy_roots(coeffs):
    return np.roots([float(c) for c in char_poly(coeffs)])


def _match_roots(roots, refs):
    unused = list(roots)
    for r in sorted(refs, key=lambda z: -abs(z)):
        j = min(range(len(unused)), key=lambda i: abs(unused[i] - r))
        if not _close(unused[j], r, ROOT_RTOL):
            return f"root {r:.6g} unmatched (nearest {unused[j]:.6g})"
        unused.pop(j)
    return None


# ----------------------------------------------------------------------------
# Spectra.


def exact_spectrum(linear, vacuum, levels):
    """Rows (alphas, nsq) for a linear spec, from the closed form."""
    lams = _q(linear)
    k = len(lams)
    seq = sequence(tuple(linear), tuple(vacuum), levels + 1)  # alpha_{-(k-1)}..alpha_{levels+1}

    def alpha(n):
        return seq[n + k - 1]

    rows = []
    for n in range(levels + 1):
        alphas = (alpha(n), *(lams[i] * alpha(n - i) for i in range(1, k)))
        rows.append((alphas, alpha(n + 1) - alpha(0)))
    return rows


def _flags(rows):
    energies = [r[0][0] for r in rows]
    return [
        all(e >= 0 for e in energies),
        all(r[1] >= 0 for r in rows),
        all(b >= a for a, b in zip(energies, energies[1:])),
    ]


def float_spectrum(functions, vacuum, levels):
    """Float64 spectrum of an expression spec by the recursions in algebra.py.

    Returns rows (alphas, nsq), or None when a value overflows or is not
    finite (the documented outcome is then a ComputationError).
    """
    fns = [_float_function(t) for t in functions]
    k = len(fns)
    vac = [float(Fraction(v)) for v in vacuum]
    energies = [vac[0]]
    ladders = [[vac[i]] for i in range(k)]
    try:
        nsq = [fns[0](vac[0]) - vac[0] + sum(vac[1:])]
        for n in range(levels):
            energies.append(fns[0](energies[n]) + sum(ladders[i][n] for i in range(1, k)))
            for i in range(1, k):
                arg = n - i + 1
                ladders[i].append(fns[i](energies[arg]) if arg >= 0 else vac[i])
            e = energies[n + 1]
            nsq.append(nsq[n] + fns[0](e) - e + sum(ladders[i][n + 1] for i in range(1, k)))
    except (OverflowError, ZeroDivisionError):
        return None
    rows = [((energies[n], *(ladders[i][n] for i in range(1, k))), nsq[n]) for n in range(levels + 1)]
    if not all(math.isfinite(x) for r in rows for x in (*r[0], r[1])):
        return None
    return rows


def _float_function(text):
    # The workload's expressions use x, rationals, + - * / ^ and parentheses;
    # Python evaluates them once ^ is spelled **.
    code = compile(text.replace("^", "**"), text, "eval")
    return lambda x: float(eval(code, {"__builtins__": {}}, {"x": x}))


# ----------------------------------------------------------------------------
# Chains.


def _parse_rule(text):
    pairs = [part.split(":", 1) for part in text.split(",")]
    letters = [a for a, _ in pairs]
    images = [w for _, w in pairs]
    return letters, images


def chain(text, steps, word_cap):
    letters, images = _parse_rule(text)
    k = len(letters)
    mat = [[img.count(c) for c in letters] for img in images]
    counts = [1] + [0] * (k - 1)
    word = letters[0]
    lengths, words, materialized = [1], [word], 1
    all_counts = list(counts)
    for step in range(1, steps + 1):
        counts = [sum(counts[r] * mat[r][c] for r in range(k)) for c in range(k)]
        all_counts += counts
        lengths.append(sum(counts))
        if word is not None and lengths[-1] <= word_cap:
            word = "".join(images[letters.index(ch)] for ch in word)
            materialized += 1
            if step <= 8:
                words.append(word)
        else:
            word = None
    lams = [mat[0][0], mat[1][0]] if k > 1 else [mat[0][0]]
    for i in range(3, k + 1):
        lams.append(mat[i - 1][i - 2] * lams[-1])
    return lengths, digest(all_counts), words, materialized, lams


def _recurrence_holds(lengths, lams):
    k = len(lams)
    return all(
        lengths[n + 1] == sum(lams[i - 1] * lengths[n - i + 1] for i in range(1, k + 1))
        for n in range(k, len(lengths) - 1)
    )


# ----------------------------------------------------------------------------
# The check.


def _is_subclass(name, base):
    from kbonacci import errors

    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, getattr(errors, base))


def check(op: Op, outcome: dict):
    """None when the outcome matches the reference, else the reason."""
    p = op.params
    kind = op.kind
    if kind == "cli_main":
        return _check_cli(p, outcome)
    raised = outcome.get("raised")

    if kind in ("iterate", "matrix_power"):
        if raised:
            return f"raised {raised}: {outcome['message']}"
        args = (tuple(p["coeffs"]), tuple(p["vacuum"]), p["n"])
        want = _alphas(*args) if kind == "iterate" else last_window(*args)
        if outcome["digest"] != digest(want):
            return "values differ from the reference loop"
        return None
    if kind == "miles":
        k, m = p["k"], p["m"]
        want = _alphas(("1",) * k, ("1",) + ("0",) * (k - 1), m - k + 1)[-1]
        return None if not raised and outcome["digest"] == digest([want]) else "miles number differs"
    if kind == "char_poly":
        want = [str(c) for c in char_poly(p["coeffs"])]
        return None if not raised and outcome["poly"] == want else f"char poly {outcome} != {want}"
    if kind == "spectrum":
        return _check_spectrum(p, outcome)
    if kind == "verify":
        return _check_verify(p, outcome)
    if kind == "enumerate":
        if raised:
            return f"raised {raised}"
        lam1 = int(p["coeffs"][0])
        want = math.prod(lam1 + j for j in range(1, len(p["coeffs"])))
        if outcome["count"] != want or outcome["distinct"] != want:
            return f"{outcome['count']} rules ({outcome['distinct']} distinct), expected {want}"
        return None
    if kind in ("grow", "growth_law"):
        if raised:
            return f"raised {raised}: {outcome['message']}"
        lengths, counts, words, materialized, lams = chain(p["rule"], p["steps"], p.get("word_cap") or 1)
        if not _recurrence_holds(lengths, lams):
            return "reference lengths break the recurrence (bad rule in the workload)"
        if kind == "grow":
            got = (outcome["lengths"], outcome["counts"], outcome["words"], outcome["materialized"])
            return None if got == (lengths, counts, words, materialized) else "chain differs"
        if outcome["lengths"] != digest(lengths) or not outcome["recurrence_ok"]:
            return "growth law lengths differ or recurrence reported broken"
        if outcome["frequency_checked"] != (lengths[-1] > 10**4):
            return "frequency check gate differs"
        dev = outcome["frequency_deviation"]
        if dev is not None and not dev <= 0.05:
            return f"letter frequency deviation {dev} > 0.05"
        return None
    if kind == "stochastic":
        return _check_stochastic(p, outcome)
    if kind == "roots":
        if not _squarefree(char_poly(p["coeffs"])):
            if raised in REPEATED_ROOT_ERRORS:
                return None
            got = f"raised {raised}" if raised else "returned roots"
            return f"repeated root: expected RepeatedRootsError, {got}"
        if raised:
            return f"raised {raised}: {outcome['message']}"
        roots = [complex(*z) for z in outcome["roots"]]
        return _match_roots(roots, numpy_roots(p["coeffs"]))
    if kind == "binet":
        if raised:
            return f"raised {raised}: {outcome['message']}"
        want = _alphas(tuple(p["coeffs"]), tuple(p["vacuum"]), p["n"])
        i = _first_far(outcome["values"], [float(v) for v in want])
        return None if i is None else f"Binet value at n={i} off by more than rtol {FLOAT_RTOL}"
    if kind == "ratio":
        if raised:
            return f"raised {raised}: {outcome['message']}"
        seq = _alphas(tuple(p["coeffs"]), tuple(p["vacuum"]), p["n"] + 1)
        dom = max(numpy_roots(p["coeffs"]), key=abs).real
        if outcome["ratio"] != float(Fraction(seq[-1]) / seq[-2]):
            return "ratio differs from the exact quotient"
        if not _close(outcome["dominant"], dom, ROOT_RTOL) or outcome["passed"] is False:
            return f"dominant {outcome['dominant']} vs numpy {dom}, passed={outcome['passed']}"
        return None
    return f"no reference for op kind {kind!r}"


def _check_spectrum(p, outcome):
    raised = outcome.get("raised")
    if p["arithmetic"] == "exact":
        if raised:
            return f"raised {raised}: {outcome['message']}"
        rows = exact_spectrum(p["linear"], p["vacuum"], p["levels"])
        exact = [x for alphas, nsq in rows for x in (*alphas, nsq)]
        if outcome["digest"] != digest(exact) or outcome["flags"] != _flags(rows):
            return "exact spectrum differs from the closed form"
        return None
    rows = float_spectrum(p["functions"], p["vacuum"], p["levels"])
    if rows is None:
        if _is_subclass(raised, "ComputationError"):
            return None
        got = f"raised {raised}" if raised else "returned a table"
        return f"values overflow float64: expected a ComputationError, {got}"
    if raised:
        return f"raised {raised}: {outcome['message']}"
    got = [x for a, q in zip(outcome["alphas"], outcome["nsq"]) for x in (*a, q)]
    want = [x for a, q in rows for x in (*a, q)]
    i = _first_far(got, want)
    if i is not None or len(got) != len(want):
        return f"float spectrum entry {i} off by more than rtol {FLOAT_RTOL}"
    if outcome["flags"] != _flags(rows):
        return "physicality flags differ"
    return None


def _check_verify(p, outcome):
    raised = outcome.get("raised")
    rows = exact_spectrum(p["linear"], p["vacuum"], p["dim"] - 1)
    unitary = all(nsq >= 0 for _, nsq in rows)
    if not unitary:
        if raised == "NonUnitaryRepresentationError":
            return None
        return f"N^2 < 0 on the truncation: expected NonUnitaryRepresentationError, got {raised or 'a report'}"
    if raised:
        return f"raised {raised}: {outcome['message']}"
    if not outcome["all_passed"]:
        worst = max(outcome["residuals"], key=lambda e: e[1])
        return f"exact verdict passes; report fails {worst[0]} with residual {worst[1]:.3g}"
    if p["arithmetic"] == "exact" and any(r != 0.0 for _, r in outcome["residuals"]):
        return "exact residuals are not all zero"
    return None


def _check_stochastic(p, outcome):
    if outcome.get("raised"):
        return f"raised {outcome['raised']}: {outcome['message']}"
    lams = _q(p["coeffs"])
    k = len(lams)
    stochastic = all(v >= 0 for v in lams) and sum(lams) == 1
    if outcome["is_stochastic"] != stochastic:
        return "stochasticity verdict differs"
    if stochastic:
        weights = [sum(lams[k - 1 - j] for j in range(c + 1)) for c in range(k)]
        total = sum(weights)
        want = [str(w / total) for w in weights]
        if outcome["stationary"] != want:
            return "stationary vector differs from the closed form"
    dom = max(numpy_roots(p["coeffs"]), key=abs)
    got = outcome["dominant"]
    if got is None or not _close(complex(*got), dom, ROOT_RTOL):
        return f"dominant root {got} vs numpy {dom}"
    return None


def _check_cli(p, outcome):
    expect = p["expect_rc"]
    if outcome["raised"]:
        return f"uncaught {outcome['raised']} (traceback), expected exit {'/'.join(map(str, expect))}"
    rc = outcome["rc"]
    if rc == 0 and outcome["json"] not in (None, "ok"):
        return f"exit 0 but output is not strict JSON ({outcome['json']})"
    if rc not in expect:
        return f"exit {rc}, expected {'/'.join(map(str, expect))}"
    if rc != 0 and outcome["error_lines"] != 1:
        return f"exit {rc} with {outcome['error_lines']} error: lines, expected exactly one"
    if rc == 0 and "--format" in p["argv"] and p["argv"][p["argv"].index("--format") + 1] == "json":
        if outcome["json"] != "ok":
            return "json format printed no JSON object"
    seq = p.get("seq")
    if rc == 0 and seq and seq["method"] != "binet":
        want = _alphas(tuple(seq["coeffs"]), tuple(seq["seeds"]), seq["n"])
        if outcome["values"] != digest([str(Fraction(v)) for v in want]):
            return "sequence values differ from the reference loop"
    elif rc == 0 and seq:
        want = [float(v) for v in _alphas(tuple(seq["coeffs"]), tuple(seq["seeds"]), seq["n"])]
        i = _first_far(outcome["values"], want)
        if i is not None:
            return f"Binet value at n={i} off by more than rtol {FLOAT_RTOL}"
    return None
