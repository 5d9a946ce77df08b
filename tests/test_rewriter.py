import math
import os
import random
import subprocess
import sys

import pytest

import gdsum
from gdsum import cli, modgroup
from gdsum.cosets import transversal_g0_in_sl2, transversal_g1_in_sl2
from gdsum.dedekind import fast_sum, naive_sum
from gdsum.modgroup import I2, Mat2, S, T, random_gamma0, ts_decompose
from gdsum.rewriter import modified_rewrite
from reference_tables import (
    RewriteFactor,
    Term,
    bar,
    expand_factor,
    factor_rewrite,
    factor_terms,
    full_alphabet,
    gamma1_alphabet,
    in_gamma1,
    random_sl2,
    reduce_t_power,
    reduce_word,
    slot_factors,
    strip_letters,
    t_power,
    u_func,
    unsigned_product,
)
from word_faults import FAULTS, stand_in

FACTOR_COUNT_K = 9

# The letter-by-letter rewriting process, one U-factor per +-1-exponent
# letter: a small-scale reference for `modified_rewrite`.
CLASSIC_MAX_LETTERS = 32


def classic_rewrite(word, t):
    """Rewrite a +-1-exponent word over {T, S} as signed U-factors.

    word: sequence of (name, eps) with name in {"T", "S"} and eps = +-1.
    The signed product of the returned matrices equals the word's product,
    which must lie in Gamma1(N).  Capped at CLASSIC_MAX_LETTERS letters.
    """
    word = list(word)
    if len(word) > CLASSIC_MAX_LETTERS:
        raise ValueError(f"classic rewriting capped at {CLASSIC_MAX_LETTERS} letters")
    h = _word_product(word)
    if not in_gamma1(h, t.N):
        raise ValueError(f"word product {h} is not in Gamma1({t.N})")
    out = []
    prefix = I2
    for name, eps in word:
        g = T if name == "T" else S
        if eps == 1:
            # base is the rep of the prefix before this letter
            out.append((u_func(bar(t, prefix), g, t), 1))
            prefix = prefix * g
        else:
            # base is the rep of the prefix including this letter
            prefix = prefix * g.inv()
            out.append((u_func(bar(t, prefix), g, t), -1))
    return out


def expand_reduced(factors, alphabet):
    """Exact product of alphabet entries with multiplicities."""
    m = I2
    for f in factors:
        u = alphabet[(f.base_key, f.gen)]
        if f.multiplicity < 0:
            u = u.inv()
        for _ in range(abs(f.multiplicity)):
            m = m * u
    return m


def _word_product(word):
    m = I2
    for name, eps in word:
        g = T if name == "T" else S
        m = m * (g if eps == 1 else g.inv())
    return m


def _random_gamma1_words(N, rng, count, max_len=12):
    words = []
    while len(words) < count:
        word = [(rng.choice("TS"), rng.choice((1, -1))) for _ in range(rng.randint(1, max_len))]
        if in_gamma1(_word_product(word), N):
            words.append(word)
    return words


def test_classic_rewrite_reconstructs():
    t = transversal_g1_in_sl2(9)
    rng = random.Random(0)
    for word in _random_gamma1_words(9, rng, 12):
        factors = classic_rewrite(word, t)
        assert len(factors) == len(word)
        prod = I2
        for u, eps in factors:
            assert in_gamma1(u, 9)
            prod = prod * (u if eps == 1 else u.inv())
        assert prod == _word_product(word)


def test_classic_rewrite_shear_word():
    # T*T*T = T^3 in Gamma1(3)
    t = transversal_g1_in_sl2(3)
    factors = classic_rewrite([("T", 1)] * 3, t)
    prod = I2
    for u, eps in factors:
        prod = prod * (u if eps == 1 else u.inv())
    assert prod == t_power(3)
    assert classic_rewrite([], t) == []


def test_classic_rewrite_five_letter_pattern():
    # T T T S^-1 S^-1 multiplies to -T^3, which lies in Gamma1(2):
    # one U-factor per letter, signed like the letters
    t = transversal_g1_in_sl2(2)
    word = [("T", 1), ("T", 1), ("T", 1), ("S", -1), ("S", -1)]
    factors = classic_rewrite(word, t)
    assert len(factors) == 5
    assert [eps for _, eps in factors] == [1, 1, 1, -1, -1]
    prod = I2
    for u, eps in factors:
        assert in_gamma1(u, 2)
        prod = prod * (u if eps == 1 else u.inv())
    assert prod == -t_power(3)


def test_classic_rewrite_guards():
    t = transversal_g1_in_sl2(9)
    # a lone S letter does not land in Gamma1(9)
    with pytest.raises(ValueError):
        classic_rewrite([("S", 1)], t)
    with pytest.raises(ValueError):
        classic_rewrite([("T", 1)] * 40, t)


def test_classic_matches_modified_products():
    N = 9
    t = transversal_g1_in_sl2(N)
    rng = random.Random(1)
    for word in _random_gamma1_words(N, rng, 10):
        target = _word_product(word)
        classic = I2
        for u, eps in classic_rewrite(word, t):
            classic = classic * (u if eps == 1 else u.inv())
        modified = I2
        w = ts_decompose(target)
        for f in slot_factors(w, modified_rewrite(w, t), N):
            modified = modified * expand_factor(f, t)
        # the factors times the member at the walk's end key (0, +-1)
        unsigned = unsigned_product(w)
        assert classic == target and modified * bar(t, unsigned) == unsigned
        assert unsigned in (target, -target)


def test_modified_rewrite_worked_word():
    # the floor-quotient word of criterion 2
    t = transversal_g1_in_sl2(9)
    g1 = Mat2(-152, 137, -81, 73)
    w = strip_letters(g1, nearest=False, cap=None)
    factors = slot_factors(w, modified_rewrite(w, t), 9)
    expected = [
        ((0, 1), "T", 1),
        ((0, 1), "S", 1),
        ((1, 0), "T", -2),
        ((1, 7), "S", 1),
        ((7, 8), "T", -2),
        ((7, 3), "S", 1),
        ((3, 2), "T", -2),
        ((3, 5), "S", 1),
        ((5, 6), "T", -2),
        ((5, 5), "S", 1),
        ((5, 4), "T", -2),
        ((5, 3), "S", 1),
        ((3, 4), "T", -2),
        ((3, 7), "S", 1),
        ((7, 6), "T", -2),
        ((7, 1), "S", 1),
        ((1, 2), "T", -11),
        ((1, 0), "S", 1),
        ((0, 8), "T", -1),
    ]
    assert [(f.base_key, f.gen, f.exponent) for f in factors] == expected
    assert factors == factor_rewrite(w, t, product=g1)
    prod = I2
    for f in factors:
        prod = prod * expand_factor(f, t)
    # the word is negated: its walk ends at (0, 8), and the factors times
    # the member there multiply to -g1
    assert w.negate and prod * t.members[0, 8] == -g1


def test_modified_rewrite_identity_and_shears():
    t = transversal_g1_in_sl2(9)
    w = ts_decompose(I2)
    assert slot_factors(w, modified_rewrite(w, t), 9) == []
    # pure shear: a single T factor
    w = ts_decompose(t_power(7))
    factors = slot_factors(w, modified_rewrite(w, t), 9)
    assert [(f.base_key, f.gen, f.exponent) for f in factors] == [((0, 1), "T", 7)]
    assert factors == factor_rewrite(w, t)


def test_modified_rewrite_rejects_outsiders():
    # a product off Gamma0(9) raises; one in Gamma0(9) but not in Gamma1(9)
    # is walked to its end key (0, 8)
    t = transversal_g1_in_sl2(9)
    with pytest.raises(ValueError, match="not in Gamma0"):
        modified_rewrite(ts_decompose(Mat2(1, 0, 1, 1)), t)
    w = ts_decompose(Mat2(8, 7, 9, 8))
    assert not in_gamma1(Mat2(8, 7, 9, 8), 9)
    assert len(modified_rewrite(w, t)) == 2 * w.letters - 1


def test_checks_survive_stripped_asserts():
    # under python -O, the Gamma0 check of schreier_alphabet and the key
    # check of transversal_g1_in_sl2 still raise;
    # test_word_check_survives_stripped_asserts covers the word's product
    code = """if True:
        from gdsum.cosets import Transversal, schreier_alphabet, transversal_g0_in_sl2, transversal_g1_in_sl2
        from gdsum.modgroup import Mat2
        p1 = transversal_g0_in_sl2(9)
        bad = Transversal(9, "p1", {**p1.members, (1, 0): Mat2(1, 1, 0, 1)}, p1.edges, p1.bases)
        for call in (
            lambda: schreier_alphabet(9, bad),
            lambda: transversal_g1_in_sl2(9, bad),
        ):
            try:
                call()
            except ValueError as exc:
                print("ValueError:", exc)
        print("debug", __debug__)
    """
    src = os.path.dirname(os.path.dirname(gdsum.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.endswith("debug False\n")
    assert "ValueError: corrupted transversal: U entry" in out
    assert "ValueError: corrupted transversal: member" in out and "is off its key" in out


# in Gamma0(9), with a nine-letter nearest word
CHECKED = Mat2(416911, 407685, 512937, 501586)


@pytest.mark.parametrize("fault", FAULTS)
def test_a_wrong_word_is_refused(monkeypatch, ctx9, chi3, fault):
    """`ts_decompose` checks its own word, so a word wrong in any one
    place, an interior exponent, the last quotient, the solved last
    exponent or the sign, makes it and `fast_sum`, which rebuilds no
    product, raise ValueError naming the matrix."""
    assert ts_decompose(CHECKED).letters == 9
    for call in (lambda: ts_decompose(CHECKED), lambda: fast_sum(ctx9, CHECKED)):
        with monkeypatch.context() as patch:
            patch.setattr(modgroup, *stand_in(modgroup, fault, CHECKED), raising=False)
            with pytest.raises(ValueError, match=r"word product \(.*\) is not \(416911, 407685; 512937, 501586\)"):
                call()
    assert fast_sum(ctx9, CHECKED) == naive_sum(chi3, chi3, CHECKED)


@pytest.mark.parametrize("N", [9, 28, 35])
def test_modified_rewrite_checks_gamma0_at_its_end_key(N):
    """The walk's end key alone decides: a word whose product is off
    Gamma0(N), negated or not, raises, and one in Gamma0(N) is walked."""
    p1, rng = transversal_g0_in_sl2(N), random.Random(N)
    mats = [random_sl2(rng, 30) for _ in range(200)] + [random_gamma0(N, rng, kmax=10**12) for _ in range(20)]
    mats += [Mat2(1, 0, N * k + r, 1) for k in (0, 3) for r in (1, N - 1)]
    refused = 0
    for m in mats + [-m for m in mats]:
        w = ts_decompose(m)
        if m.in_gamma0(N):
            assert len(modified_rewrite(w, p1)) == 2 * w.letters - 1
            continue
        refused += 1
        with pytest.raises(ValueError, match=rf"is not in Gamma0\({N}\)"):
            modified_rewrite(w, p1)
    assert refused >= 100


def test_word_check_survives_stripped_asserts():
    """Under python -O, a word wrong in any one place still makes
    `ts_decompose` and `fast_sum` raise, and `modified_rewrite` still
    refuses a word off Gamma0(N) at N = 9, 28 and 35."""
    code = """if True:
        from gdsum import find_character, modgroup, precompute
        from gdsum.cosets import transversal_g0_in_sl2
        from gdsum.dedekind import fast_sum
        from gdsum.modgroup import Mat2, ts_decompose
        from gdsum.rewriter import modified_rewrite
        from word_faults import FAULTS, stand_in
        chi = find_character(3, [(2, "1/2")])
        ctx, m, word = precompute(chi, chi), Mat2(416911, 407685, 512937, 501586), modgroup.TSWord
        for fault in FAULTS:
            for call in (lambda: ts_decompose(m), lambda: fast_sum(ctx, m)):
                name, fake = stand_in(modgroup, fault, m)
                setattr(modgroup, name, fake)
                try:
                    print(fault, "gave", call())
                except ValueError as exc:
                    print(fault, "ValueError:", exc)
                finally:
                    modgroup.TSWord = word
                    vars(modgroup).pop("divmod", None)
        for N in (9, 28, 35):
            try:
                modified_rewrite(ts_decompose(Mat2(1, 0, N + 1, 1)), transversal_g0_in_sl2(N))
            except ValueError as exc:
                print("ValueError:", exc)
        print("debug", __debug__)
    """
    src = os.path.dirname(os.path.dirname(gdsum.__file__))
    tests = os.path.dirname(__file__)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.endswith("debug False\n") and " gave " not in out
    for fault in FAULTS:
        assert out.count(f"{fault} ValueError: word product (") == 2, fault
    for N in (9, 28, 35):
        assert f"ValueError: word product (1, 0; {N + 1}, 1) is not in Gamma0({N})" in out


def test_reduce_t_power():
    assert reduce_t_power(-11, 9) == (-2, 7)
    assert reduce_t_power(1, 9) == (0, 1)
    assert reduce_t_power(9, 9) == (1, 0)
    assert reduce_t_power(0, 9) == (0, 0)
    assert reduce_t_power(-18, 9) == (-2, 0)


def test_reduce_word_mapping():
    f = RewriteFactor((0, 1), "T", 1)
    assert [(r.base_key, r.gen, r.multiplicity) for r in reduce_word([f], 9)] == [
        ((0, 1), ("T", 1), 1)
    ]
    f = RewriteFactor((1, 2), "T", -11)
    assert [(r.base_key, r.gen, r.multiplicity) for r in reduce_word([f], 9)] == [
        ((1, 2), ("T", 9), -2),
        ((1, 2), ("T", 7), 1),
    ]
    # exact multiples of N drop the remainder part
    f = RewriteFactor((0, 1), "T", 18)
    assert [(r.gen, r.multiplicity) for r in reduce_word([f], 9)] == [(("T", 9), 2)]


def test_reduce_word_preserves_product():
    N = 9
    t = transversal_g1_in_sl2(N)
    alphabet = full_alphabet(N, t)
    rng = random.Random(2)
    vals = [v for v in alphabet.values() if v != I2]
    for _ in range(60):
        m = I2
        for _ in range(rng.randint(1, 5)):
            m = m * rng.choice(vals)
        w = ts_decompose(m)
        factors = slot_factors(w, modified_rewrite(w, t), N)
        unsigned = unsigned_product(w)
        assert unsigned in (m, -m)
        assert expand_reduced(reduce_word(factors, N), alphabet) * bar(t, unsigned) == unsigned


def test_reconstruction_many_levels():
    rng = random.Random(3)
    for N in (6, 9, 12):
        t = transversal_g1_in_sl2(N)
        alphabet = gamma1_alphabet(N, t)
        vals = [v for v in alphabet.values() if v != I2]
        for _ in range(200):
            m = I2
            for _ in range(rng.randint(1, 4)):
                m = m * rng.choice(vals)
            w = ts_decompose(m)
            factors = slot_factors(w, modified_rewrite(w, t), N)
            prod = I2
            for f in factors:
                prod = prod * expand_factor(f, t)
            unsigned = unsigned_product(w)
            assert unsigned in (m, -m) and prod * bar(t, unsigned) == unsigned


def test_factor_count_logarithmic():
    N = 9
    t = transversal_g1_in_sl2(N)
    rng = random.Random(4)
    for _ in range(200):
        gamma = random_gamma0(N, rng, kmax=10**9, d_shift=1)
        w = ts_decompose(gamma)
        factors = slot_factors(w, modified_rewrite(w, t), N)
        assert len(factors) <= 2 * w.letters - 1
        c = abs(gamma.c)
        assert len(factors) <= FACTOR_COUNT_K * math.log(c + 2) + FACTOR_COUNT_K



def _factor_line(f: RewriteFactor) -> str:
    return f"U({f.base_key}, {'S' if f.gen == 'S' else f'T^{f.exponent}'})"


def _term_line(t: Term) -> str:
    what = f"{'S-step row' if t.kind == 'S' else 'orbit total'} at {t.key}"
    return what if t.multiplicity == 1 else f"{t.multiplicity} * {what}"


def test_format_helpers(capsys, ctx9, ctx28):
    """`--trace` spells each factor as U(key, T^a) or U(key, S) and each
    term as "S-step row at key" or "m * orbit total at key", in the order
    and with the keys and multiplicities of `factor_rewrite` and
    `factor_terms`, and every spelling turns up."""
    assert _factor_line(RewriteFactor((1, 0), "T", -2)) == "U((1, 0), T^-2)"
    assert _factor_line(RewriteFactor((1, 7), "S", 1)) == "U((1, 7), S)"
    assert _term_line(Term((1, 2), "T", -2, ())) == "-2 * orbit total at (1, 2)"
    assert _term_line(Term((1, 7), "S", 1, ())) == "S-step row at (1, 7)"
    rng, seen = random.Random(6), set()
    for ctx in (ctx9, ctx28):
        for _ in range(40):
            gamma = random_gamma0(ctx.N, rng, kmax=10**6)
            factors = factor_rewrite(ts_decompose(gamma), ctx.p1, gamma)
            terms = factor_terms(factors, ctx)
            cli._print_trace(ctx, gamma)
            out = capsys.readouterr().out.splitlines()
            start = out.index("rewritten factors:")
            mid = next(i for i, line in enumerate(out) if line.startswith("terms added"))
            assert out[start + 1 : mid] == [f"  {_factor_line(f)}" for f in factors]
            assert out[mid + 1 : -1] == ([f"  {_term_line(t)}" for t in terms] or ["  none"])
            seen |= {f.gen for f in factors} | {(t.kind, t.multiplicity == 1) for t in terms}
    assert seen >= {"T", "S", ("S", True), ("T", False)}
