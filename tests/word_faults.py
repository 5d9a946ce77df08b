"""Faults in the words `ts_decompose` emits, one per part of a word.

`stand_in(modgroup, fault, m)` gives a name in `gdsum.modgroup`, `divmod`
or `TSWord`, and a stand-in for it under which the next nearest
decomposition of m emits a word that is wrong in one place:

- "interior exponent": the second quotient is one too large;
- "last quotient": the last quotient Euclid emits is one too large;
- "last exponent": the solved last exponent is one too large;
- "sign": the solved sign is flipped.

The word's product is then not m, so the decomposition must raise.  Kept
apart from the tests so that a `python -O` subprocess can import it too.
"""

FAULTS = ("interior exponent", "last quotient", "last exponent", "sign")


def stand_in(modgroup, fault, m):
    word = modgroup.TSWord
    if fault == "sign":
        return "TSWord", lambda negate, exps: word(not negate, exps)
    if fault == "last exponent":
        return "TSWord", lambda negate, exps: word(negate, (*exps[:-1], exps[-1] + 1))
    at, calls = 2 if fault == "interior exponent" else modgroup.ts_decompose(m).letters - 1, []

    def faulty_divmod(a, c):
        calls.append(None)
        q, r = divmod(a, c)
        return (q + 1, r) if len(calls) == at else (q, r)

    return "divmod", faulty_divmod
