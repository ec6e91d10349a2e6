"""Reference code that judges every answer the benchmark gets back.

Nothing here imports ``infoineq``: the checker has its own expression
parser, its own enumeration of the elemental forms, its own copy of the
nine-entry conditional registry and of the counterexample families, its own
entropy arithmetic (``collections.Counter`` + ``math.fsum`` for floats,
``decimal`` for witnesses) and its own exact structural tests.  A defect in
the package therefore cannot hide behind a check that runs the same code.

Each ``check_*`` function returns ``None`` when the answer is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

LETTERS = "ABCDEF"

Form = dict  # mask -> Fraction, zero coefficients never stored


# ---------------------------------------------------------------------------
# Linear forms over joint-entropy coordinates.
# ---------------------------------------------------------------------------


def _add(acc: Form, mask: int, coef) -> None:
    if not mask:
        return  # H(empty set) = 0
    value = acc.get(mask, Fraction(0)) + coef
    if value:
        acc[mask] = value
    else:
        acc.pop(mask, None)


def h_form(s: int, given: int = 0) -> Form:
    """H(S | T) = H(S,T) - H(T)."""
    acc: Form = {}
    _add(acc, s | given, 1)
    _add(acc, given, -1)
    return acc


def i_form(a: int, b: int, given: int = 0) -> Form:
    """I(A;B | C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    acc: Form = {}
    _add(acc, a | given, 1)
    _add(acc, b | given, 1)
    _add(acc, a | b | given, -1)
    _add(acc, given, -1)
    return acc


_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+)(?:\s*/\s*(\d+))?\s*\*?\s*)?([HI])\(([^)]*)\)"
)


def mask_of(names_text: str, names: str) -> int:
    mask = 0
    for name in names_text.split(","):
        name = name.strip()
        if name not in names:
            raise ValueError(f"unknown variable {name!r}")
        mask |= 1 << names.index(name)
    return mask


def parse_form(text: str, names: str = LETTERS) -> Form:
    """Parse ``[+-] [p[/q]] [*] H(..|..)`` / ``I(..;..|..)`` sums into a form."""
    text = text.strip()
    if text == "0":
        return {}
    acc: Form = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (not first and m.group(1) is None):
            raise ValueError(f"cannot parse {text[pos:]!r}")
        sign, num, den, head, body = m.groups()
        coef = Fraction(int(num or 1), int(den or 1)) * (-1 if sign == "-" else 1)
        main, _, cond = body.partition("|")
        given = mask_of(cond, names) if cond.strip() else 0
        if head == "H":
            piece = h_form(mask_of(main, names), given)
        else:
            left, semicolon, right = main.partition(";")
            if not semicolon:
                raise ValueError(f"I(...) needs ';' in {body!r}")
            piece = i_form(mask_of(left, names), mask_of(right, names), given)
        for mask, value in piece.items():
            _add(acc, mask, coef * value)
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
        first = False
    return acc


def form_key(form: Form) -> frozenset:
    return frozenset(form.items())


def elemental_texts(n: int) -> list[str]:
    """The elemental forms for arity n as DSL text.

    H(X_i | all others) for each i, then I(X_i;X_j | X_K) for i < j and every
    K among the remaining variables: n + C(n,2) 2^(n-2) forms.
    """
    names = LETTERS[:n]
    out = []
    for i, name in enumerate(names):
        rest = names[:i] + names[i + 1:]
        out.append(f"H({name}|{','.join(rest)})" if rest else f"H({name})")
    for i, j in combinations(range(n), 2):
        others = [c for k, c in enumerate(names) if k not in (i, j)]
        for r in range(len(others) + 1):
            for cond in combinations(others, r):
                tail = f"|{','.join(cond)}" if cond else ""
                out.append(f"I({names[i]};{names[j]}{tail})")
    return out


_ELEMENTAL_CACHE: dict[int, list[Form]] = {}


def elemental_forms(n: int) -> list[Form]:
    if n not in _ELEMENTAL_CACHE:
        _ELEMENTAL_CACHE[n] = [parse_form(t, LETTERS[:n]) for t in elemental_texts(n)]
    return _ELEMENTAL_CACHE[n]


# ---------------------------------------------------------------------------
# Linear-programming answers: certificates and separating points.
# ---------------------------------------------------------------------------


def check_certificate(body: list[str], n: int, target: Form, constraints=()) -> str | None:
    """``kappa k * g`` / ``lambda l * f`` lines, then ``==> target``."""
    if not body or not body[-1].startswith("==> "):
        return "certificate has no '==>' line"
    names = LETTERS[:n]
    elemental = {form_key(f) for f in elemental_forms(n)}
    allowed = {form_key(f) for f in constraints}
    total: Form = {}
    for line in body[:-1]:
        head, _, rest = line.partition(" ")
        coef_text, star, form_text = rest.partition(" * ")
        if not star or head not in ("kappa", "lambda"):
            return f"malformed certificate line {line!r}"
        coef = Fraction(coef_text)
        form = parse_form(form_text, names)
        if head == "kappa":
            if coef < 0:
                return f"negative kappa {coef}"
            if form_key(form) not in elemental:
                return f"kappa on a non-elemental form {form_text!r}"
        elif form_key(form) not in allowed:
            return f"lambda on a form that is not a constraint {form_text!r}"
        for mask, value in form.items():
            _add(total, mask, coef * value)
    if parse_form(body[-1][4:], names) != target:
        return "certificate states a different target"
    if total != target:
        return "certificate does not reconstruct the target"
    return None


def check_separating_point(body: list[str], n: int, target: Form) -> str | None:
    """``H(S) = p/q`` for every nonempty S; elemental >= 0, target < 0."""
    names = LETTERS[:n]
    coords: dict[int, Fraction] = {}
    for line in body:
        if not line.startswith("H("):
            continue
        label, _, value = line.partition(") = ")
        coords[mask_of(label[2:], names)] = Fraction(value)
    if len(coords) != (1 << n) - 1:
        return f"separating point has {len(coords)} coordinates"

    def value(form: Form) -> Fraction:
        return sum((c * coords[m] for m, c in form.items()), Fraction(0))

    for form in elemental_forms(n):
        if value(form) < 0:
            return "separating point violates an elemental form"
    if value(target) >= 0:
        return "separating point does not make the target negative"
    return None


# ---------------------------------------------------------------------------
# Distributions: own parser, float reference profile, exact structure tests.
# ---------------------------------------------------------------------------


def read_distribution(text: str) -> tuple[tuple[str, ...], dict[tuple, Fraction]]:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("no 'vars:' header")
    names = tuple(lines[0][5:].split())
    atoms: dict[tuple, Fraction] = {}
    for line in lines[1:]:
        left, _, right = line.rpartition(":")
        atoms[tuple(int(v) for v in left.split())] = Fraction(right.strip())
    if sum(atoms.values()) != 1:
        raise ValueError("probabilities do not sum to 1")
    return names, atoms


def integer_weights(atoms: dict[tuple, Fraction]) -> tuple[dict[tuple, int], int]:
    denom = math.lcm(*(p.denominator for p in atoms.values()))
    return {k: p.numerator * (denom // p.denominator) for k, p in atoms.items()}, denom


def _marginal(weights: dict[tuple, int], idx: tuple[int, ...]) -> Counter:
    acc: Counter = Counter()
    if not idx:
        acc[()] = sum(weights.values())
        return acc
    if len(idx) == 1:
        cell = lambda key, i=idx[0]: (key[i],)  # noqa: E731 - itemgetter(i) drops the tuple
    else:
        cell = itemgetter(*idx)
    for key, w in zip(map(cell, weights), weights.values()):
        acc[key] += w
    return acc


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def reference_profile(weights: dict[tuple, int], total: int, n: int) -> dict[int, float]:
    """H(S) in bits for every nonempty S: Counter marginals, fsum of -p log2 p."""
    out = {}
    for mask in range(1, 1 << n):
        counts = _marginal(weights, _bits(mask))
        out[mask] = math.fsum(-(w / total) * math.log2(w / total) for w in counts.values())
    return out


def close(value: float, reference: float) -> bool:
    """Printed reals carry 12 significant digits."""
    return abs(value - reference) <= 1e-9 * max(1.0, abs(reference))


class Reference:
    """A distribution file as the checker reads it, with its float profile."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as handle:
            self.names, atoms = read_distribution(handle.read())
        self.weights, self.total = integer_weights(atoms)
        self.profile = reference_profile(self.weights, self.total, len(self.names))


class References:
    """Reads each file once per run, after the timed queries."""

    def __init__(self):
        self._cache: dict[str, Reference] = {}

    def load(self, path: str) -> Reference:
        if path not in self._cache:
            self._cache[path] = Reference(path)
        return self._cache[path]


def evaluate(form: Form, profile: dict[int, float]) -> float:
    return math.fsum(float(c) * profile[m] for m, c in form.items())


def cond_independent(weights: dict[tuple, int], a: int, b: int, c: int) -> bool:
    """Exact I(A;B|C) = 0: w(abc) w(c) = w(ac) w(bc) on every cell."""
    ia, ib, ic = _bits(a), _bits(b), _bits(c)
    w_abc = _marginal(weights, ia + ib + ic)
    w_ac = _marginal(weights, ia + ic)
    w_bc = _marginal(weights, ib + ic)
    w_c = _marginal(weights, ic)
    by_c_a: dict[tuple, list] = {}
    for key, w in w_ac.items():
        by_c_a.setdefault(key[len(ia):], []).append((key[:len(ia)], w))
    by_c_b: dict[tuple, list] = {}
    for key, w in w_bc.items():
        by_c_b.setdefault(key[len(ib):], []).append((key[:len(ib)], w))
    for cv, wc in w_c.items():
        for av, wa in by_c_a.get(cv, ()):
            for bv, wb in by_c_b.get(cv, ()):
                if w_abc.get(av + bv + cv, 0) * wc != wa * wb:
                    return False
    return True


def functional(weights: dict[tuple, int], target: int, given: int) -> bool:
    """Exact H(target | given) = 0."""
    it, ig = _bits(target), _bits(given)
    seen: dict[tuple, tuple] = {}
    for key in weights:
        value = tuple(key[i] for i in it)
        if seen.setdefault(tuple(key[i] for i in ig), value) != value:
            return False
    return True


def form_holds_exactly(form: Form, weights: dict[tuple, int]) -> bool | None:
    """Exact zero test for a form that is one CMI or one conditional entropy."""
    cmi = _as_cmi(form)
    if cmi is not None:
        return cond_independent(weights, *cmi)
    if len(form) <= 2:
        plus = [m for m, v in form.items() if v == 1]
        minus = [m for m, v in form.items() if v == -1]
        if len(plus) == 1 and len(minus) == len(form) - 1:
            given = minus[0] if minus else 0
            if given & plus[0] == given:
                return functional(weights, plus[0] ^ given, given)
    return None


def _as_cmi(form: Form) -> tuple[int, int, int] | None:
    """Masks (a, b, c) when the form is exactly I(a;b|c)."""
    plus = [m for m, v in form.items() if v == 1]
    if len(plus) != 2 or any(v not in (1, -1) for v in form.values()):
        return None
    c = plus[0] & plus[1]
    a, b = plus[0] ^ c, plus[1] ^ c
    return (a, b, c) if a and b and i_form(a, b, c) == form else None


# ---------------------------------------------------------------------------
# The conditional registry and the counterexample families (own copies).
# ---------------------------------------------------------------------------

_BOX = "I(C;D|A) + I(C;D|B) + I(A;B) - I(C;D)"

# name -> (arity, constraints, target, paired family, lifted copy (source, index))
REGISTRY = {
    "I1": (4, ("I(A;B|C)", "I(A;B)"), _BOX, "claim1", None),
    "I2": (4, ("I(A;B|C)", "I(B;D|C)"), _BOX, "claim2", None),
    "I3": (4, ("I(A;B|C)", "H(C|A,B)"), _BOX, "claim3", None),
    "I4": (5, ("I(A;D|C)", "I(A;C|D)"), _BOX + " + I(A;C|E) + I(A;E|C)", "claim4", 3),
    "I5": (5, ("I(B;C|D)", "I(C;D|B)"), _BOX + " + I(B;C|E) + I(C;E|B)", "claim5", 3),
    "I6": (5, ("I(B;C|D)", "I(C;D|B)"), _BOX + " + I(C;D|E) + I(C;E|D)", "claim5", 1),
    "I4p": (4, ("I(A;D|C)", "I(A;C|D)"), _BOX, "claim4", None),
    "I5p": (4, ("I(B;C|D)", "I(C;D|B)"), _BOX, "claim5", None),
    "weak": (
        4,
        ("I(C;D|A)", "I(C;D|B)", "I(A;B)", "I(A;B|C)", "I(A;B|D)", "H(C|A,B)"),
        "- I(C;D)",
        "geometric",
        None,
    ),
}


def family_atoms(family: str, eps: Fraction) -> dict[tuple, Fraction]:
    """Atom tables of the binary families over (A, B, C, D)."""
    if family == "claim1":
        q = (1 - eps) / 4
        table = {(0, 0, 0, 1): q, (0, 1, 0, 0): q, (1, 0, 0, 1): q, (1, 1, 0, 1): q,
                 (1, 0, 1, 1): eps}
    elif family == "claim2":
        r = Fraction(1, 3) - eps
        table = {(0, 0, 0, 0): 3 * eps, (1, 1, 0, 0): r, (1, 0, 1, 0): r, (0, 1, 0, 1): r}
    elif family == "claim3":
        r = Fraction(1, 2) - eps
        table = {(1, 1, 0, 0): r, (0, 1, 1, 0): eps, (1, 0, 1, 0): eps, (0, 0, 1, 1): r}
    elif family == "claim4":
        a = Fraction(1, 4)
        table = {(0, 0, 0, 0): eps, (1, 1, 0, 0): eps, (0, 1, 1, 0): a,
                 (1, 1, 1, 0): a - eps, (0, 0, 0, 1): a - eps, (1, 0, 0, 1): a}
    elif family == "claim5":
        r = Fraction(1, 2) - eps
        table = {(0, 0, 0, 0): r, (0, 1, 0, 1): r, (1, 0, 1, 0): eps, (1, 1, 0, 0): eps}
    else:
        raise ValueError(f"unknown family {family!r}")
    return {k: p for k, p in table.items() if p > 0}


def decimal_profile(atoms: dict[tuple, Fraction], n: int, digits: int) -> dict[int, Decimal]:
    """H(S) in bits as Decimal at the given precision, from exact marginals."""
    out = {}
    with localcontext() as ctx:
        ctx.prec = digits
        ln2 = Decimal(2).ln()
        terms: dict[Fraction, Decimal] = {}  # p -> p ln p; few distinct masses
        for mask in range(1, 1 << n):
            idx = _bits(mask)
            masses: dict[tuple, Fraction] = {}
            for key, p in atoms.items():
                cell = tuple(key[i] for i in idx)
                masses[cell] = masses.get(cell, Fraction(0)) + p
            acc = Decimal(0)
            for p in masses.values():
                if p != 1:
                    if p not in terms:
                        dp = Decimal(p.numerator) / Decimal(p.denominator)
                        terms[p] = dp * dp.ln()
                    acc -= terms[p]
            out[mask] = acc / ln2
    return out


def geometric_decimal_profile(q: int, digits: int) -> dict[int, Decimal]:
    """Closed-form entropies of the point/point/line/parabola family over GF(q).

    With L = log2 q and M = log2(q-1): A, B, C are uniform on q^2 values and
    D on q^2 (q-1); given C the two points are independent on the line;
    given D its q tangent lines have mass 1/q^2 and its C(q,2) secants 2/q^2;
    every 3- and 4-subset containing D, and (A,B,C), pins the configuration
    up to the leading coefficient.  ``self_test`` checks these against an
    enumeration at small q.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        ln2 = Decimal(2).ln()
        L = Decimal(q).ln() / ln2
        M = Decimal(q - 1).ln() / ln2
        dq = Decimal(q)
        full = 4 * L + M
        A, B, C, D = 1, 2, 4, 8
        return {
            A: 2 * L, B: 2 * L, C: 2 * L, D: 2 * L + M,
            A | B: 4 * L - L / dq, A | C: 3 * L, B | C: 3 * L,
            A | D: 3 * L + M, B | D: 3 * L + M, C | D: full - (dq - 1) / dq,
            A | B | C: 4 * L, A | B | D: full, A | C | D: full, B | C | D: full,
            A | B | C | D: full,
        }


def geometric_atoms(q: int):
    """All q^4 (q-1) equally likely (A, B, C, D) configurations, as index tuples.

    C is the line y = c0 + c1 x, A and B points on it, D a parabola
    d(x) = c(x) + d2 (x - ax)(x - bx) with d2 != 0.
    """
    for c0 in range(q):
        for c1 in range(q):
            line = c0 * q + c1
            for ax in range(q):
                a = ax * q + (c0 + c1 * ax) % q
                for bx in range(q):
                    b = bx * q + (c0 + c1 * bx) % q
                    s, p = (ax + bx) % q, (ax * bx) % q
                    for d2 in range(1, q):
                        d1, d0 = (c1 - d2 * s) % q, (c0 + d2 * p) % q
                        yield a, b, line, ((d2 - 1) * q + d1) * q + d0


def refutation_margin(name: str, parameter, bound: Fraction, digits: int) -> Decimal:
    """target + L * sum |constraint| on the family member, in Decimal."""
    n, constraints, target, family, lift = REGISTRY[name]
    if family == "geometric":
        profile = geometric_decimal_profile(int(parameter), digits)
    else:
        atoms = family_atoms(family, Fraction(parameter))
        if lift is not None:
            atoms = {k + (k[lift],): p for k, p in atoms.items()}
        profile = decimal_profile(atoms, n, digits)
    names = LETTERS[:n]
    with localcontext() as ctx:
        ctx.prec = digits

        def value(text: str) -> Decimal:
            return sum(
                (Decimal(c.numerator) / Decimal(c.denominator) * profile[m]
                 for m, c in parse_form(text, names).items()),
                Decimal(0),
            )

        lam = Decimal(bound.numerator) / Decimal(bound.denominator)
        return value(target) + lam * sum((abs(value(c)) for c in constraints), Decimal(0))


def check_refutation(out: str, name: str, bound: Fraction) -> str | None:
    """The printed witness must be negative at two independent precisions.

    The working precision covers the digits of the bound and of the parameter
    (a margin of a dyadic member 2^-k lives near 10^-0.3k), plus a guard; a
    margin counts only when it is below the rounding error allowed for that
    precision, at both precisions.
    """
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    head = out.splitlines()[0] if out else ""
    family = REGISTRY[name][3]
    if head != f"refutation of {name} via {family}":
        return f"unexpected witness header {head!r}"
    if Fraction(fields.get("lambda bound", "nan")) != bound:
        return "witness states another lambda bound"
    if not fields.get("margin", "").endswith("< 0"):
        return "witness does not claim a negative margin"
    parameter = Fraction(fields["parameter"])
    if family == "geometric":
        if parameter.denominator != 1 or not is_prime(int(parameter)):
            return f"geometric parameter {parameter} is not a prime"
    elif not 0 < parameter < 1:
        return f"parameter {parameter} outside (0, 1)"
    base = 40 + len(str(bound.numerator)) + len(str(parameter.denominator)) + len(
        str(parameter.numerator)
    )
    for digits in (base, base + 30):
        margin = refutation_margin(name, parameter, bound, digits)
        resolution = Decimal(10) ** (8 - digits) * (1 + math.ceil(bound))
        if not margin < -resolution:
            return f"true margin {margin:.3E} is not negative (at {digits} digits)"
    return None


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


# ---------------------------------------------------------------------------
# Limit-point (aep) answers.
# ---------------------------------------------------------------------------

# On the closed-form profile I(C;D|A) = I(C;D|B) = 0, I(C;D) = (q-1)/q and
# I(A;B) = H(C|A,B) = log2(q)/q.  The I1 path bounds the right-hand side by
# 4 Delta with Delta = I(A;B); the I3 path by I(A;B) + 14 Delta with
# Delta = H(C|A,B).  So margin = ((q-1) - c log2 q) / q with c = 4 or 15, and
# its sign is the integer comparison 2^(q-1) versus q^c.
AEP_WEIGHT = {"I1": 4, "I3": 15}


def aep_violated(target: str, q: int) -> bool:
    return 2 ** (q - 1) > q ** AEP_WEIGHT[target]


def aep_margin(target: str, q: int) -> float:
    return ((q - 1) - AEP_WEIGHT[target] * math.log2(q)) / q


def check_aep(out: str, code: int, target: str, q: int) -> str | None:
    violated = aep_violated(target, q)
    tag = "AEP-VIOLATION" if violated else "AEP-NO-VIOLATION"
    verdicts = [line for line in out.splitlines() if line.startswith("AEP-")]
    prefix = f"{tag} {target} q={q} margin="
    if len(verdicts) != 1 or not verdicts[0].startswith(prefix):
        return f"aep verdict lines {verdicts!r}, expected {tag}"
    if code != (1 if violated else 0):
        return f"aep exit code {code}"
    if abs(float(verdicts[0][len(prefix):]) - aep_margin(target, q)) > 1e-9:
        return "aep margin differs from the closed form"
    return None
