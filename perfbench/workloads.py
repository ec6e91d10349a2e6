"""Seeded query mixes for the three workloads.

``build(name, seed, workdir)`` writes any input files into ``workdir`` and
returns the ordered list of queries.  A query is one CLI invocation (its
argv) plus the check that judges its exit code and stdout; the package sees
only the argv and the files.  The same seed gives the same argv and the same
file bytes.

Counts per query class are fixed; the seed only picks members inside a
class.  That keeps each run's total work, and which class the median and the
90th percentile fall in, the same from seed to seed (baseline/SUMMARY.md
lists the per-class latencies these counts were shaped on).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from typing import Callable

import checker


@dataclass(frozen=True)
class Query:
    kind: str  # query class, e.g. "n5-shannon"; latencies are reported per class
    argv: tuple[str, ...]
    check: Callable  # (exit code, stdout, References) -> None or a reason


WORKLOADS = ("lp_decide", "profile_check", "refute_ladder")


def warmup(name: str, workdir: str) -> list[tuple[str, ...]]:
    """Seed-free cheap queries run once per set-up, after ``build``."""
    if name == "lp_decide":
        return [("shannon-type", "--n", "4", "--expr", "I(A;B|C) + 2 H(A|B,C,D)"),
                ("shannon-type", "--n", "4", "--expr", "- I(A;B)"),
                ("implied-by", "--n", "4", "--target", "I(A;B) - I(A;C|B)",
                 "--constraint", "I(A;C|B)")]
    if name == "profile_check":
        return [("profile", _path(workdir, "geometric7")),
                ("aep", "--target", "I1", "--q", "31")]
    return [("refute", "--ineq", "I1", "--lambda", "100"),
            ("refute", "--ineq", "weak", "--lambda", "10")]


def _path(workdir: str, stem: str) -> str:
    return os.path.join(workdir, stem + ".dist")


def build(name: str, seed: int, workdir: str) -> list[Query]:
    rng = random.Random(f"{name}/{seed}")
    if name == "lp_decide":
        return _lp_decide(rng)
    if name == "profile_check":
        return _profile_check(rng, workdir)
    if name == "refute_ladder":
        return _refute_ladder(rng)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# lp_decide: exact LP decisions at n = 4, 5, 6.
# ---------------------------------------------------------------------------


def _box_text(a: str, b: str, c: str, d: str) -> str:
    return f"I({c};{d}|{a}) + I({c};{d}|{b}) + I({a};{b}) - I({c};{d})"


def _series_text(kind: str, k: int) -> str:
    """Member k of the five-variable series (i), (ii), (iii), k >= 1."""
    first, tail = {
        "i": (f"I(A;C|E) + I(A;E|C) + 1/{k} I(C;E|A)", ("I(A;D|C)", "I(A;C|D)")),
        "ii": (f"I(B;C|E) + I(C;E|B) + 1/{k} I(B;E|C)", ("I(B;C|D)", "I(C;D|B)")),
        "iii": (f"I(C;D|E) + I(C;E|D) + 1/{k} I(D;E|C)", ("I(B;C|D)", "I(C;D|B)")),
    }[kind]
    text = _box_text("A", "B", "C", "D") + " + " + first
    if k > 1:
        half = Fraction(k - 1, 2)
        text += "".join(f" + {half} {t}" for t in tail)
    return text


def _combination(rng: random.Random, n: int, terms: int) -> str:
    """Nonnegative rational combination of distinct elemental forms."""
    chosen = rng.sample(checker.elemental_texts(n), terms)
    return " + ".join(f"{rng.randint(1, 9)}/{rng.randint(1, 4)} {t}" for t in chosen)


def _lp_answer(expected: str, n: int, target_text: str, constraints: tuple[str, ...],
               code: int, out: str, refs) -> str | None:
    names = checker.LETTERS[:n]
    target = checker.parse_form(target_text, names)
    lines = out.splitlines()
    want_code = 0 if expected in ("SHANNON-TYPE", "IMPLIED") else 1
    if not lines or lines[0] != expected or code != want_code:
        got = lines[0] if lines else ""
        return f"verdict {got!r} (exit {code}), expected {expected!r}"
    if expected == "SHANNON-TYPE":
        return checker.check_certificate(lines[1:], n, target)
    if expected == "NOT SHANNON-TYPE":
        return checker.check_separating_point(lines[1:], n, target)
    if expected == "IMPLIED":
        forms = [checker.parse_form(c, names) for c in constraints]
        return checker.check_certificate(lines[1:], n, target, forms)
    return None if len(lines) == 1 else "NOT IMPLIED carries extra output"


def _shannon_query(kind, expected, n, text) -> Query:
    return Query(kind, ("shannon-type", "--n", str(n), "--expr", text),
                 partial(_lp_answer, expected, n, text, ()))


def _implied_query(kind, expected, n, target, constraints) -> Query:
    argv = ["implied-by", "--n", str(n), "--target", target]
    for c in constraints:
        argv += ["--constraint", c]
    return Query(kind, tuple(argv), partial(_lp_answer, expected, n, target, tuple(constraints)))


N6_CERTIFICATES = (
    "8/3 I(C;F|A,B,D) + 3 I(A;E|C,D)",
    "9 I(D;E|A,B) + 4 I(C;E|D,F)",
    "2/3 I(C;E) + 4 I(A;B|C,F) + 7 I(E;F) + 4 I(A;D|C)",
)


def _lp_decide(rng: random.Random) -> list[Query]:
    """72 queries at n = 4, 32 at n = 5, 3 at n = 6; about half SHANNON-TYPE.

    With 72 of 107 queries at n = 4 the median falls three quarters into the
    n = 4 band and the 90th percentile three quarters into the n = 5 band,
    away from the steps between the bands.  Only n = 4 is seeded: LP cost at
    n = 5 swings 5x between inputs of the same shape (and at n = 6 from 0.5 s
    to 7 s), so seeded members there would move the 90th percentile and
    wall_s with the seed.  The n = 5 members come from a fixed stream.
    """
    queries: list[Query] = []
    fixed = random.Random("lp_decide/n5")
    # Known SHANNON-TYPE: term counts cycle so the LP size mix is seed-free.
    for n, count, draw in ((4, 32, rng), (5, 7, fixed)):
        for i in range(count):
            queries.append(_shannon_query(f"n{n}-shannon", "SHANNON-TYPE", n,
                                          _combination(draw, n, 2 + i % 6)))
    # These three n = 6 certificates take 2.4-2.8 s each.
    for text in N6_CERTIFICATES:
        queries.append(_shannon_query("n6-shannon", "SHANNON-TYPE", 6, text))
    # Shannon combination + rational x constraint: IMPLIED through a
    # free-sign lambda column.
    for n, count, draw in ((4, 14, rng), (5, 3, fixed)):
        for i in range(count):
            constraint = draw.choice(checker.elemental_texts(n))
            scale = Fraction(draw.randint(1, 7), draw.randint(1, 3)) * draw.choice((-1, 1))
            target = f"{_combination(draw, n, 2 + i % 4)} + {scale} {constraint}"
            target = target.replace("+ -", "- ")
            queries.append(_implied_query(f"n{n}-implied", "IMPLIED", n, target, [constraint]))
    # Known NOT: the non-Shannon inequalities, Ingleton (box) under role
    # assignments (box is symmetric in (a, b) and in (c, d)), and negated
    # elemental forms.
    zy4 = _box_text("A", "B", "C", "D") + " + I(A;C|D) + I(A;D|C) + I(C;D|A)"
    zy5 = _box_text("A", "B", "C", "D") + " + I(E;C|D) + I(E;D|C) + I(C;D|E)"
    queries.append(_shannon_query("n4-not", "NOT SHANNON-TYPE", 4, zy4))
    queries.append(_shannon_query("n5-not", "NOT SHANNON-TYPE", 5, zy5))
    for kind in ("i", "ii", "iii"):
        for k in range(1, 6):
            queries.append(_shannon_query("n5-not", "NOT SHANNON-TYPE", 5, _series_text(kind, k)))

    def roles(n):
        return sorted({(min(a, b), max(a, b), min(c, d), max(c, d))
                       for a, b, c, d in permutations(checker.LETTERS[:n], 4)})
    for n, boxes in ((4, roles(4)), (5, fixed.sample(roles(5), 3))):
        for a, b, c, d in boxes:
            queries.append(_shannon_query(f"n{n}-not", "NOT SHANNON-TYPE", n,
                                          _box_text(a, b, c, d)))
    for form in rng.sample(checker.elemental_texts(4), 13):
        queries.append(_shannon_query("n4-not", "NOT SHANNON-TYPE", 4, f"- {form}"))
    # The nine registry entries are all NOT IMPLIED over the Shannon cone.
    for name, (n, constraints, target, _, _) in checker.REGISTRY.items():
        queries.append(_implied_query(f"n{n}-registry", "NOT IMPLIED", n, target, constraints))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# profile_check: entropy profiles and structural checks on files.
# ---------------------------------------------------------------------------


class _Sources:
    """Independent sources with small integer weights (exact masses)."""

    def __init__(self, rng: random.Random, count: int, alphabet: int):
        self.rng = rng
        self.sizes = [alphabet] * count  # fixed, so instance sizes barely vary by seed
        self.weights = [[rng.randint(1, 4) for _ in range(s)] for s in self.sizes]

    def combos(self):
        for combo in product(*(range(s) for s in self.sizes)):
            w = 1
            for i, v in enumerate(combo):
                w *= self.weights[i][v]
            yield combo, w

    def function(self, args: tuple[int, ...], out_size: int):
        table = {sub: self.rng.randrange(out_size)
                 for sub in product(*(range(self.sizes[i]) for i in args))}
        return lambda combo: table[tuple(combo[i] for i in args)]

    @staticmethod
    def projection(args: tuple[int, ...]):
        return lambda combo: tuple(combo[i] for i in args)


def _from_functions(src: _Sources, fns) -> dict[tuple, int]:
    raw: dict[tuple, int] = {}
    for combo, w in src.combos():
        key = tuple(fn(combo) for fn in fns)
        raw[key] = raw.get(key, 0) + w
    maps = [{v: j for j, v in enumerate(sorted({k[i] for k in raw}))} for i in range(len(fns))]
    return {tuple(maps[i][k[i]] for i in range(len(fns))): w for k, w in raw.items()}


def constraint_exact(rng: random.Random, name: str) -> dict[tuple, int]:
    """Integer-weight table on which the registry entry's constraints hold exactly.

    Variables are functions of independent sources, arranged as in the test
    suite's construction patterns but with sources of 5 or 6 letters.
    """
    if name == "weak":
        src = _Sources(rng, 4, 6)
        order = list(range(4))
        rng.shuffle(order)
        sa, sb = tuple(sorted(order[:2])), (order[2],)
        sc = tuple(sorted(rng.sample(sa + sb, rng.randint(1, 3))))
        outside = tuple(i for i in range(4) if i not in sc)
        sd = tuple(sorted(rng.sample(outside, rng.randint(1, len(outside)))))
        return _from_functions(src, [src.projection(s) for s in (sa, sb, sc, sd)])
    src = _Sources(rng, 5, 5)
    u, v, r1, r2, r3 = range(5)
    every = (0, 1, 2, 3, 4)
    if name == "I1":
        fns = [src.function((u, r1), 4), src.function((v, r2), 4),
               src.projection((u, v)), src.function(every, 6)]
    elif name == "I2":
        fns = [src.function((u, v, r1), 4), src.function((v, r2), 4),
               src.projection((u, v)), src.function((u, v, r1, r3), 6)]
    elif name == "I3":
        def pair(f, g):
            return lambda combo: (f(combo), g(combo))
        fns = [pair(src.projection((u,)), src.function((u, r1), 3)),
               pair(src.projection((v,)), src.function((v, r2), 3)),
               src.projection((u, v)), src.function(every, 6)]
    elif name in ("I4", "I4p"):
        fns = [src.function((u, r3), 4), src.function(every, 6),
               src.projection((u, r1)), src.projection((u, r2))]
    else:  # I5, I5p, I6
        fns = [src.function(every, 6), src.projection((u, r1)),
               src.function((u, r3), 4), src.projection((u, r2))]
    if name in ("I4", "I5", "I6"):
        fns.append(src.function(every, 4))
    return _from_functions(src, fns)


def double_markov(rng: random.Random) -> dict[tuple, int]:
    """(X, Y, Z, V) with I(X;Z|Y) = I(Y;Z|X) = 0: a common part screens Z off."""
    src = _Sources(rng, 4, 6)
    w0, rx, ry, rz = range(4)
    return _from_functions(src, [src.projection((w0, rx)), src.projection((w0, ry)),
                                 src.function((w0, rz), 4), src.function((0, 1, 2, 3), 4)])


def random_table(rng: random.Random, n: int, support: int) -> dict[tuple, int]:
    """``support`` atoms with weights drawn from 1..10^6 (thousands distinct).

    Alphabets are sized so that the support fills at most half of the box.
    """
    low = {4: 7, 5: 5, 6: 4}[n]
    sizes = [rng.randint(low, low + 1) for _ in range(n)]
    cells = rng.sample(range(math.prod(sizes)), support)
    out = {}
    for cell in cells:
        key = []
        for s in sizes:
            cell, v = divmod(cell, s)
            key.append(v)
        out[tuple(key)] = rng.randint(1, 10**6)
    return out


def write_table(path: str, names: str, weights: dict[tuple, int]) -> str:
    total = sum(weights.values())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("vars: " + " ".join(names) + "\n")
        for key in sorted(weights):
            handle.write(" ".join(map(str, key)) + f" : {weights[key]}/{total}\n")
    return path


def write_geometric(path: str, q: int) -> str:
    mass = f" : 1/{q ** 4 * (q - 1)}\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("vars: A B C D\n")
        handle.writelines(f"{a} {b} {c} {d}{mass}" for a, b, c, d in checker.geometric_atoms(q))
    return path


def _random_expression(rng: random.Random, n: int) -> str:
    names = checker.LETTERS[:n]
    terms = []
    for _ in range(rng.randint(2, 5)):
        a, b, *rest = rng.sample(names, n)
        cond = ",".join(sorted(rest[: rng.randint(0, len(rest))]))
        atom = f"I({a};{b}|{cond})" if cond else f"I({a};{b})"
        if rng.random() < 0.3:
            atom = f"H({a}|{cond})" if cond else f"H({a})"
        terms.append(f"{rng.randint(1, 5)}/{rng.randint(1, 3)} {atom}")
    return " + ".join(terms)


def _profile_answer(path: str, code: int, out: str, refs) -> str | None:
    ref = refs.load(path)
    lines = out.splitlines()
    if code != 0 or len(lines) != len(ref.profile):
        return f"profile exit {code} with {len(lines)} lines"
    for line in lines:
        label, _, value = line.partition(" = ")
        mask = checker.mask_of(label[2:-1], ref.names)
        if not checker.close(float(value), ref.profile[mask]):
            return f"{label} = {value}, reference {ref.profile[mask]!r}"
    return None


def _eval_answer(path: str, text: str, code: int, out: str, refs) -> str | None:
    ref = refs.load(path)
    want = checker.evaluate(checker.parse_form(text, ref.names), ref.profile)
    if code != 0 or not checker.close(float(out), want):
        return f"eval gave {out.strip()!r} (exit {code}), reference {want!r}"
    return None


def _check_answer(path: str, name: str, code: int, out: str, refs) -> str | None:
    ref = refs.load(path)
    _, constraints, target, _, _ = checker.REGISTRY[name]
    lines = out.splitlines()
    if len(lines) != len(constraints) + 2:
        return f"check printed {len(lines)} lines"
    flags = []
    for text, line in zip(constraints, lines):
        form = checker.parse_form(text, ref.names)
        holds = checker.form_holds_exactly(form, ref.weights)
        flags.append(holds)
        status = "holds exactly" if holds else "does not hold"
        value = checker.evaluate(form, ref.profile)
        head = f"constraint {text} = "
        if not (line.startswith(head) and line.endswith(f" ({status})")):
            return f"{line!r}, expected '{status}'"
        if not checker.close(float(line[len(head):].split(" (")[0]), value):
            return f"{line!r}, reference value {value!r}"
    value = checker.evaluate(checker.parse_form(target, ref.names), ref.profile)
    head = f"target {target} = "
    if not (lines[-2].startswith(head) and checker.close(float(lines[-2][len(head):]), value)):
        return f"{lines[-2]!r}, reference value {value!r}"
    # Every registry entry is valid on true distributions, so with the
    # constraints exact the verdict must be "holds".
    verdict = "holds" if all(flags) else "constraints not satisfied: no claim made"
    if lines[-1] != verdict or code != 0:
        return f"verdict {lines[-1]!r} (exit {code}), expected {verdict!r}"
    return None


def _double_markov_answer(path: str, code: int, out: str, refs) -> str | None:
    ref = refs.load(path)
    head, _, body = out.partition("\n")
    words = head.split()
    if code != 0 or words[:2] != ["witness", "variable"]:
        return f"double-markov printed {head!r} (exit {code})"
    names, atoms = checker.read_distribution(body)
    weights, total = checker.integer_weights(atoms)
    n = len(ref.names)
    if names[:n] != ref.names or len(names) != n + 1:
        return f"extended variables {names}"
    projected: dict[tuple, int] = {}
    for key, w in weights.items():
        projected[key[:n]] = projected.get(key[:n], 0) + w
    if {k: Fraction(w, total) for k, w in projected.items()} != {
        k: Fraction(w, ref.total) for k, w in ref.weights.items()
    }:
        return "extension does not marginalize to the input"
    x, y, z, w_mask = 1, 2, 4, 1 << n
    classes = len({key[n] for key in weights})
    if words[4:] != [str(classes), "classes"]:
        return f"{head!r} but the extension has {classes} classes"
    if not (checker.functional(weights, w_mask, x) and checker.functional(weights, w_mask, y)
            and checker.cond_independent(weights, z, x | y, w_mask)):
        return "class variable fails H(W|X) = H(W|Y) = I(Z;X,Y|W) = 0"
    return None


def _aep_answer(target: str, q: int, code: int, out: str, refs) -> str | None:
    return checker.check_aep(out, code, target, q)


TABLE_SUPPORT = 1500


def _profile_check(rng: random.Random, workdir: str) -> list[Query]:
    queries: list[Query] = []

    def path(stem: str) -> str:
        return _path(workdir, stem)

    # Uniform weights, large supports: geometric(q) has q^4 (q-1) atoms.
    g = {q: write_geometric(path(f"geometric{q}"), q) for q in (7, 11, 13)}
    queries.append(Query("geometric13", ("check", "--ineq", "weak", g[13]),
                         partial(_check_answer, g[13], "weak")))
    queries.append(Query("geometric13", ("profile", g[13]), partial(_profile_answer, g[13])))
    queries.append(Query("geometric11", ("profile", g[11]), partial(_profile_answer, g[11])))
    queries.append(Query("geometric11", ("check", "--ineq", "I1", g[11]),
                         partial(_check_answer, g[11], "I1")))
    box = _box_text("A", "B", "C", "D")
    for argv, answer in ((("profile", g[7]), partial(_profile_answer, g[7])),
                         (("eval", "--expr", box, g[7]), partial(_eval_answer, g[7], box)),
                         (("check", "--ineq", "weak", g[7]),
                          partial(_check_answer, g[7], "weak"))):
        queries.append(Query("geometric7", argv, answer))

    # Thousands of distinct weights at n = 4, 5, 6.
    for n, count in ((4, 10), (5, 10), (6, 10)):
        for i in range(count):
            names = checker.LETTERS[:n]
            p = write_table(path(f"table{n}_{i}"), names, random_table(rng, n, TABLE_SUPPORT))
            if i % 2:
                text = _random_expression(rng, n)
                queries.append(Query(f"table{n}", ("eval", "--expr", text, p),
                                     partial(_eval_answer, p, text)))
            else:
                queries.append(Query(f"table{n}", ("profile", p), partial(_profile_answer, p)))
    for i in range(6):
        name = rng.choice(["I1", "I2", "I3", "I4p", "I5p", "weak"])
        p = write_table(path(f"checktable{i}"), "ABCD", random_table(rng, 4, TABLE_SUPPORT))
        queries.append(Query("table4-check", ("check", "--ineq", name, p),
                             partial(_check_answer, p, name)))

    # Constraint-exact instances: the verdict must be "holds".
    for name in checker.REGISTRY:
        n = checker.REGISTRY[name][0]
        for i in range(5):
            p = write_table(path(f"exact_{name}_{i}"), checker.LETTERS[:n],
                            constraint_exact(rng, name))
            queries.append(Query("exact-check", ("check", "--ineq", name, p),
                                 partial(_check_answer, p, name)))

    for i in range(10):
        p = write_table(path(f"markov{i}"), ("X", "Y", "Z", "V"), double_markov(rng))
        queries.append(Query("double-markov", ("double-markov", p, "--x", "X", "--y", "Y",
                                               "--z", "Z"),
                             partial(_double_markov_answer, p)))

    primes = [q for q in range(3, 2000) if checker.is_prime(q)]
    for target in ("I1", "I3"):
        for q in rng.sample(primes, 5):
            queries.append(Query("aep", ("aep", "--target", target, "--q", str(q)),
                                 partial(_aep_answer, target, q)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# refute_ladder: refutation sweeps over a ladder of bounds L.
# ---------------------------------------------------------------------------

DYADIC = ("I1", "I3", "I4", "I5", "I6", "I4p", "I5p")


def ladder(rng: random.Random, top_exponent: int, seeded_decades: int,
           per_decade: int) -> list[Fraction]:
    """Powers 10^0..10^top plus seeded rungs in the lowest decades.

    Decade k gets ``per_decade`` rungs, one in each equal slice of
    [10^k, 10^(k+1)) on the log scale, with three significant digits.  The
    stratified draw keeps the spread of the rungs, hence the cost of the
    sweeps, nearly the same for every seed.
    """
    rungs = [Fraction(10**k) for k in range(top_exponent + 1)]
    for k in range(seeded_decades):
        for j in range(per_decade):
            mantissa = round(10 ** (2 + (j + rng.random()) / per_decade))
            rungs.append(Fraction(mantissa * 10**k, 100))
    return sorted(rungs)


def _refute_answer(name: str, bound: Fraction, code: int, out: str, refs) -> str | None:
    if code != 1:
        return f"refute exit {code}, expected 1"
    return checker.check_refutation(out, name, bound)


def _refute_ladder(rng: random.Random) -> list[Query]:
    """Dyadic entries: 1..10^5 with four seeded rungs per decade, plus 10^6.

    Their rungs from 10^4 up form the slowest band of the cheap queries, and
    the 90th percentile falls inside it; 49 queries there keep it steady.

    I2 and weak: 1..10^4 with two seeded rungs in each decade below 10^2.
    Above that their cost is steep in L (I2 quadruples at each doubling of
    the eps exponent, weak scans every prime up to about 37 L), so seeded
    rungs there would move the run time by seconds and put the 90th
    percentile on the step between query classes; the pinned 10^2, 10^3 and
    10^4 rungs cover that range.
    Dyadic rungs between 10^5 and 10^6 are left out because I4 and I4p
    return wrong witnesses from 6 10^5 on; the pinned 10^6 rung shows that.
    """
    queries = []
    for name in DYADIC:
        for bound in ladder(rng, 5, 5, 4) + [Fraction(10**6)]:
            queries.append(_refute_query("dyadic", name, bound))
    for name in ("I2", "weak"):
        for bound in ladder(rng, 4, 2, 2):
            queries.append(_refute_query(name, name, bound))
    rng.shuffle(queries)
    return queries


def _refute_query(kind: str, name: str, bound: Fraction) -> Query:
    return Query(kind, ("refute", "--ineq", name, "--lambda", str(bound)),
                 partial(_refute_answer, name, bound))
