"""Spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces each traced function with a wrapper in its
defining module and in every ``infoineq`` module that holds a
``from .x import y`` copy of it, so calls made inside the package are
recorded too.  A span is (name, start, end, parent span, query id); spans
live in flat arrays while the run lasts and are written out at its end.
``layer_metrics()`` derives the per-layer counters from the spans alone.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name, value recorded on the span or None)
# Values: simplex.solve -> rows x columns posed; cone.decide -> largest bit
# length in the proof; parse_distribution -> atoms; entropy_profile ->
# atoms x nonempty masks; subset_entropies_decimal -> digits; sweep -> 1 for
# a step taken in decimal arithmetic.


def _cells(args, kwargs, result):
    columns, rhs = args[0], args[1]
    return len(columns) * len(rhs)


def _proof_bits(args, kwargs, result):
    numbers = getattr(result, "kappas", ()) + getattr(result, "lambdas", ())
    numbers += getattr(result, "coords", ())
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in numbers),
               default=0)


def _atoms(args, kwargs, result):
    return len(result.atoms)


def _atom_masks(args, kwargs, result):
    d = args[0]
    return len(d.atoms) * ((1 << d.n) - 1)


def _digits(args, kwargs, result):
    return args[1]


def _decimal_step(args, kwargs, result):
    return 0 if args[4] is None else 1


TARGETS = (
    ("cli", "main", "cli.main", None),
    ("simplex", "solve_nonneg_combination", "simplex.solve", _cells),
    ("simplex", "farkas_certificate_by_lp", "simplex.farkas_fallback", None),
    ("cone", "_decide", "cone.decide", _proof_bits),
    ("cone", "is_shannon_type", "cone.is_shannon_type", None),
    ("cone", "conditional_implied_by", "cone.conditional_implied_by", None),
    ("cone", "elemental_inequalities", "cone.elemental_inequalities", None),
    ("distribution", "parse_distribution", "distribution.parse_distribution", _atoms),
    ("distribution", "entropy_profile", "distribution.entropy_profile", _atom_masks),
    ("distribution", "is_cond_independent", "distribution.structural", None),
    ("distribution", "is_functional", "distribution.structural", None),
    ("distribution", "subset_entropies_decimal", "distribution.subset_entropies_decimal",
     _digits),
    ("conditional", "refute", "conditional.refute", None),
    ("conditional", "_margin_at", "conditional.sweep", _decimal_step),
    ("conditional", "check", "conditional.check", None),
    ("families", "generate", "families.generate", None),
    ("families", "geometric_closed_profile", "families.closed_profile", None),
    ("families", "is_prime", "families.is_prime", None),
    ("expressions", "parse", "expressions.parse", None),
    ("constructions", "double_markov_witness", "constructions.double_markov", None),
    ("constructions", "aep_margin", "constructions.aep", None),
    ("constructions", "aep_point", "constructions.aep", None),
)
# InfoExpression.evaluate is a method: wrapped on the class.
METHOD = ("expressions", "InfoExpression", "evaluate", "expressions.evaluate")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.value = array("d")
        self.stack = [-1]
        self.query_id = -1
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, func, name: str, measure):
        name_id = self._name_id(name)
        span_name, start, end, parent, value = (
            self.span_name, self.start, self.end, self.parent, self.value)
        query, stack = self.query, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            query.append(tracer.query_id)
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "infoineq" or k.startswith("infoineq.")]
        for module_name, attr, name, measure in TARGETS:
            original = getattr(sys.modules[f"infoineq.{module_name}"], attr)
            wrapper = self._wrap(original, name, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        module_name, cls_name, attr, name = METHOD
        cls = getattr(sys.modules[f"infoineq.{module_name}"], cls_name)
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw column arrays."""
        columns = ("span_name", "start", "end", "parent", "query", "value")
        header = {"names": self.names, "count": len(self.span_name),
                  "columns": [[c, getattr(self, c).typecode] for c in columns]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(handle)

    def layer_metrics(self) -> dict[str, float]:
        """Counters and busy/self times per layer, derived from the spans."""
        count = len(self.span_name)
        names = self.span_name
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        peak = [0.0] * len(self.names)
        parent = self.parent
        for i in range(count):
            k = names[i]
            calls[k] += 1
            self_time[k] += duration[i] - children[i]
            total[k] += self.value[i]
            peak[k] = max(peak[k], self.value[i])
            # Busy time counts the outermost span of a name once (the Farkas
            # fallback re-enters simplex.solve).
            p = parent[i]
            while p >= 0 and names[p] != k:
                p = parent[p]
            if p < 0:
                busy[k] += duration[i]

        def get(table, name):
            k = self.name_ids.get(name)
            return table[k] if k is not None else 0

        def layer_self(prefix):
            return sum(t for n, t in zip(self.names, self_time) if n.startswith(prefix))

        out = {}
        for name in ("simplex.solve", "cone.decide", "distribution.entropy_profile",
                     "distribution.structural", "distribution.subset_entropies_decimal",
                     "conditional.refute", "conditional.check", "families.closed_profile",
                     "families.is_prime", "families.generate", "expressions.parse",
                     "expressions.evaluate", "constructions.double_markov",
                     "constructions.aep", "cli.main"):
            out[f"{name}.calls"] = get(calls, name)
            out[f"{name}.busy_s"] = get(busy, name)
        out["simplex.solve.cells"] = get(total, "simplex.solve")
        out["simplex.farkas_fallback.calls"] = get(calls, "simplex.farkas_fallback")
        out["cone.self_s"] = layer_self("cone.")
        out["cone.proof.max_bits"] = get(peak, "cone.decide")
        out["distribution.parse_distribution.busy_s"] = get(
            busy, "distribution.parse_distribution")
        out["distribution.parse_distribution.atoms"] = get(
            total, "distribution.parse_distribution")
        atom_masks = get(total, "distribution.entropy_profile")
        out["distribution.entropy_profile.atom_masks"] = atom_masks
        out["distribution.entropy_profile.ns_per_atom_mask"] = (
            get(busy, "distribution.entropy_profile") * 1e9 / atom_masks if atom_masks else 0.0)
        out["distribution.subset_entropies_decimal.digits_max"] = get(
            peak, "distribution.subset_entropies_decimal")
        out["conditional.refute.self_s"] = get(self_time, "conditional.refute")
        steps = get(calls, "conditional.sweep")
        refutes = get(calls, "conditional.refute")
        out["conditional.sweep.steps"] = steps
        out["conditional.sweep.steps_per_witness"] = steps / refutes if refutes else 0.0
        out["conditional.sweep.decimal_steps"] = get(total, "conditional.sweep")
        out["cli.self_s"] = layer_self("cli.")
        return out
