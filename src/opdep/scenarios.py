"""Canonical model pairs and their mechanical verification.

Three scenarios are built in code and re-checked from first principles:

``counterexample``
    Two piecewise-uniform laws for windows of order 2 that are ordered by
    concordance (pointwise cdf and survival domination) yet have pattern
    dependence 1 and 0: concordance ordering does not order pattern
    dependence.  The two laws share two cells; the auxiliary half-mass
    models carry the cells in which they differ.

``example42``
    Discrete laws with an independent, identically distributed second
    position (the tail) on top of dependent first-position pairs (the
    heads).  The starred head dominates the unstarred one in cdf and
    survival, all conditional inequality families hold, and the swapped
    order is refuted with an explicit witness.

``example43``
    Like ``example42``, but the head law depends on the tail value, so the
    conditional families genuinely vary with the conditioning point.

Every verifier returns a :class:`ScenarioReport` whose checks compare
computed values against frozen expectations; no randomness is involved.

Both discrete scenarios keep dependence well defined only if the tail can
interleave with the head values; with the default tails (far above every
head value) both window patterns are almost surely increasing and the
dependence coefficient is undefined by construction.  The verifiers
therefore check the dependence conclusion on interleaving-tail variants
and check that the default-tail laws raise the documented error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from . import discrete as disc
from . import piecewise as pw
from .discrete import DiscreteJoint, Point
from .errors import InvalidParameter, OpdepError
from .patterns import dependence_from_pattern_terms
from .piecewise import Block, Cell, PiecewiseUniformDensity
from .records import Record

INF = math.inf


_PASS = {"key": "pass"}


@dataclass(frozen=True)
class CheckResult(Record):
    """One named comparison of a computed value against a frozen expectation."""

    name: str
    expected: str
    actual: str
    passed: bool = field(metadata=_PASS)


@dataclass(frozen=True)
class ScenarioReport(Record):
    """All checks of one scenario; ``passed`` is the conjunction."""

    scenario: str
    checks: tuple[CheckResult, ...]
    passed: bool = field(metadata=_PASS)

    @classmethod
    def from_checks(cls, scenario: str, checks: Sequence[CheckResult]) -> "ScenarioReport":
        return cls(scenario=scenario, checks=tuple(checks), passed=all(c.passed for c in checks))


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _value_check(name: str, expected: float, actual: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        expected=_fmt(float(expected)),
        actual=_fmt(float(actual)),
        passed=abs(actual - expected) <= tol,
    )


def _flag_check(name: str, expected: bool, actual: bool) -> CheckResult:
    return CheckResult(name=name, expected=_fmt(expected), actual=_fmt(actual), passed=actual == expected)


def _error_check(name: str, expected_error: str, thunk: Callable[[], object]) -> CheckResult:
    try:
        thunk()
        actual = "no error"
    except OpdepError as exc:
        actual = type(exc).__name__
    return CheckResult(name=name, expected=expected_error, actual=actual, passed=actual == expected_error)


def _chain(axis: str, positions: tuple[int, ...], lo: float, hi: float) -> Block:
    return Block(axis=axis, positions=positions, lo=lo, hi=hi, kind="chain")


def _free(axis: str, positions: tuple[int, ...], lo: float, hi: float) -> Block:
    return Block(axis=axis, positions=positions, lo=lo, hi=hi, kind="free")


class CounterexampleModels(NamedTuple):
    f: PiecewiseUniformDensity
    f_star: PiecewiseUniformDensity
    h: PiecewiseUniformDensity
    h_star: PiecewiseUniformDensity


def build_counterexample() -> CounterexampleModels:
    """The concordance-ordered pair with dependence 1 and 0, plus the parts.

    Both laws put mass 1/4 on each of four cells; two cells are shared.
    In ``f`` the window patterns agree in every cell (dependence 1); in
    ``f_star`` the four pattern combinations are uniform (dependence 0).
    ``h`` and ``h_star`` are the non-shared halves, each of total mass 1/2.
    """
    shared = (
        # x2 < x1 in [0, 1] with y2 < y1 in [1, 2]
        Cell(1.0, (_chain("x", (2, 1), 0.0, 1.0), _chain("y", (2, 1), 1.0, 2.0))),
        # x1 < x2 in [1, 2] with y1 < y2 in [0, 1]
        Cell(1.0, (_chain("x", (1, 2), 1.0, 2.0), _chain("y", (1, 2), 0.0, 1.0))),
    )
    own = (
        Cell(1.0, (_chain("x", (1, 2), 0.0, 1.0), _chain("y", (1, 2), 1.0, 2.0))),
        Cell(1.0, (_chain("x", (2, 1), 1.0, 2.0), _chain("y", (2, 1), 0.0, 1.0))),
    )
    own_star = (
        Cell(1.0, (_chain("x", (1, 2), 0.0, 1.0), _chain("y", (2, 1), 0.0, 1.0))),
        Cell(1.0, (_chain("x", (2, 1), 1.0, 2.0), _chain("y", (1, 2), 1.0, 2.0))),
    )
    f = PiecewiseUniformDensity(order=2, cells=(own[0],) + shared + (own[1],))
    f_star = PiecewiseUniformDensity(order=2, cells=(own_star[0],) + shared + (own_star[1],))
    h = PiecewiseUniformDensity(order=2, cells=own)
    h_star = PiecewiseUniformDensity(order=2, cells=own_star)
    return CounterexampleModels(f=f, f_star=f_star, h=h, h_star=h_star)


def _marginal_cdf_checks(
    name: str,
    model_a: PiecewiseUniformDensity,
    model_b: PiecewiseUniformDensity,
    coords_a: Sequence[int],
    coords_b: Sequence[int],
    values: Sequence[float],
    tol: float,
) -> CheckResult:
    """Equality of two marginal cdfs on a grid, as a single check.

    ``coords_a``/``coords_b`` select which flat coordinates carry the grid
    values, each in increasing order; all other coordinates sit at +inf,
    which marginalizes them out.  Each model's cdfs come from one grid walk.
    """
    walk_a, walk_b = (
        pw._orthant_grid(model, [values if c in coords else [INF] for c in range(model.dimension)], True)
        for model, coords in ((model_a, coords_a), (model_b, coords_b))
    )
    return _value_check(name, 0.0, max(map(abs, map(operator.sub, walk_a, walk_b))), tol)


def verify_counterexample(tol: float = 1e-12) -> ScenarioReport:
    """Re-derive every claim of the counterexample scenario.

    Checks: the four models validate at their stated masses; the two laws
    literally share two cells and split into shared plus own halves; both
    window marginals agree across the laws and are stationary within each
    law; the first law precedes the second in concordance order on the
    default grid; and the pattern coincidences and dependence values are
    exactly 1 vs 1/2 and 1 vs 0, so concordance ordering reverses nothing
    while dependence drops.
    """
    models = build_counterexample()
    f, f_star, h, h_star = models
    checks: list[CheckResult] = []

    for label, model, mass in (
        ("f", f, 1.0),
        ("f_star", f_star, 1.0),
        ("h", h, 0.5),
        ("h_star", h_star, 0.5),
    ):
        checks.append(
            _error_check(
                f"{label} validates with total mass {mass}",
                "no error",
                lambda m=model, em=mass: pw.validate(m, expected_mass=em, tol=tol),
            )
        )

    shared = [c for c in f.cells if c in f_star.cells]
    checks.append(_flag_check("two cells are shared between the laws", True, len(shared) == 2))
    checks.append(
        _flag_check(
            "h carries exactly the non-shared cells of f",
            True,
            sorted(map(repr, h.cells)) == sorted(repr(c) for c in f.cells if c not in shared),
        )
    )
    checks.append(
        _flag_check(
            "h_star carries exactly the non-shared cells of f_star",
            True,
            sorted(map(repr, h_star.cells))
            == sorted(repr(c) for c in f_star.cells if c not in shared),
        )
    )

    span = pw.default_grid([f, f_star])[0]
    checks.append(
        _marginal_cdf_checks("x window laws agree across f and f_star", f, f_star, (0, 1), (0, 1), span, tol)
    )
    checks.append(
        _marginal_cdf_checks("y window laws agree across f and f_star", f, f_star, (2, 3), (2, 3), span, tol)
    )
    for label, model in (("f", f), ("f_star", f_star)):
        checks.append(
            _marginal_cdf_checks(
                f"{label}: first and second x coordinates share one law", model, model, (0,), (1,), span, tol
            )
        )
        checks.append(
            _marginal_cdf_checks(
                f"{label}: first and second y coordinates share one law", model, model, (2,), (3,), span, tol
            )
        )

    report = pw.concordance_check(f, f_star, tol=tol)
    checks.append(_flag_check("f precedes f_star in cdf domination", True, report.cdf_dominated))
    checks.append(
        _flag_check("f precedes f_star in survival domination", True, report.survival_dominated)
    )
    checks.append(_value_check("max cdf violation on grid", 0.0, report.max_cdf_violation, tol))
    checks.append(
        _value_check("max survival violation on grid", 0.0, report.max_survival_violation, tol)
    )

    terms_f, terms_star = pw.pattern_terms(f), pw.pattern_terms(f_star)
    checks.append(_value_check("pattern coincidence of f", 1.0, terms_f[0], tol))
    checks.append(_value_check("pattern coincidence of f_star", 0.5, terms_star[0], tol))
    opd_f, opd_star = map(dependence_from_pattern_terms, (terms_f, terms_star))
    checks.append(_value_check("pattern dependence of f", 1.0, opd_f, tol))
    checks.append(_value_check("pattern dependence of f_star", 0.0, opd_star, tol))
    checks.append(
        _flag_check(
            "dependence decreases although concordance increases",
            True,
            report.dominated and opd_f > opd_star,
        )
    )
    return ScenarioReport.from_checks("counterexample", checks)


# Head laws shared by both discrete scenarios: the dependent pair puts mass
# 1/2 on (1, 3) and (2, 2); its starred counterpart on (1, 2) and (2, 3).

def head_law() -> DiscreteJoint:
    return DiscreteJoint(order=1, atoms={(1.0, 3.0): 0.5, (2.0, 2.0): 0.5})


def head_law_star() -> DiscreteJoint:
    return DiscreteJoint(order=1, atoms={(1.0, 2.0): 0.5, (2.0, 3.0): 0.5})


def uniform_head_law() -> DiscreteJoint:
    return DiscreteJoint(
        order=1,
        atoms={(1.0, 2.0): 0.25, (1.0, 3.0): 0.25, (2.0, 2.0): 0.25, (2.0, 3.0): 0.25},
    )


class LawPair(NamedTuple):
    law: DiscreteJoint
    law_star: DiscreteJoint


class ModelPair(NamedTuple):
    model: PiecewiseUniformDensity
    model_star: PiecewiseUniformDensity


def example42_tail_default() -> DiscreteJoint:
    """Independent tail: (X2, Y2) uniform on (5,5) and (6,6)."""
    return DiscreteJoint(order=1, atoms={(5.0, 5.0): 0.5, (6.0, 6.0): 0.5})


def example42_tail_interleaved() -> DiscreteJoint:
    """Tail uniform on (1.5, 2.5) and (2.5, 1.5), interleaving the heads."""
    return DiscreteJoint(order=1, atoms={(1.5, 2.5): 0.5, (2.5, 1.5): 0.5})


def build_example42(tail: DiscreteJoint | None = None) -> LawPair:
    """Heads extended by one shared independent tail position."""
    if tail is None:
        tail = example42_tail_default()
    return LawPair(
        law=disc.product_extend(head_law(), tail),
        law_star=disc.product_extend(head_law_star(), tail),
    )


def example42_head_models() -> ModelPair:
    """Continuous analogue of the heads: matching unit boxes, mass 1/2 each."""
    model = PiecewiseUniformDensity(
        order=1,
        cells=(
            Cell(0.5, (_free("x", (1,), 0.0, 1.0), _free("y", (1,), 2.0, 3.0))),
            Cell(0.5, (_free("x", (1,), 1.0, 2.0), _free("y", (1,), 1.0, 2.0))),
        ),
    )
    model_star = PiecewiseUniformDensity(
        order=1,
        cells=(
            Cell(0.5, (_free("x", (1,), 0.0, 1.0), _free("y", (1,), 1.0, 2.0))),
            Cell(0.5, (_free("x", (1,), 1.0, 2.0), _free("y", (1,), 2.0, 3.0))),
        ),
    )
    return ModelPair(model=model, model_star=model_star)


def build_example42_continuous() -> ModelPair:
    """Continuous heads extended by an independent uniform tail on [5, 6]^2."""
    heads = example42_head_models()

    def extend(head: PiecewiseUniformDensity) -> PiecewiseUniformDensity:
        cells = []
        for cell in head.cells:
            (x1,), (y1,) = cell.axis_blocks("x"), cell.axis_blocks("y")
            blocks = (
                _free("x", (1,), x1.lo, x1.hi), _free("x", (2,), 5.0, 6.0),
                _free("y", (1,), y1.lo, y1.hi), _free("y", (2,), 5.0, 6.0),
            )
            cells.append(Cell(cell.value, blocks))
        return PiecewiseUniformDensity(order=2, cells=tuple(cells))

    return ModelPair(model=extend(heads.model), model_star=extend(heads.model_star))


def example43_tail(c1: Sequence[float] = (10.0, 10.0), c2: Sequence[float] = (20.0, 20.0)) -> DiscreteJoint:
    return DiscreteJoint(order=1, atoms={tuple(map(float, c1)): 0.5, tuple(map(float, c2)): 0.5})


def build_example43(
    c1: Sequence[float] = (10.0, 10.0), c2: Sequence[float] = (20.0, 20.0)
) -> LawPair:
    """Tail-dependent heads: the head law switches with the tail value.

    Given tail value ``c1`` the heads are the dependent pair and its star;
    given ``c2`` both are uniform on the four head points.
    """
    tail = example43_tail(c1, c2)
    key1 = tuple(map(float, c1))
    key2 = tuple(map(float, c2))
    law = disc.mixture_from_conditionals(tail, {key1: head_law(), key2: uniform_head_law()})
    law_star = disc.mixture_from_conditionals(
        tail, {key1: head_law_star(), key2: uniform_head_law()}
    )
    return LawPair(law=law, law_star=law_star)


_HEAD_POINTS = ((1.0, 2.0), (1.0, 3.0), (2.0, 2.0), (2.0, 3.0))

# Frozen head tables: cdf and survival of the order-1 head laws at the four
# head points, unstarred and starred.
_TABLE_HEADS = {
    "cdf": (0.0, 0.5, 0.5, 1.0),
    "survival": (1.0, 0.5, 0.5, 0.0),
    "starred cdf": (0.5, 0.5, 0.5, 1.0),
    "starred survival": (1.0, 0.5, 0.5, 0.5),
}
_TABLE_UNIFORM = {
    "cdf": (0.25, 0.5, 0.5, 1.0),
    "survival": (1.0, 0.5, 0.5, 0.25),
    "starred cdf": (0.25, 0.5, 0.5, 1.0),
    "starred survival": (1.0, 0.5, 0.5, 0.25),
}
_TABLE_MIXED = {
    "cdf": (0.125, 0.5, 0.5, 1.0),
    "survival": (1.0, 0.5, 0.5, 0.125),
    "starred cdf": (0.375, 0.5, 0.5, 1.0),
    "starred survival": (1.0, 0.5, 0.5, 0.375),
}


def _pmf_close(a: dict, b: dict, tol: float) -> bool:
    """Same support, and probabilities within ``tol`` of each other."""
    return set(a) == set(b) and all(abs(a[k] - b[k]) <= tol for k in a)


def _coordinate_pmf(law: DiscreteJoint, coord: int) -> dict[float, float]:
    """Law of one flat coordinate: the pair marginal at its position, summed over the other window."""
    axis, position = divmod(coord, law.order)
    out: dict[float, float] = {}
    for pair, prob in disc.marginal(law, (position + 1,)).atoms:
        out[pair[axis]] = out.get(pair[axis], 0.0) + prob
    return out


def _head_table_checks(
    prefix: str,
    head: DiscreteJoint,
    head_star: DiscreteJoint,
    table: dict[str, tuple[float, ...]],
    tol: float,
) -> list[CheckResult]:
    checks = []
    for k, point in enumerate(_HEAD_POINTS):
        for starred, law in (("", head), ("starred ", head_star)):
            for side, fn in (("cdf", disc.cdf), ("survival", disc.survival)):
                name = starred + side
                checks.append(_value_check(f"{prefix}: {name}{point}", table[name][k], fn(law, point), tol))
    return checks


def _theorem_premise_checks(
    law: DiscreteJoint,
    law_star: DiscreteJoint,
    swapped_variant: str,
    conditioning_point: Point | None,
    witness_label: str,
    tol: float,
) -> list[CheckResult]:
    """The theorem's premises for the pair, and the refutation of the swapped pair.

    The tail position is shared and both condition families hold; the
    swapped pair fails ``swapped_variant`` with a cdf of 1/2 against 0 at
    the head point (1, 2), conditioned on ``conditioning_point`` (None for
    the unconditional variant B).
    """
    tail_shared = 2 in disc.shared_position_detect(law, law_star, tol=tol)
    rep_a = disc.check_theorem_conditions(law, law_star, "A", tol=tol)
    rep_b = disc.check_theorem_conditions(law, law_star, "B", tol=tol)
    swapped = disc.check_theorem_conditions(law_star, law, swapped_variant, tol=tol)
    witness = any(
        v.subset == (2,)
        and v.side == "cdf"
        and v.conditioning_point == conditioning_point
        and v.evaluation_point == (1.0, 2.0)
        and abs(v.lhs - 0.5) <= tol
        and abs(v.rhs - 0.0) <= tol
        for v in swapped.violations
    )
    return [
        _flag_check("tail pair laws agree across the two laws", True, tail_shared),
        _flag_check("conditional families (variant A) hold", True, rep_a.holds),
        _flag_check("marginal families (variant B) hold", True, rep_b.holds),
        _flag_check("variant A auto-detects the shared tail", True, rep_a.shared_positions == (2,)),
        _flag_check(f"swapped variant {swapped_variant} fails", False, swapped.holds),
        _flag_check(witness_label, True, witness),
    ]


def _dependence_conclusion_checks(
    law: DiscreteJoint, interleaved: LawPair, undefined_label: str, tol: float
) -> list[CheckResult]:
    """Dependence is undefined on the default tail and ordered on the interleaved one."""
    undefined = _error_check(undefined_label, "DegenerateDistribution", lambda: disc.exact_opd(law))
    opd = disc.exact_opd(interleaved.law)
    opd_star = disc.exact_opd(interleaved.law_star)
    return [
        undefined,
        _value_check("interleaved-tail dependence", -0.6, opd, tol),
        _value_check("interleaved-tail starred dependence", 0.2, opd_star, tol),
        _flag_check("dependence conclusion holds", True, opd <= opd_star + tol),
    ]


def verify_example42(tol: float = 1e-12) -> ScenarioReport:
    """Re-derive every claim of the independent-tail scenario."""
    law, law_star = build_example42()
    checks: list[CheckResult] = []

    head = disc.marginal(law, (1,))
    head_star = disc.marginal(law_star, (1,))
    checks.extend(_head_table_checks("head table", head, head_star, _TABLE_HEADS, tol))

    # Product structure: conditioning on any tail value returns the head law.
    for tail_point, _ in example42_tail_default().atoms:
        cond = disc.conditional(law, (2,), tail_point)
        checks.append(
            _flag_check(
                f"head conditional on tail {tail_point} equals head marginal",
                True,
                cond.as_dict() == head.as_dict(),
            )
        )
    checks.extend(
        _theorem_premise_checks(
            law, law_star, "B", None, "swapped run reports the head cdf witness at (1, 2)", tol
        )
    )

    heads_cont = example42_head_models()
    for label, model in (("continuous head", heads_cont.model), ("continuous starred head", heads_cont.model_star)):
        checks.append(
            _error_check(f"{label} validates as a density", "no error", lambda m=model: pw.validate(m, tol=tol))
        )
    for label, model, expected in (
        ("continuous head", heads_cont.model, 0.5),
        ("continuous starred head", heads_cont.model_star, 0.625),
    ):
        checks.append(_value_check(f"{label} cdf at (1.5, 2.5)", expected, pw.cdf(model, (1.5, 2.5)), tol))
    head_report = pw.concordance_check(heads_cont.model, heads_cont.model_star, tol=tol)
    checks.append(
        _flag_check("continuous heads are concordance ordered", True, head_report.dominated)
    )
    full_cont = build_example42_continuous()
    full_report = pw.concordance_check(full_cont.model, full_cont.model_star, tol=tol)
    checks.append(
        _flag_check("continuous full laws are concordance ordered", True, full_report.dominated)
    )

    checks.extend(
        _dependence_conclusion_checks(
            law,
            build_example42(tail=example42_tail_interleaved()),
            "default tail leaves dependence undefined",
            tol,
        )
    )
    return ScenarioReport.from_checks("example42", checks)


def verify_example43(tol: float = 1e-12) -> ScenarioReport:
    """Re-derive every claim of the tail-dependent scenario."""
    law, law_star = build_example43()
    checks: list[CheckResult] = []

    c1 = (10.0, 10.0)
    for prefix, value, table in (
        ("heads given first tail value", c1, _TABLE_HEADS),
        ("heads given second tail value", (20.0, 20.0), _TABLE_UNIFORM),
    ):
        head_c = disc.conditional(law, (2,), value)
        head_c_star = disc.conditional(law_star, (2,), value)
        checks.extend(_head_table_checks(prefix, head_c, head_c_star, table, tol))
    head = disc.marginal(law, (1,))
    head_star = disc.marginal(law_star, (1,))
    checks.extend(_head_table_checks("mixed head table", head, head_star, _TABLE_MIXED, tol))

    expected_head = {(1.0, 2.0): 0.125, (1.0, 3.0): 0.375, (2.0, 2.0): 0.375, (2.0, 3.0): 0.125}
    expected_head_star = {(1.0, 2.0): 0.375, (1.0, 3.0): 0.125, (2.0, 2.0): 0.125, (2.0, 3.0): 0.375}
    checks.append(_flag_check("mixed head pmf", True, _pmf_close(head.as_dict(), expected_head, tol)))
    checks.append(
        _flag_check("mixed starred head pmf", True, _pmf_close(head_star.as_dict(), expected_head_star, tol))
    )

    # Componentwise marginals agree even though the pair laws differ.
    for name, coord in (("first x coordinate", 0), ("first y coordinate", 2)):
        agree = _pmf_close(_coordinate_pmf(law, coord), _coordinate_pmf(law_star, coord), tol)
        checks.append(_flag_check(f"{name} laws agree across the two laws", True, agree))
    checks.extend(
        _theorem_premise_checks(
            law, law_star, "A", c1, "swapped run reports the conditional cdf witness at (1, 2)", tol
        )
    )
    checks.extend(
        _dependence_conclusion_checks(
            law,
            build_example43(c1=(1.5, 2.5), c2=(2.5, 1.5)),
            "default tail values leave dependence undefined",
            tol,
        )
    )
    return ScenarioReport.from_checks("example43", checks)


SCENARIOS: dict[str, Callable[[], ScenarioReport]] = {
    "counterexample": verify_counterexample,
    "example42": verify_example42,
    "example43": verify_example43,
}


def run_scenario(name: str) -> ScenarioReport:
    """Run one named scenario verifier."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise InvalidParameter(
            f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}"
        ) from None
    return runner()
