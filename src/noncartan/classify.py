"""Decision procedures: `classify_system`, which classifies a linear
normal form by the isotropy test for the canonical class and a scalar
equation by the necessary cubic-in-p linearization test; the
trace-removal residual verifier and the brute-force polynomial oracle
for m x m systems, and the non-Cartan-existence decision for 2x2
systems.  A trace-free y'' = M y is the `LinearSystemSpec` (0, -M),
and `symmetry` builds the ansatze of its determining equations.  The
brute-force search builds its ansatz, the prolongation and the linear
forms of the field pieces once per (m, degree cap) and multiplies each
system's pieces into those forms, straight into the rows of its linear
system."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import linalg
from .expr import (
    _ONE_TERMS, CollectError, Expression, OpaqueArgumentError, Symbol,
    ZeroStatus, _dot, _fresh_params, _mon_mul, collect, differentiate,
    is_zero, one, param, sym, zero, zero_status,
)
from .jet import JetContext, VectorField, prolong
from .symmetry import (
    DeterminingSystem, LinearSystemSpec, OdeSystem, _prolonged_residuals,
    _split_pairs, determining_equations, full_ansatz, invariance_residual,
    restricted_ansatz,
)
from .catalog import SourceEquation, non_cartan_generators

__all__ = [
    "LinearSystemSpec", "ClassificationVerdict", "NotInNormalFormError",
    "TraceReductionError", "cubic_in_p_test", "isotropy_test",
    "non_cartan_existence_2x2", "determining_system_2x2",
    "trace_free_reduce", "classify_linear_system", "classify_system",
    "brute_force_non_cartan_search", "non_cartan_search",
]


class NotInNormalFormError(ValueError):
    pass


class TraceReductionError(ValueError):
    def __init__(self, residual: Expression):
        super().__init__("trace-removal residual is nonzero: %s" % residual)
        self.residual = residual


@dataclass(frozen=True)
class ClassificationVerdict:
    """Kind "linear" decides canonical-class membership; kind "scalar"
    leaves it None and states facts: p-degree, cubic test, C1/C2 pair."""

    in_canonical_class: bool | None
    witnesses: tuple = None
    reason: tuple = ()
    kind: str = "linear"
    facts: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.witnesses is not None:
            object.__setattr__(self, "witnesses", tuple(self.witnesses))
        object.__setattr__(self, "reason", tuple(self.reason))
        if (self.in_canonical_class is True) != (self.witnesses is not None):
            raise ValueError("witnesses present iff in the canonical class")


# ---------------------------------------------------------------------------
# Cubic-in-p test


def _poly_coeffs(e: Expression, p: Symbol) -> dict:
    try:
        groups = collect(e, [p])
    except CollectError:
        # e is a polynomial, so p occurs inside an opaque argument
        raise OpaqueArgumentError("p occurs inside an opaque argument; "
                                  "the cubic test does not apply") from None
    out = {}
    for mon, coeff in groups.items():
        deg = mon[0][1] if mon else 0
        out[deg] = coeff
    return out


def cubic_in_p_test(f: Expression, p: Symbol) -> bool:
    """True iff f, rational in p, the first derivative of the equation's
    dependent variable, is a polynomial of degree at most 3 in p (the
    necessary condition for linearizability of y'' = f)."""
    degree = _p_degree(f, p)
    return degree is not None and degree <= 3


def _p_degree(f: Expression, p: Symbol):
    """The degree of f in p, or None unless f, rational in p, is a
    polynomial in p: the numerator is divided by the denominator as
    univariate polynomials in p over the rational-function coefficient
    field, and a nonzero remainder means no polynomial."""
    ncoef, dcoef = (_poly_coeffs(Expression(terms, _ONE_TERMS), p)
                    for terms in (f.num, f.den))
    ndeg, ddeg = max(ncoef, default=0), max(dcoef, default=0)
    if ddeg == 0:
        return ndeg
    rem = dict(ncoef)
    lead = dcoef[ddeg]
    while rem and max(rem) >= ddeg:
        rdeg = max(rem)
        q = rem[rdeg] / lead
        for d, c in dcoef.items():
            k = rdeg - ddeg + d
            acc = rem.get(k, zero()) - q * c
            if acc.is_rational_zero():
                rem.pop(k, None)
            else:
                rem[k] = acc
    if any(not is_zero(c) for c in rem.values()):
        return None
    return max(ndeg - ddeg, 0)


# ---------------------------------------------------------------------------
# Isotropy and trace removal


def _require_normal_form(spec: LinearSystemSpec) -> None:
    """Raise NotInNormalFormError unless spec is y'' + A_0 y = 0."""
    if spec.n != 2:
        raise NotInNormalFormError("isotropy test requires a second-order system")
    for row in spec.a1:
        for entry in row:
            if not entry.is_rational_zero():
                raise NotInNormalFormError(
                    "system is not in normal form (first-order term present)")


def _trace(rows):
    return sum((row[i] for i, row in enumerate(rows)), zero())


def _isotropy_defects(spec: LinearSystemSpec, rules=()):
    """The scalar part q = tr(A_0) / m of the normal-form system and a lazy
    iterator over the entries (i, j) where A_0 - q I is not zero."""
    _require_normal_form(spec)
    m = spec.m
    q = _trace(spec.a0) / m
    defects = ((i, j) for i in range(m) for j in range(m)
               if zero_status(spec.a0[i][j] - (q if i == j else zero()),
                              rules) is ZeroStatus.NONZERO)
    return q, defects


def isotropy_test(spec: LinearSystemSpec, rules=()) -> bool:
    """True iff the normal-form system y'' = M y is isotropic, i.e. M is
    a scalar multiple of the identity."""
    _, defects = _isotropy_defects(spec, rules)
    return next(defects, None) is None


def trace_free_reduce(spec: LinearSystemSpec, q: Expression, rules=()):
    """Verify that the candidate auxiliary function q satisfies
    -4 s q^2 + 3 q'^2 - 2 q q'' = 0, where s = tr(M) / m for the system
    y'' = M y, and return the rows of the trace-free matrix (M - s I) / q^2
    of the reduced system, expressed in the original variable."""
    if q.is_rational_zero() or q.max_jet_order() >= 0:
        raise ValueError("q must be a nonzero function of x alone")
    # y'' = M y with M = -A_0, so s = -tr(A_0) / m
    neg_s, _ = _isotropy_defects(spec, rules)
    qp = differentiate(q, spec.ctx.x)
    qpp = differentiate(qp, spec.ctx.x)
    residual = 4 * neg_s * q ** 2 + 3 * qp ** 2 - 2 * q * qpp
    if zero_status(residual, rules) is ZeroStatus.NONZERO:
        raise TraceReductionError(residual)
    scale = q ** -2
    return tuple(tuple((neg_s - e if i == j else -e) * scale
                       for j, e in enumerate(row))
                 for i, row in enumerate(spec.a0))


# ---------------------------------------------------------------------------
# Witnesses and the 2x2 decision


def _verified_witnesses(src: SourceEquation, system: OdeSystem):
    """The non-Cartan generators C_k built from src in the system's
    context, rechecked under the system's rules as the one field
    W = sum_k t_k C_k, with parameters t_k that no atom of the system or
    the generators carries.  Prolongation is linear in the field, so W's
    residuals are sum_k t_k R_k, which is zero iff every R_k is.  They are
    taken without the rules, which `zero_status` applies once.  W depends
    on the context and the names of u, v and the t_k, not on q, so its
    prolongation is cached by `_witness_prolongation`."""
    witnesses = tuple(non_cartan_generators(src, system.ctx))
    slots = list(zip(*(c.components() for c in witnesses)))
    ts = [sym(t) for t in _fresh_params(len(witnesses), itertools.chain(
        system.rhs, (r.replacement for r in system.rules), *slots))]
    xi, *phi = (_dot(zip(ts, slot)) for slot in slots)
    pf = _witness_prolongation(VectorField(xi, tuple(phi), system.ctx))
    for r in _prolonged_residuals(pf, OdeSystem(system.ctx, system.rhs)):
        if zero_status(r, system.rules) is ZeroStatus.NONZERO:
            raise AssertionError("witness failed re-verification")
    return witnesses


_WITNESS_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_WITNESS_CACHE_SIZE)
def _witness_prolongation(field: VectorField):
    """`prolong` to the field's order, once per distinct field W."""
    return prolong(field, field.context.order)


@functools.lru_cache(maxsize=1)
def _trivial_witnesses() -> tuple:
    """The non-Cartan generators of the trivial 2x2 system, verified on
    first use; they depend on nothing, so later calls share them."""
    zmat = ((zero(),) * 2,) * 2
    return _verified_witnesses(SourceEquation.trivial(),
                               LinearSystemSpec(2, 2, (zmat, zmat)).ode_system())


def non_cartan_existence_2x2(a: Expression, b: Expression,
                             c: Expression) -> ClassificationVerdict:
    """A trace-free 2x2 normal form admits a non-Cartan symmetry iff it
    is the trivial system (A = B = C = 0).  The witnesses are those of
    the trivial system, verified once per process."""
    if any(e.max_jet_order() >= 0 for e in (a, b, c)):
        raise ValueError("coefficients must be functions of x only")
    reason = tuple("%s is nonzero" % name
                   for name, e in (("A", a), ("B", b), ("C", c))
                   if zero_status(e) is ZeroStatus.NONZERO)
    if reason:
        return ClassificationVerdict(False, None, reason)
    return ClassificationVerdict(True, _trivial_witnesses(), ())


def determining_system_2x2(a: Expression, b: Expression, c: Expression,
                           restricted: bool) -> DeterminingSystem:
    """Determining equations for a symmetry of the trace-free 2x2 normal
    form; when restricted, the xi-component is alpha(x) y + beta(x) w +
    gamma(x) with the induced forms of the other components."""
    system = LinearSystemSpec(2, 2, (((zero(),) * 2,) * 2,
                                     ((-a, -b), (-c, a)))).ode_system()
    build = restricted_ansatz if restricted else full_ansatz
    return determining_equations(system, build(system.ctx))


def classify_linear_system(spec: LinearSystemSpec,
                           rules=()) -> ClassificationVerdict:
    """Canonical-class membership for second-order linear systems in
    normal form, via the isotropy test under the rules; witnesses are the
    non-Cartan generators built from the common scalar coefficient q,
    rechecked under the rules together with those of q's source equation."""
    q, defects = _isotropy_defects(spec, rules)   # convention y'' + q y = 0
    reasons = tuple("non-isotropic at entry (%d,%d)" % (i + 1, j + 1)
                    for i, j in defects)
    if reasons:
        return ClassificationVerdict(False, None, reasons)
    src = SourceEquation.for_q(q)
    rules = tuple(r for r in rules if r not in src.rules) + src.rules
    witnesses = _verified_witnesses(src, spec.ode_system(rules))
    return ClassificationVerdict(True, witnesses, ())


def _classify_scalar(system: OdeSystem) -> ClassificationVerdict:
    """The degree of y'' = f in p = y', then the pair C1, C2 of y'' = 0
    that the equation admits under its rules."""
    ctx = system.ctx
    try:
        degree = _p_degree(system.rhs[0], ctx.jet(1, 1))
        cubic, note = degree is not None and degree <= 3, None
    except OpaqueArgumentError as exc:
        degree, cubic, note = None, None, str(exc)
    pair = non_cartan_generators(SourceEquation.trivial(), ctx)
    admitted = [label for label, v in zip(("C1", "C2"), pair)
                if all(zero_status(r, system.rules) is not ZeroStatus.NONZERO
                       for r in invariance_residual(v, system))]
    return ClassificationVerdict(None, kind="scalar", facts={
        "p-degree": degree, "cubic-in-p": cubic, "cubic-note": note,
        "admits-non-cartan": admitted})


def classify_system(system: OdeSystem) -> ClassificationVerdict:
    """The verdict on a linear normal form y'' = M y or a scalar y'' = f,
    under the system's rules; NotInNormalFormError for any other system."""
    spec = LinearSystemSpec.from_system(system)
    if spec is not None:
        return classify_linear_system(spec, system.rules)
    if system.ctx.m == 1 and system.ctx.order == 2:
        return _classify_scalar(system)
    raise NotInNormalFormError("classification needs a linear normal-form "
                               "system or a scalar second-order equation")


# ---------------------------------------------------------------------------
# Brute-force polynomial-ansatz search (independent route)


_ORACLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def _oracle_ansatz(m: int, degree_cap: int):
    """The system-independent part of the brute-force search on m
    equations: the parameter tuple, the indices of the non-Cartan slots
    (the alpha_i coefficients), the second prolongation of the ansatz in
    JetContext(m, 2), with the on-shell split of its top coefficients
    (`ProlongedField.top_split`), and the linear forms of its field
    pieces.  The forms are laid out as `_split_pairs` lays out its
    pairs, one tuple per equation, and each is the piece's
    `linalg._affine_groups` {rest monomial: {column: coefficient}}, the
    column of a parameter being its index in the tuple."""
    ctx = JetContext(m, 2)
    x, *ys = map(sym, ctx.point_symbols())
    params = []
    noncartan_slots = []

    def poly(tag, deg, flag=False):
        e = zero()
        for d in range(deg + 1):
            pv = param("_%s%d" % (tag, d))
            if flag:
                noncartan_slots.append(len(params))
            params.append(pv)
            e = e + sym(pv) * x ** d
        return e

    xi = sum((poly("al%d_" % i, degree_cap, True) * y
              for i, y in enumerate(ys, 1)), zero()) + poly("ga", degree_cap)
    factors = [one()] + ys     # a monomial of degree <= 2 is a product of two
    etas = [zero()] * m
    for i, j in itertools.combinations_with_replacement(range(m + 1), 2):
        etas = [eta + poly("e%d_%d_%d_" % (k, i, j), degree_cap + 2)
                * factors[i] * factors[j] for k, eta in enumerate(etas, 1)]
    pf = prolong(VectorField(xi, tuple(etas), ctx), 2)
    column = {p: i for i, p in enumerate(params)}
    zmat = ((zero(),) * m,) * m
    layout = _split_pairs(pf, LinearSystemSpec(m, 2, (zmat, zmat)).ode_system())
    forms = tuple(tuple(linalg._affine_groups(piece.num, column)
                        for piece, _ in eq) for eq in layout)
    return tuple(params), tuple(noncartan_slots), pf, forms


def _search_rows(forms, pairs) -> list:
    """The rows {column: coefficient} of the split residuals, one per
    equation and rest monomial: each pair's system piece multiplied
    into its field piece's cached linear form, the products of one
    equation added by rest monomial and column, and the entries and rows
    that cancel dropped.  These are the rows `linalg._affine_groups`
    makes of the residuals' terms, in another order."""
    rows = []
    for eq_forms, eq_pairs in zip(forms, pairs, strict=True):
        acc = {}
        for form, (_, piece) in zip(eq_forms, eq_pairs, strict=True):
            for smon, sc in piece.num:
                for rest, lin in form.items():
                    row = acc.setdefault(_mon_mul(rest, smon), {})
                    for col, v in lin.items():
                        t = row.get(col, 0) + sc * v
                        if t:
                            row[col] = t
                        else:
                            del row[col]
        rows.extend(row for row in acc.values() if row)
    return rows


def non_cartan_search(matrix, degree_cap: int = 4) -> bool:
    """Search for a non-Cartan symmetry of the trace-free normal form
    y'' = M y with xi = sum_i alpha_i(x) y_i + gamma(x) and polynomial
    coefficient functions of degree <= degree_cap; the remaining
    components are general quadratics in y_1..y_m with polynomial
    x-coefficients of degree <= degree_cap + 2.  Returns True when some
    solution of the determining equations has an alpha_i != 0.  The
    answer is one-sided, and trace removal comes first: the fields of an
    isotropic y'' = -2 y are trigonometric, so a matrix whose trace is
    not zero is refused with ValueError, as is an entry that carries
    one of the search's own parameters.  The ansatz, its prolongation
    and the linear forms of its field pieces depend only on
    (m, degree_cap), so they are built once per pair per process (see
    `_oracle_ansatz`).  For a polynomial M each residual is its
    `_split_pairs`, and `_search_rows` multiplies the few terms of each
    system piece (1, d delta / dx, F_k or d delta / dy_k^(i)) into the
    cached form of its field piece, straight into the rows; no
    Expression is built and no term is split again.  For a rational M
    the solved form is substituted (`_prolonged_residuals`) and
    `linalg._affine_groups` splits each term into its parameter's
    column and the rest.  Each row goes to `linalg.nullspace` as a dict
    {column: coefficient}."""
    if (not isinstance(degree_cap, int) or isinstance(degree_cap, bool)
            or degree_cap < 0):
        raise ValueError("degree_cap must be a non-negative int, got %r"
                         % (degree_cap,))
    m = len(matrix)
    system = LinearSystemSpec(m, 2, (((zero(),) * m,) * m, tuple(
        tuple(-e for e in row) for row in matrix))).ode_system()
    trace = _trace(matrix)
    if zero_status(trace) is ZeroStatus.NONZERO:
        raise ValueError("expected a trace-free matrix, got trace %s"
                         % trace)
    params, noncartan_slots, pf, forms = _oracle_ansatz(m, degree_cap)
    if any(a in params for row in matrix for e in row for a in e.atoms()):
        raise ValueError("matrix entries may not carry the search's "
                         "parameters")
    pairs = _split_pairs(pf, system)
    if pairs is None:
        column = {p: i for i, p in enumerate(params)}
        rows = [row for res in _prolonged_residuals(pf, system)
                for row in linalg._affine_groups(res.num, column).values()]
    else:
        rows = _search_rows(forms, pairs)
    if any(None in row for row in rows):
        raise AssertionError("homogeneous system expected")
    return any(any(vec[i] != 0 for i in noncartan_slots)
               for vec in linalg.nullspace(rows, ncols=len(params)))


def brute_force_non_cartan_search(a: Expression, b: Expression, c: Expression,
                                  degree_cap: int = 4) -> bool:
    """`non_cartan_search` of y'' = A y + B w, w'' = C y - A w."""
    return non_cartan_search(((a, b), (c, -a)), degree_cap)
