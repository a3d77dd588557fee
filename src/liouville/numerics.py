"""Numerical evaluation of the nonlocal operator and propagation diagnostics.

Atomic parts are summed exactly (with a certified series tail for templates);
radial kernels use a three-zone radial rule: an analytic Taylor core below
R_SWITCH (avoids catastrophic cancellation of the compensated integrand),
log-spaced Simpson up to the split radius r0, and linear Simpson beyond it so
oscillatory integrands stay resolved.  Every evaluation reports an error
bound: analytic tails plus embedded half-resolution quadrature estimates.
Kernel constants take Gamma from `_gamma`; scipy is imported only where it is
used: the relativistic kernel's Bessel K and the probes' k-d trees.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .exactreal import ExtendedRational, basis_floats
from .measures import (
    AffinePart,
    AnyContinuous,
    ConvolutionPart,
    FractionalPart,
    LevyMeasure,
    RelativisticPart,
    SphereSurfacePart,
)


# -- smooth test functions ----------------------------------------------------------


@dataclass(frozen=True)
class SmoothFunction:
    """Test function with analytic derivatives and declared sup-norm bounds."""

    name: str
    fn: object  # vectorized callable on arrays of shape (..., d), of any memory layout
    grad_fn: object = None
    dir2_fn: object = None  # second derivative along a unit direction
    exact_fn: object = None  # optional evaluation at exact points
    sup_u: float = math.inf
    sup_grad: float = math.inf
    sup_hess: float = math.inf
    sup_d3: float = math.inf
    sup_d4: float = math.inf

    def value(self, x):
        return self.fn(np.asarray(x, dtype=float))


def builtin_function(name: str, dimension: int) -> SmoothFunction:
    """Named test functions; all operate on arrays whose last axis indexes coordinates."""
    k = {"cos": 1.0, "cos2pi": 2 * math.pi}.get(name)  # cos(k * x_1); 1.0 * x is exact
    if k is not None:
        return SmoothFunction(
            name,
            fn=lambda x: np.cos(k * x[..., 0]),
            grad_fn=lambda x: _e1_grad(-k * np.sin(k * x[0]), dimension),
            dir2_fn=lambda x, w: -(k**2) * np.cos(k * x[0]) * w[0] ** 2,
            sup_u=1.0,
            sup_grad=k,
            sup_hess=k**2,
            sup_d3=k**3,
            sup_d4=k**4,
        )
    if name == "harmonic_xy":
        if dimension < 2:
            raise ValueError("harmonic_xy needs dimension >= 2")
        return SmoothFunction(
            "harmonic_xy",
            fn=lambda x: x[..., 0] ** 2 - x[..., 1] ** 2,
            grad_fn=lambda x: np.array([2 * x[0], -2 * x[1]] + [0.0] * (dimension - 2)),
            dir2_fn=lambda x, w: 2 * w[0] ** 2 - 2 * w[1] ** 2,
            sup_u=math.inf,
            sup_grad=math.inf,
            sup_hess=2.0,
            sup_d3=0.0,
            sup_d4=0.0,
        )
    if name == "gaussian":
        return SmoothFunction(
            "gaussian",
            fn=lambda x: np.exp(-np.sum(x**2, axis=-1)),
            sup_u=1.0,
            sup_grad=1.0,
            sup_hess=2.0,
            sup_d3=7.0,
            sup_d4=13.0,
        )
    raise ValueError(f"unknown builtin function {name!r}")


def _e1_grad(v, d):
    g = np.zeros(d)
    g[0] = v
    return g


# -- radial kernels ---------------------------------------------------------------


# Cephes' rational approximation of Gamma on [2, 3), leading coefficient first (S. L.
# Moshier, "Methods and Programs for Mathematical Functions", 1989), as scipy.special runs it
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


def _gamma(x: float) -> float:
    """Gamma(x), -1 < x <= 33, x != 0: the bits scipy.special.gamma returns (Cephes' Gamma)."""
    if not -1 < x <= 33 or x == 0:
        raise ValueError(f"Gamma is evaluated on (-1, 0) and (0, 33] only, not at {x}")
    z = 1.0
    while x >= 3:
        x -= 1
        z *= x
    while x < 2:
        if abs(x) < 1e-9:  # Cephes' form near a pole
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1
    t, p, q = x - 2, 0.0, 0.0
    for c in _GAMMA_P:  # Horner, as Cephes' polevl; at x = 2 both polynomials are 1.0
        p = p * t + c
    for c in _GAMMA_Q:
        q = q * t + c
    return z * p / q


def fractional_constant(d: int, alpha: float) -> float:
    return 2.0**alpha * _gamma((d + alpha) / 2) / (math.pi ** (d / 2) * abs(_gamma(-alpha / 2)))


class _RadialKernel:
    """density(r) is the measure density wrt d-dim Lebesgue, radial."""

    def __init__(self, part: AnyContinuous, d: int):
        self.part = part
        self.d = d
        if isinstance(part, FractionalPart):
            self.alpha = part.alpha
            self.c = fractional_constant(d, part.alpha)
            self.kind = "fractional"
        elif isinstance(part, RelativisticPart):
            self.alpha = part.alpha
            self.kind = "relativistic"
            self.c = part.coefficient
            self.nu = (d + part.alpha) / 2
            self.m = part.m
            if self.m**self.nu == 0:  # moment2_core's cap divides by m^nu
                raise ValueError(f"relativistic m = {self.m} is too small for dimension {d}")
        elif isinstance(part, ConvolutionPart):
            self.kind = part.profile
            self.scale = part.scale
            self.alpha = 0.0
            s = part.scale
            if s**d == 0:  # the density's constant has the factor 1 / s^d
                raise ValueError(f"convolution scale {s} is too small for dimension {d}")
            if part.profile == "gaussian":
                self.c = 1.0 / (s**d * math.pi ** (d / 2))
            elif part.profile == "exponential":
                area = sphere_area(d)
                self.c = 1.0 / (area * _gamma(d) * s**d)
            else:  # ball_indicator
                self.c = 1.0 / (sphere_area(d) / d * s**d)
        else:
            raise TypeError(part)

    def density(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "fractional":
            return self.c * r ** (-(self.d + self.alpha))
        if self.kind == "relativistic":
            from scipy.special import kv  # the only kernel that needs scipy
            return self.c * kv(self.nu, self.m * r) / r**self.nu
        if self.kind == "gaussian":
            return self.c * np.exp(-((r / self.scale) ** 2))
        if self.kind == "exponential":
            return self.c * np.exp(-r / self.scale)
        return self.c * (r <= self.scale)

    def moment2_core(self, r_s: float):
        """(value, bound) for the radial integral of r^{d+1} * density over (0, r_s]."""
        if self.kind == "fractional":
            return self.c * r_s ** (2 - self.alpha) / (2 - self.alpha), 0.0
        rule = _Simpson.log_spaced(1e-12, r_s, 80)
        val = rule.integrate(lambda r: r ** (self.d + 1) * self.density(r))
        if self.kind == "relativistic":
            # K_nu(z) <= Gamma(nu) 2^{nu-1} z^{-nu}: fractional-type closed bound
            cap = self.c * _gamma(self.nu) * 2 ** (self.nu - 1) / self.m**self.nu
            below = cap * (1e-12) ** (2 - self.alpha) / (2 - self.alpha)
            return val, below
        # bounded kernels: the missing sliver below 1e-12 is k(0) * r^{d+2}/(d+2)
        below = float(self.density(1e-12)) * (1e-12) ** (self.d + 2) / (self.d + 2)
        return val, below

    def outer_cut(self, requested: float) -> float:
        """Radius beyond which the analytic tail bound is used."""
        if self.kind == "fractional":
            return requested
        if self.kind == "relativistic":
            return min(requested, max(2.0, 60.0 / self.m))
        if self.kind == "gaussian":
            return min(requested, 10.0 * self.scale)
        if self.kind == "exponential":
            return min(requested, 60.0 * self.scale)
        return min(requested, self.scale)

    def mass_tail(self, R: float) -> float:
        """Upper bound for the measure of {|z| > R}."""
        area = sphere_area(self.d)
        if self.kind == "fractional":
            return area * self.c * R ** (-self.alpha) / self.alpha
        if self.kind == "ball_indicator":
            return 0.0 if R >= self.scale else area * self.c * (self.scale**self.d - R**self.d) / self.d
        # exponentially decaying kernels: numeric over 60 e-folds + crumbs
        span = 60.0 * (1.0 / self.m if self.kind == "relativistic" else self.scale)
        rule = _Simpson.log_spaced(R, R + span, 64)
        val = rule.integrate(lambda r: r ** (self.d - 1) * self.density(r))
        return area * val * 1.02 + 1e-25


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2) / _gamma(d / 2)


class _Simpson:
    """Composite Simpson rule with an even number n of intervals on [lo, hi].

    Nodes r are equally spaced in t = r, or in t = log r for a log-spaced rule, whose
    sum multiplies the samples by the Jacobian dr/dt = r.  With hi <= lo there are
    no nodes and every sum is 0.
    """

    def __init__(self, r, span: float, log: bool):
        self.r, self.span, self.log, self.n = r, span, log, len(r) - 1  # span: t_n - t_0

    @classmethod
    def log_spaced(cls, lo, hi, per_decade):
        if hi <= lo:
            return cls(np.empty(0), 0.0, True)
        m = max(2, int(math.ceil(math.log10(hi / lo) * per_decade)))
        t = np.linspace(math.log(lo), math.log(hi), m + m % 2 + 1)
        return cls(np.exp(t), t[-1] - t[0], True)

    @classmethod
    def linear(cls, lo, hi, step):
        if hi <= lo:
            return cls(np.empty(0), 0.0, False)
        n = int(math.ceil((hi - lo) / step))
        return cls(np.linspace(lo, hi, n + n % 2 + 1), hi - lo, False)

    def __call__(self, samples) -> float:
        """The rule applied to samples taken at the nodes."""
        if self.n < 2:
            return 0.0
        # weights 1 4 2 ... 2 4 1, rebuilt per sum (~0.25 ms per 200,000 nodes): kept
        # with every rule they would add to the peak memory of an evaluation
        w = np.ones(self.n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        terms = w * samples * self.r if self.log else w * samples
        return float(np.sum(terms) * (self.span / self.n) / 3.0)

    def integrate(self, f) -> float:
        return self(f(self.r))


def sphere_nodes(d: int, n: int):
    """Quadrature nodes and weights on the unit sphere (weights sum to area)."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        theta = (np.arange(n) + 0.5) * (2 * math.pi / n)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts, np.full(n, 2 * math.pi / n)
    if d == 3:
        npolar = max(4, n // 4)
        x, wg = np.polynomial.legendre.leggauss(npolar)
        phi = (np.arange(n) + 0.5) * (2 * math.pi / n)
        pts, w = [], []
        for ct, wgt in zip(x, wg):
            st = math.sqrt(max(0.0, 1 - ct * ct))
            for p in phi:
                pts.append([st * math.cos(p), st * math.sin(p), ct])
                w.append(wgt * (2 * math.pi / n))
        return np.array(pts), np.array(w)
    raise ValueError("sphere quadrature supports d <= 3 only")


# -- the evaluator -------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    value: float
    bound: float


R_SWITCH = 1e-4  # outer radius of the analytic Taylor core of every radial kernel
_OUTER_STEP = 0.05  # Simpson step of the outer zone, from r0 to the kernel's cut
_OUTER_RADIUS = 1e4  # the outer zone's cut for a kernel with a heavy tail (kernel.outer_cut)
_SPHERE_COUNT = 64  # nodes per circle of the sphere rules (sphere_nodes)
_BLOCK = 4096  # radii per pass of the radial quadrature: a pass's point buffer stays in cache


@dataclass(frozen=True)
class OperatorEvaluator:
    """Configured evaluator for L^mu[u](x) with reported error bounds.

    What does not depend on x (grids, kernel values at the nodes, float atoms and
    sequence terms) is built on first use and kept for the evaluator's lifetime.
    """

    measure: LevyMeasure
    r0: float = 1.0
    nodes_per_decade: int = 64
    truncation: int | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError("r0 must be positive and finite")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("the sequence truncation must be at least 1")
        if self.nodes_per_decade < 1:
            raise ValueError("the quadrature needs at least 1 node per decade")
        if self.measure.dimension > 3 and any(
            not isinstance(p, AffinePart) for p in self.measure.continuous
        ):
            raise ValueError("quadrature for full-dimensional kernels supports d <= 3")

    def memo(self, key, build):
        """build(), once per evaluator and key; keys are values, never object ids."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def eval_operator(ev: OperatorEvaluator, u: SmoothFunction, x) -> EvalResult:
    """L^mu[u](x) with an error bound.

    x may be a tuple of floats or an exact Point; with an exact point and a u with
    an exact evaluation (e.g. `Counterexample.as_function()`), finite atomic sums
    cancel exactly.
    """
    mu = ev.measure
    exact_mode = u.exact_fn is not None and isinstance(x[0], ExtendedRational)
    xf = np.array([float(c) for c in x], dtype=float)
    if ev._memo.get("guarded") is not u:
        _bounded_guard(u, mu, xf)
        ev._memo["guarded"] = u
    total = 0.0
    bound = 0.0

    # finite atoms: absolutely convergent pair sums, evaluated exactly
    if mu.atoms:
        if exact_mode:
            s = 0.0
            ux = u.exact_fn(x)
            for atom in mu.atoms:
                shifted = tuple(a + b for a, b in zip(x, atom.point))
                s += float(atom.weight) * (u.exact_fn(shifted) - ux)
        else:
            terms = ev.memo("atoms", lambda: [
                _float_term(float(atom.weight), np.array([float(c) for c in atom.point]), ev.r0)
                for atom in mu.atoms
            ])
            s = _float_sum(terms, u, xf)
        total += s

    # template sequences: compensated partial sums plus a certified tail bound
    for i, seq in enumerate(mu.sequences):
        N = min(ev.truncation, seq.truncation) if ev.truncation else seq.truncation
        terms, tail_mass = ev.memo(
            (seq, N), lambda: (_sequence_terms(seq, N, ev.r0), seq.levy_tail_bound(N))
        )
        s = _float_sum(terms, u, xf)
        total += s
        cu = _series_constant(u, ev.r0)
        tail = 2.0 * cu * tail_mass
        if math.isinf(tail):
            raise ValueError("cannot bound the series tail for an unbounded test function")
        bound += tail

    for i, part in enumerate(mu.continuous):
        if isinstance(part, SphereSurfacePart):
            v, b = _eval_sphere(ev, part, u, xf)
        else:
            v, b = _eval_radial(ev, ev.memo(part, lambda: _RadialPlan(ev, part)), u, xf)
        total += v
        bound += b

    return EvalResult(value=total, bound=bound)


def _float_term(weight: float, step, r0: float):
    """(weight, step, whether the step lies inside the compensation ball |z| < r0)."""
    return weight, step, np.linalg.norm(step) < r0


def _sequence_terms(seq, N: int, r0: float):
    """Float terms of the points +-seq.point(n), n = 1..N, in summation order."""
    terms = []
    for p, w in seq.terms[:N]:
        w, pv = float(w), np.array([float(c) for c in p])
        terms += [_float_term(w, sgn * pv, r0) for sgn in (1.0, -1.0)]
    return terms


def _float_sum(terms, u, x) -> float:
    """Sum of w * (u(x+a) - u(x) - a.Du(x) 1{|a| < r0}) over the float terms (w, a, |a| < r0)."""
    ux = float(u.value(x))
    g = _grad(u, x)
    s = 0.0
    for w, av, near in terms:
        term = float(u.value(x + av)) - ux
        if near:
            term -= float(av @ g)
        s += w * term
    return s


def _grad(u, x):
    if u.grad_fn is not None:
        return np.asarray(u.grad_fn(x), dtype=float)
    h = 1e-6
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (float(u.value(x + e)) - float(u.value(x - e))) / (2 * h)
    return g


def _dir2(u, x, w):
    if u.dir2_fn is not None:
        return float(u.dir2_fn(x, w))
    h = 1e-5
    return float((u.value(x + h * w) - 2 * u.value(x) + u.value(x - h * w)) / h**2)


def _series_constant(u, r0: float) -> float:
    return max(0.5 * u.sup_hess * max(1.0, r0**2), 2.0 * u.sup_u / min(1.0, r0**2))


def _bounded_guard(u, mu: LevyMeasure, x):
    """Sampling guard: reject unbounded u when tail bounds are required."""
    needs_tail = bool(mu.sequences) or any(
        not isinstance(p, SphereSurfacePart)
        and not (isinstance(p, ConvolutionPart) and p.profile == "ball_indicator")
        for p in mu.continuous
    )
    if not needs_tail:
        return
    if u.sup_u == math.inf:
        raise ValueError(
            f"test function {u.name} is not declared bounded; "
            "unbounded-support measures need a finite sup norm"
        )
    d = x.size
    rng = np.random.default_rng(0)
    for radius in (10.0, 100.0, 1000.0):
        pts = rng.standard_normal((16, d))
        pts *= radius / np.linalg.norm(pts, axis=1, keepdims=True)
        vals = np.array([abs(float(u.value(p))) for p in pts])
        if vals.max() > 1.001 * u.sup_u:
            raise ValueError("sampling guard: |u| exceeds its declared sup norm")


def _eval_sphere(ev, part: SphereSurfacePart, u, x):
    d = ev.measure.dimension
    ux = float(u.value(x))

    def at(count):
        pts, w = ev.memo(("sphere_nodes", d, count), lambda: sphere_nodes(d, count))
        vals = np.asarray(u.value(x[None, :] + part.radius * pts), dtype=float)
        return float(np.sum(w * (vals - ux)) / sphere_area(d))

    v1 = at(_SPHERE_COUNT)
    v2 = at(max(8, _SPHERE_COUNT // 2))
    return v1, abs(v1 - v2) + 1e-14 * (1 + abs(ux))


class _Zone:
    """A zone's Simpson rule, the half-resolution rule of its error estimate, and the
    kernel density at their nodes.  When the half rule's nodes are the fine rule's
    even nodes, its samples are taken from the fine ones.
    """

    def __init__(self, kern, fine: _Simpson, half: _Simpson):
        # linspace(a, b, 2k + 1)[::2] is linspace(a, b, k + 1) bit for bit
        self.nested = fine.n == 2 * half.n
        if self.nested:  # the same rule over views of the fine nodes
            half = _Simpson(fine.r[::2], fine.span, fine.log)
        self.fine, self.half = fine, half
        self.density = [kern.density(q.r) for q in ((fine,) if self.nested else (fine, half))]

    def sums(self, integrand, *args):
        """(fine sum, half-resolution sum) of integrand(radii, density, *args)."""
        if self.fine.n < 2:
            return 0.0, 0.0
        samples = integrand(self.fine.r, self.density[0], *args)
        coarse = samples[::2] if self.nested else integrand(self.half.r, self.density[1], *args)
        return self.fine(samples), self.half(coarse)


class _RadialPlan:
    """What the quadrature of one radial or affine part needs that does not depend on x."""

    def __init__(self, ev, part):
        if isinstance(part, AffinePart):
            kdim = len(part.basis)
            B = np.array([[float(c) for c in v] for v in part.basis], dtype=float).T
            frame, _ = np.linalg.qr(B)
            if part.profile_kind == "fractional":
                kern = _RadialKernel(FractionalPart(alpha=part.alpha), kdim)
            else:
                kern = _RadialKernel(ConvolutionPart(profile="gaussian", scale=part.scale), kdim)
        else:
            kdim = ev.measure.dimension
            frame, kern = np.eye(kdim), _RadialKernel(part, kdim)
        dirs, self.w_sph = ev.memo(("sphere_nodes", kdim, _SPHERE_COUNT),
                                   lambda: sphere_nodes(kdim, _SPHERE_COUNT))
        self.dirs = dirs @ frame.T  # rows: directions in the part's span, embedded in R^d
        self.kdim = kdim
        r_s = min(R_SWITCH, ev.r0)
        self.m2, self.m2_err = kern.moment2_core(r_s)
        half_per_decade = max(8, ev.nodes_per_decade // 2)
        self.inner = _Zone(kern, _Simpson.log_spaced(r_s, ev.r0, ev.nodes_per_decade),
                           _Simpson.log_spaced(r_s, ev.r0, half_per_decade))
        r_cut = kern.outer_cut(_OUTER_RADIUS)
        self.outer = _Zone(kern, _Simpson.linear(ev.r0, r_cut, _OUTER_STEP),
                           _Simpson.linear(ev.r0, r_cut, _OUTER_STEP * 2))
        self.mass_tail = kern.mass_tail(r_cut)


def _eval_radial(ev, plan: _RadialPlan, u, x):
    """Three-zone radial-spherical quadrature inside the span of the plan's directions."""
    ux = float(u.value(x))
    g = _grad(u, x)

    # zone 1: analytic Taylor core on (0, R_SWITCH]
    r_s = min(R_SWITCH, ev.r0)
    sum_dir2 = float(sum(ws * _dir2(u, x, w) for w, ws in zip(plan.dirs, plan.w_sph)))
    core = 0.5 * sum_dir2 * plan.m2
    core_bound = plan.m2_err * abs(sum_dir2) + (
        0.0 if u.sup_d3 == 0 else u.sup_d3 / 6.0 * r_s * plan.m2 * float(np.sum(plan.w_sph))
    )

    slopes = [float(wdir @ g) for wdir in plan.dirs]

    def integrand(radii, ker, compensated):
        acc = np.zeros_like(radii)
        for lo in range(0, radii.size, _BLOCK):  # every direction over one block of radii
            r, a = radii[lo : lo + _BLOCK], acc[lo : lo + _BLOCK]
            pts = np.empty((x.size, r.size)).T  # x + r * wdir, column-major
            for wdir, ws, slope in zip(plan.dirs, plan.w_sph, slopes):
                np.add(x[:, None], np.multiply(wdir[:, None], r, out=pts.T), out=pts.T)
                t = np.asarray(u.value(pts), dtype=float) - ux
                if compensated:
                    t -= r * slope
                t *= ws
                a += t
        return acc * ker * radii ** (plan.kdim - 1)

    # zone 2: log-Simpson compensated on [R_SWITCH, r0]; zone 3: linear Simpson on [r0, R_cut]
    i1, i2 = plan.inner.sums(integrand, True)
    o1, o2 = plan.outer.sums(integrand, False)

    tail = 2.0 * u.sup_u * plan.mass_tail if plan.mass_tail else 0.0  # no tail: an unbounded u adds 0
    quad_est = abs(i1 - i2) + abs(o1 - o2)
    value = core + i1 + o1
    return value, core_bound + tail + quad_est + 1e-14 * (1 + abs(value))


# -- propagation of maximum ------------------------------------------------------------


@dataclass
class PropagationState:
    """Iterated sets A_{n+1} = A_n + supp, kept as a growing union in a window.

    `positions` (shape (size, d)) holds the reached points in insertion order (the
    origin, then each layer), each the sum of the step floats along the path that
    first reached it.
    """

    R: float
    sizes: list
    deltas: list
    flagged_partial: bool = False
    positions: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """The number of layers run."""
        return len(self.deltas)

    def csv_rows(self):
        return [(k + 1, self.sizes[k], self.deltas[k]) for k in range(len(self.deltas))]

    def prefix(self, layers: int) -> "PropagationState":
        """The state after the first `layers` layers (at most all of them).

        A run with n_max = `layers` and no target reaches exactly this state:
        each layer depends only on the layers before it.
        """
        n = max(0, min(layers, self.n))
        size = self.sizes[n - 1] if n else 1
        return PropagationState(
            R=self.R,
            sizes=self.sizes[:n],
            deltas=self.deltas[:n],
            flagged_partial=self.flagged_partial and n == self.n,
            positions=self.positions[:size],
        )


def propagate(
    support_points,
    R: float,
    n_max: int = 40,
    target_delta: float | None = None,
    grid_div: int = 200,
) -> PropagationState:
    """Minkowski-sum iteration with exact deduplication and covering radii.

    Each layer adds every step to every point of the previous layer, keeps the
    candidates within R + the longest step of the origin, and of those the first in
    (frontier, step) order for each exact point not reached before.  A point is
    known exactly by its code: its key, an integer vector over the common denominator
    of the steps (coordinate i, basis element k at index i*(m+1) + k), read in a
    signed mixed radix whose digit j spans +-n_max times the largest |key_j| of a
    step.  Codes add like keys, so a candidate's code is its frontier code plus its
    step code; they are int64 when the largest code fits and Python ints otherwise.
    Each layer's new points lower the covering radius (_lower_distances).  The run
    stops, flagged partial, after the layer that takes it past _POINT_CAP points.
    """
    if not support_points:
        raise ValueError("propagate needs a nonempty finite support")
    if not (R > 0 and math.isfinite(R)):
        raise ValueError("window radius must be positive and finite")
    if n_max < 1:
        raise ValueError("propagation needs at least 1 layer")
    if grid_div < 1:
        raise ValueError("the probe grid needs at least 1 division")
    from scipy.spatial import cKDTree

    d = len(support_points[0])
    basis = support_points[0][0].basis

    steps = list(dict.fromkeys(q for p in support_points for q in (p, tuple(-c for c in p))))
    denominator = math.lcm(*(c.den for s in steps for c in s))
    step_keys = [tuple(n * (denominator // c.den) for c in s for n in c.nums) for s in steps]
    radices = [2 * n_max * max(map(abs, digit)) + 1 for digit in zip(*step_keys)]
    places = [math.prod(radices[:j]) for j in range(len(radices))]  # |code| < prod(radices) / 2
    step_codes = np.array([sum(map(operator.mul, k, places)) for k in step_keys],
                          dtype=np.int64 if math.prod(radices) < 2**62 else object)
    floats = basis_floats(basis)
    step_pos = np.array(
        [[float(sum(n / c.den * v for n, v in zip(c.nums, floats))) for c in s] for s in steps]
    )
    lim = R + max(float(np.linalg.norm(v)) for v in step_pos)

    seen = front_codes = np.zeros(1, step_codes.dtype)  # seen: the sorted codes reached
    layers = [np.zeros((1, d))]
    grid = _probe_grid(d, R, grid_div)
    grid_tree = cKDTree(grid, balanced_tree=False, compact_nodes=False)  # ~2x faster to build
    dmin, _ = cKDTree(layers[0]).query(grid)

    state = PropagationState(R=R, sizes=[], deltas=[])
    front_pos = layers[0]
    for _ in range(n_max):
        front_codes, front_pos, seen = _next_layer(
            front_codes, front_pos, step_codes, step_pos, lim, seen)
        layers.append(front_pos)
        _lower_distances(dmin, grid, grid_tree, front_pos, R)
        if len(seen) > _POINT_CAP:
            state.flagged_partial = True
        state.deltas.append(float(dmin.max()))
        state.sizes.append(len(seen))
        if state.flagged_partial:
            break
        if target_delta is not None and state.deltas[-1] <= target_delta:
            break
    state.positions = np.concatenate(layers)
    return state


_POINT_CAP = 5_000_000  # points after which propagate stops, flagged partial
_CANDIDATES_PER_PASS = 1 << 16  # bounds the temporary arrays of one numpy pass
_QUERY_ABOVE = 16  # a layer of more expected pairs per grid point queries the whole grid
_MAX_PAIRS = 1 << 16  # so does one of more pairs: 3 numbers a pair, about 5 MB while listed


def _next_layer(front_codes, front_pos, step_codes, step_pos, lim, seen):
    """Codes and floats of the points one step from the frontier that are new and in
    the window, and `seen` (sorted codes) with their codes merged in.

    Candidates are frontier float + step float, tested against the window in numpy
    passes over blocks of frontier rows; the first in (frontier, step) order claims
    each new code.
    """
    if not len(front_codes):  # no layer after an empty one reaches a point
        return front_codes, front_pos, seen
    n_steps, d = step_pos.shape
    rows = max(1, _CANDIDATES_PER_PASS // n_steps)
    codes, picks = [], []
    for lo in range(0, len(front_codes), rows):
        cand = (front_pos[lo : lo + rows, None, :] + step_pos[None, :, :]).reshape(-1, d)
        inside = np.flatnonzero(np.linalg.norm(cand, axis=1) <= lim) + lo * n_steps
        f, s = np.divmod(inside, n_steps)
        codes.append(front_codes[f] + step_codes[s])
        picks.append(inside)
    codes, picks = np.concatenate(codes), np.concatenate(picks)
    unique, first = np.unique(codes, return_index=True)  # first occurrences: a stable sort
    at = np.searchsorted(seen, unique)
    new = seen[np.minimum(at, len(seen) - 1)] != unique
    first = np.sort(first[new])
    f, s = np.divmod(picks[first], n_steps)
    return codes[first], front_pos[f] + step_pos[s], np.insert(seen, at[new], unique[new])


def _lower_distances(dmin, grid, grid_tree, points, R):
    """Lower each grid point's distance in `dmin` to that of the nearest of `points`.

    Only distances up to delta = max(dmin) can lower an entry.  The (grid point, point)
    pairs within delta come from the grid's tree unless their expected count, about
    len(points) * len(grid) * (delta / R)^d, exceeds _QUERY_ABOVE * len(grid) or
    _MAX_PAIRS; then a tree of the points is queried for the whole grid instead.
    """
    from scipy.spatial import cKDTree

    delta = dmin.max()
    expected = len(points) * len(grid) * (delta / R) ** grid.shape[1]
    if expected > min(_QUERY_ABOVE * len(grid), _MAX_PAIRS):
        dist, _ = cKDTree(points).query(grid, distance_upper_bound=delta)
        np.minimum(dmin, dist, out=dmin)
    elif len(points):
        pairs = grid_tree.sparse_distance_matrix(cKDTree(points), delta, output_type="ndarray")
        np.minimum.at(dmin, pairs["i"], pairs["v"])


def _probe_grid(d, R, grid_div):
    if d == 1:
        return np.linspace(-R, R, 2 * grid_div + 1).reshape(-1, 1)
    xs = np.linspace(-R, R, grid_div + 1)
    mesh = np.stack(np.meshgrid(*([xs] * d)), axis=-1).reshape(-1, d)
    return mesh[np.linalg.norm(mesh, axis=1) <= R]


# -- density probe --------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # "lattice-detected" | "dense-likely" | "inconclusive"
    g_estimate: float | None
    deltas: tuple


def density_probe(
    support_points,
    R: float = 5.0,
    n_max: int = 40,
    grid_div: int = 200,
) -> ProbeResult:
    """Numerical surrogate: never a certificate, only a diagnostic direction."""
    state = propagate(support_points, R=R, n_max=n_max, grid_div=grid_div)
    return classify_propagation(state)


SNAP_TOL = 1e-9  # largest lattice-fit residual that counts as a lattice


def classify_propagation(state: PropagationState) -> ProbeResult:
    """The density probe's verdict on a propagation already run.

    Fits a lattice to the float positions of the reached points; `density_probe`
    is `propagate` followed by this.
    """
    deltas = state.deltas
    plateau = len(deltas) >= 5 and max(deltas[-5:]) - min(deltas[-5:]) < 1e-12
    g_est, residual = _lattice_fit(state.positions)
    snapped = residual is not None and residual < SNAP_TOL

    if plateau and snapped:
        verdict = "lattice-detected"
    elif deltas and deltas[-1] <= state.R / 50 and deltas[-1] <= deltas[0] / 10:
        verdict, g_est = "dense-likely", None
    else:
        verdict, g_est = "inconclusive", None
    return ProbeResult(verdict, g_est, tuple(deltas))


def _lattice_fit(pts: np.ndarray):
    """Fit a lattice to the point set; returns (g, max residual), g for d = 1 only."""
    d = pts.shape[1]
    nz = pts[np.linalg.norm(pts, axis=1) > 1e-12]
    if len(nz) == 0:
        return None, None
    if d == 1:
        vals = np.unique(np.sort(pts[:, 0]))
        gaps = np.diff(vals)
        gaps = gaps[gaps > 1e-12]
        if len(gaps) == 0:
            return None, None
        g = float(gaps.min())
        resid = float(np.abs(pts[:, 0] - g * np.round(pts[:, 0] / g)).max())
        return g, resid
    # greedy shortest independent vectors
    order = np.argsort(np.linalg.norm(nz, axis=1))
    basis = []
    for idx in order:
        cand = nz[idx]
        trial = basis + [cand]
        if np.linalg.matrix_rank(np.array(trial), tol=1e-9) == len(trial):
            basis.append(cand)
        if len(basis) == d:
            break
    if len(basis) < d:
        return None, None
    B = np.array(basis).T
    coeffs = np.linalg.solve(B, pts.T).T
    resid_coeff = np.abs(coeffs - np.round(coeffs)).max()
    resid = float(resid_coeff * np.linalg.norm(B, 2))
    return None, resid
