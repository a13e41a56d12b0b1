"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input is made here from the workload seed with numpy alone, so a
change to one of the library's samplers cannot change what is measured.
Each workload object holds its op list (several passes of a fixed
composition), an `input_digest` over those inputs, an untimed `warm_up`,
`run` (the timed library calls of one op) and `check` (the untimed output
check, raising WrongOutput).

Library functions are looked up through their modules at call time
(`pc.classes.in_D_third`, never a name bound at import), so that the traced
run sees every call.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: passes of inputs generated per run; a run that outlasts them cycles
PASSES = 4
#: the criterion-5 rule: a verdict this close to its boundary is undecided
DECIDED_MARGIN = 1e-6


class WrongOutput(Exception):
    """The library returned an output the benchmark's check rejects."""


def _rng(seed, stream):
    """The generator of one workload's inputs; any integer seed is taken."""
    return np.random.default_rng([seed % 2**64, stream])


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


# -- polynomial helpers (ascending coefficients) -----------------------------


def expand(factors):
    """Coefficients of prod (1 + f z)."""
    c = np.array([1.0 + 0.0j])
    for f in factors:
        c = np.convolve(c, [1.0, f])
    return c


def from_roots(roots, leading=1.0):
    """Coefficients of leading * prod (z - r)."""
    c = np.array([complex(leading)])
    for r in roots:
        c = np.convolve(c, [-r, 1.0])
    return c


def extremal_factors(n, lam):
    return [cmath.exp(1j * (2 * j - n - 1) * lam / 2.0) for j in range(1, n + 1)]


def rotate(c, phi):
    """Coefficients of P(e^{i phi} z)."""
    return c * np.exp(1j * phi * np.arange(c.size))


def third_route_margin(c, lam):
    """Open-disk-class test by the product route, with np.roots.

    Returns -inf when a zero of F is not strictly inside the disk, else the
    distance of the nearest zero of T = F_+ F*_- - F_- F*_+ to the circle;
    the open class holds F exactly when that distance is positive.
    """
    if np.any(np.abs(np.roots(c[::-1])) >= 1.0 - DECIDED_MARGIN):
        return -math.inf
    h = lam / 2.0
    fi = np.conj(c[::-1])
    t = (np.convolve(rotate(c, h), rotate(fi, -h))
         - np.convolve(rotate(c, -h), rotate(fi, h)))
    scale = np.max(np.abs(t))
    d = t.size - 1
    while d > 0 and abs(t[d]) <= 1e-13 * scale:
        d -= 1
    if d < 1:
        return math.inf
    return float(np.min(np.abs(np.abs(np.roots(t[: d + 1][::-1])) - 1.0)))


# -- routes ------------------------------------------------------------------

#: per n, the three disk-class shapes and five raw-root instances.  Members
#: are 3 of 8 rather than half: a raw instance with a zero outside the disk
#: exits in milliseconds while a full decision takes 0.1 s and more, and at
#: half the per-op median falls in the gap between the two and moves with
#: the seed
ROUTE_SHAPES = ("scaled", "raw", "rejection", "raw", "boundary", "raw", "raw", "raw")
ROUTE_NS = tuple(range(2, 9))
LAMBDA_STRATA = 6


@dataclass(frozen=True)
class RouteInstance:
    shape: str
    n: int
    lam: float
    coeffs: np.ndarray
    #: the verdict every decided route must give, where the input fixes it
    expect: bool | None


def _circle_member(rng, n, lam):
    """Unimodular zeros with gaps >= lam: lam plus a Dirichlet share of the
    excess, a random subset of gaps pinned to lam three times in ten."""
    excess = 2.0 * math.pi - n * lam
    gaps = lam + excess * rng.dirichlet(np.ones(n))
    if rng.random() < 0.3:
        pinned = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        free = np.setdiff1d(np.arange(n), pinned)
        gaps = np.full(n, lam)
        gaps[free] += excess * rng.dirichlet(np.ones(free.size))
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.cumsum(gaps)
    lead = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return from_roots(np.exp(1j * angles), lead)


def _scaled(rng, n, lam):
    c = _circle_member(rng, n, lam)
    r = 1.0 + rng.uniform(0.05, 0.6)
    return c * r ** np.arange(n + 1)


def _rejection(rng, n, lam, budget=20000):
    for _ in range(budget):
        radius = rng.uniform(0.2, 0.95)
        roots = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(
            2j * np.pi * rng.uniform(0.0, 1.0, n))
        c = from_roots(roots)
        if third_route_margin(c, lam) > DECIDED_MARGIN:
            return c
    raise RuntimeError(f"no open-class member in {budget} draws, n={n}, lam={lam}")


def _boundary(rng, n, lam):
    """P - Q_n for the closed-form family that classes.extremal_family
    documents, in its member orientation (a < 0 < Im c)."""
    a = -float(rng.uniform(0.2, 2.0))
    b = float(rng.normal())
    cc = complex(np.exp(1j * rng.uniform(0.1, math.pi - 0.1)))
    fac = extremal_factors(n, lam)
    q = expand(fac)
    acc = b * q
    top = np.array([1.0, cmath.exp(1j * (n + 1) * lam / 2.0)])
    for k in range(1, n + 1):
        part = np.convolve(expand(f for j, f in enumerate(fac, 1) if j != k), top)
        w = cmath.exp(1j * (k - n - 1) * lam / 2.0) / math.sin((k - n - 1) * lam / 2.0)
        acc = acc + a * w * part
    return cc * acc - q


def _raw(rng, n):
    roots = rng.uniform(0.3, 1.7, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return from_roots(roots), roots


class Routes:
    """One op decides one instance by all four membership routes."""

    name = "routes"

    def __init__(self, pc, seed):
        self.pc = pc
        rng = _rng(seed, 1)
        self.ops = []
        for _ in range(PASSES):
            for s, shape in enumerate(ROUTE_SHAPES):
                for n in ROUTE_NS:
                    # lambda sits at the middle of one of six strata of
                    # (0.1, 0.9) * 2pi/n, rotating with shape and n.  It is
                    # the same in every pass and for every seed, which draws
                    # only the polynomials: route cost steps with lambda
                    # (the cluster radii of find_roots), so a seeded lambda
                    # near a step would make the pass cost depend on the seed
                    stratum = (s + n) % LAMBDA_STRATA
                    lam = (0.1 + 0.8 * (stratum + 0.5) / LAMBDA_STRATA) * 2.0 * math.pi / n
                    if shape == "raw":
                        c, roots = _raw(rng, n)
                        expect = False if np.max(np.abs(roots)) > 1.0 + 1e-3 else None
                    else:
                        make = {"scaled": _scaled, "rejection": _rejection,
                                "boundary": _boundary}[shape]
                        c = make(rng, n, lam)
                        expect = None if shape == "boundary" else True
                    self.ops.append(RouteInstance(shape, n, lam, c, expect))
        self.pass_len = len(self.ops) // PASSES
        self.input_digest = _digest(
            x for op in self.ops for x in (op.shape, op.n, op.lam, op.coeffs))
        self.decided = 0
        self.undecided = 0

    def warm_up(self):
        for op in self.ops:
            self.pc.qconv.QCoefficientTable.build(op.n, op.lam)
            self.pc.qconv.QCoefficientTable.build(op.n - 1, op.lam)
        cheap = next(op for op in self.ops if op.expect is False)
        self.check(cheap, self.run(cheap))
        self.decided = self.undecided = 0

    def run(self, op):
        pc = self.pc
        F = pc.poly.Polynomial(op.coeffs, op.n)
        lp = pc.poly.LambdaParam(op.n, op.lam)
        verdicts = [pc.classes.in_D_third(F, lp, True),
                    pc.classes.in_D_first(F, lp, True),
                    pc.classes.eq8_oracle(F, lp, True)]
        Fi = F.n_inverse()
        try:
            verdicts.append(
                pc.classes.in_D_second((F - Fi) * 0.5, (F + Fi) * (-0.5), lp, True))
        except (pc.errors.NotOnCircle, pc.errors.PhaseCollision):
            pass  # the split does not exist for this instance
        return verdicts

    def check(self, op, verdicts):
        if any(v.indeterminate or abs(v.margin) <= DECIDED_MARGIN for v in verdicts):
            self.undecided += 1
            return
        self.decided += 1
        members = {v.member for v in verdicts}
        if len(members) != 1:
            raise WrongOutput(f"routes disagree on {op.shape} n={op.n} lam={op.lam!r}: "
                              + ", ".join(f"{v.method}={v.member}" for v in verdicts))
        if op.expect is not None and members != {op.expect}:
            raise WrongOutput(f"{op.shape} n={op.n} lam={op.lam!r}: decided "
                              f"{members.pop()}, input fixes {op.expect}")

    def figures(self, wall_s):
        total = self.decided + self.undecided
        return {"indeterminate_frac": (self.undecided / total if total else 0.0, "ratio")}


# -- trials ------------------------------------------------------------------

#: trials per op, in the proportion of acceptance criteria 3, 4 and 6
#: (100, 100 and 60 trials per grid point)
TRIALS = {"suffridge": 5, "main": 5, "gausslucas": 3}
LIMACON_GRID = [(g, tau) for g in (0.0, 0.25, 0.5, 0.9) for tau in ("1,0", "0,2")]
#: limacon trials per combination of LIMACON_GRID: 70 a pass, a quarter of
#: the 280 `main` trials, as criterion 8's 175 per combination are a
#: quarter of criterion 3's 100 per grid point
LIMACON_TRIALS = (9, 9, 9, 9, 9, 9, 8, 8)


def grid_points(n_max=8):
    """The acceptance grid: lambda = 0 and j/8 of 2*pi/n for j = 1..7."""
    for n in range(2, n_max + 1):
        upper = 2.0 * math.pi / n
        yield n, 0.0
        for j in range(1, 8):
            yield n, j * upper / 8.0


class Trials:
    """One op is one `polyconv verify` call through cli.main, in process."""

    name = "trials"

    def __init__(self, pc, seed, out_path):
        self.pc = pc
        self.out = out_path
        rng = _rng(seed, 2)
        grid = list(grid_points())
        per_limacon = len(grid) // len(LIMACON_GRID)
        self.ops = []
        for _ in range(PASSES):
            for i, (n, lam) in enumerate(grid):
                for theorem in ("main", "suffridge", "gausslucas"):
                    self.ops.append(self._argv(rng, theorem, TRIALS[theorem], [
                        "--n", str(n), "--lambda", repr(lam)]))
                if i % per_limacon == per_limacon - 1:
                    k = i // per_limacon
                    gamma, tau = LIMACON_GRID[k]
                    self.ops.append(self._argv(rng, "limacon", LIMACON_TRIALS[k], [
                        "--n", "5", "--gamma", repr(gamma), "--tau", tau]))
        self.pass_len = len(self.ops) // PASSES
        self.input_digest = _digest(" ".join(op) for op in self.ops)
        self.trials = 0
        self.indeterminate = 0

    def _argv(self, rng, theorem, trials, params):
        seed = int(rng.integers(0, 2**31))
        return ("--rng-seed", str(seed), "--out", "{out}", "verify",
                "--theorem", theorem, "--trials", str(trials), *params)

    def warm_up(self):
        for n, lam in grid_points():
            self.pc.qconv.QCoefficientTable.build(n, lam)
            self.pc.qconv.QCoefficientTable.build(n - 1, lam)
        cheap = ("--rng-seed", "0", "--out", "{out}", "verify", "--theorem",
                 "suffridge", "--trials", "1", "--n", "2", "--lambda", "0.5")
        self.check(cheap, self.run(cheap))
        self.trials = self.indeterminate = 0

    def run(self, op):
        return self.pc.cli.main([self.out if a == "{out}" else a for a in op])

    def check(self, op, code):
        if code != 0:
            raise WrongOutput(f"cli.main exit code {code}: {' '.join(op)}")
        with open(self.out) as fh:
            reports = json.load(fh)
        os.remove(self.out)
        for rep in reports:
            if rep["failures"]:
                raise WrongOutput(f"{rep['failures']} failed trials in "
                                  f"{rep['theorem_id']}: {' '.join(op)}")
            self.trials += rep["trials"]
            self.indeterminate += rep["indeterminate"]

    def figures(self, wall_s):
        frac = self.indeterminate / self.trials if self.trials else 0.0
        return {"trials_per_s": (self.trials / wall_s, "trials/s"),
                "indeterminate_frac": (frac, "ratio")}


# -- algebra -----------------------------------------------------------------

#: op kinds of one algebra cycle, weighted so that no single library
#: function takes most of the time
ALGEBRA_CYCLE = ("qrow", "laws", "contains", "herglotz", "qrow", "laws",
                 "contains", "boundary")
ALGEBRA_CYCLES_PER_PASS = 16
REGIONS = (
    ("unit_disk", ()), ("unit_disk_closed", ()),
    ("omega", (1.0 + 0.0j, 0.5)), ("omega_closed", (2.0j, 0.25)),
    ("omega", (0.5 - 1.0j, 0.9)),
    ("limacon_i", (0.25,)), ("limacon_i_closed", (0.5,)), ("limacon_i", (0.9,)),
    ("limacon_o", (0.25,)), ("limacon_o_closed", (0.5,)),
    ("complement", ("omega", (1.0 + 0.0j, 0.5))),
)
BOUNDARY_SAMPLES = 32
HERGLOTZ_STEPS = (3, 4, 5, 6)
HERGLOTZ_POINTS = 0.5 * np.exp(2j * np.pi * np.arange(48) / 48)


def region_spec(pc, kind, params):
    d = pc.domains
    if kind == "complement":
        return d.complement(region_spec(pc, *params))
    if kind.startswith("unit_disk"):
        return d.DomainSpec(d.UNIT_DISK_CLOSED if kind.endswith("closed")
                            else d.UNIT_DISK_OPEN)
    closed = kind.endswith("closed")
    if kind.startswith("omega"):
        return d.omega(params[0], params[1], closed=closed)
    if kind.startswith("limacon_i"):
        return d.limacon_inner(params[0], closed=closed)
    return d.limacon_outer(params[0], closed=closed)


def region_defect(kind, params, z):
    """The region's defining inequality, positive strictly inside."""
    if kind == "complement":
        return -region_defect(*params, z)
    if kind.startswith("unit_disk"):
        return 1.0 - np.abs(z)
    if kind.startswith("omega"):
        tau, gamma = params
        return np.abs(tau - gamma * z) - np.abs(z)
    gamma = params[0]
    if kind.startswith("limacon_i"):
        return 1.0 - np.abs(z) - gamma * np.abs(1.0 + z)
    return np.abs(z) - gamma * np.abs(1.0 + z) - 1.0


def _rand_poly(rng, n):
    return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)


class Algebra:
    """Root-free user operations: coefficient rows, algebraic identities,
    the kernel approximant and region queries."""

    name = "algebra"

    def __init__(self, pc, seed):
        self.pc = pc
        rng = _rng(seed, 3)
        self.ops = []
        for p in range(PASSES):
            for cyc in range(ALGEBRA_CYCLES_PER_PASS):
                for kind in ALGEBRA_CYCLE:
                    self.ops.append(self._make(rng, kind, cyc + p * ALGEBRA_CYCLES_PER_PASS))
        self.pass_len = len(self.ops) // PASSES
        parts = []
        for op in self.ops:
            for x in op:
                parts.extend(x if isinstance(x, tuple) else (x,))
        self.input_digest = _digest(parts)

    def _make(self, rng, kind, idx):
        if kind == "qrow":
            n = 1 + idx % 16
            offset = int(rng.integers(0, 4))
            lams = tuple(j * (2.0 * math.pi / n) / 32 for j in range(offset, 32, 4))
            return ("qrow", n, lams)
        if kind == "laws":
            n = int(rng.integers(2, 9))
            lam = float(rng.uniform(0.0, 0.9)) * 2.0 * math.pi / n
            f, g, h = (_rand_poly(rng, n) for _ in range(3))
            c = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            return ("laws", n, lam, f, g, h, c)
        if kind == "herglotz":
            m = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(m))
            nodes = rng.uniform(0.3, 0.7, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            return ("herglotz", weights, nodes)
        region = REGIONS[int(rng.integers(0, len(REGIONS)))]
        if kind == "contains":
            pts = rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(-3.0, 3.0, 64)
            return ("contains", region, pts)
        return ("boundary", region)

    def warm_up(self):
        for op in self.ops[: self.pass_len]:
            self.check(op, self.run(op))

    def run(self, op):
        pc = self.pc
        kind = op[0]
        if kind == "qrow":
            _, n, lams = op
            return [(pc.qconv.q_extremal(n, lam).coeffs,
                     [pc.qconv.q_coefficient(n, k, lam) for k in range(n + 1)])
                    for lam in lams]
        if kind == "laws":
            return self._laws(*op[1:])
        if kind == "herglotz":
            _, weights, nodes = op
            coeffs = self._herglotz_coeffs(weights, nodes)
            out = []
            for j in HERGLOTZ_STEPS:
                k, r = pc.herglotz.default_schedule(j)
                h = pc.herglotz.build_approximant(coeffs[: k + 1], k, r)
                out.append((h, pc.herglotz.evaluate_approximant_many(h, HERGLOTZ_POINTS)))
            return out
        if kind == "contains":
            _, (rkind, params), pts = op
            spec = region_spec(pc, rkind, params)
            return [pc.domains.contains(spec, z) for z in pts]
        _, (rkind, params) = op
        return pc.domains.boundary_polyline(region_spec(pc, rkind, params),
                                            BOUNDARY_SAMPLES)

    @staticmethod
    def _herglotz_coeffs(weights, nodes, count=65):
        """Taylor coefficients of sum w_j (1 + b_j z)/(1 - b_j z)."""
        powers = nodes[None, :] ** np.arange(1, count)[:, None]
        return np.concatenate([[1.0 + 0.0j], 2.0 * powers @ weights])

    def _laws(self, n, lam, f, g, h, c):
        """The criterion-2 identities plus two for the difference operator:
        delta(Q_n) = Q_{n-1} and delta(f * g) = delta(f) * delta(g)."""
        pc = self.pc
        P, lc, gs = pc.poly.Polynomial, pc.qconv.lambda_convolve, pc.qconv.grace_szego
        lp = pc.poly.LambdaParam(n, lam)
        lp1 = pc.poly.LambdaParam(n - 1, lam)
        F, G, H = P(f, n), P(g, n), P(h, n)
        kernel = P(np.concatenate([[0.0], [math.comb(n - 1, k) for k in range(n)]]), n)
        Fd = P(np.concatenate([[0.0], f[1:] * np.arange(1, n + 1)]) / n, n)
        return [
            (lc(F, G, lp).n_inverse(), lc(F.n_inverse(), G.n_inverse(), lp), 1e-11),
            (F.scale_argument(c).n_inverse(),
             F.n_inverse().scale_argument(c) * np.conj(c) ** n, 1e-11),
            (lc(lc(F, G, lp), H, lp), lc(F, lc(G, H, lp), lp), 1e-10),
            (lc(pc.qconv.q_extremal(n, lam), F, lp), F, 1e-11),
            (gs(F, kernel), Fd, 1e-11),
            (lc(F, G, pc.poly.LambdaParam(n, 0.0)), gs(F, G), 1e-11),
            (pc.qconv.delta(pc.qconv.q_extremal(n, lam), lp),
             pc.qconv.q_extremal(n - 1, lam), 1e-11),
            (pc.qconv.delta(lc(F, G, lp), lp),
             lc(pc.qconv.delta(F, lp), pc.qconv.delta(G, lp), lp1), 1e-10),
        ]

    def check(self, op, out):
        kind = op[0]
        if kind == "qrow":
            n = op[1]
            for lam, (coeffs, row) in zip(op[2], out):
                want = expand(extremal_factors(n, lam))
                scale = np.maximum(1.0, np.abs(want))
                if (np.max(np.abs(coeffs - want) / scale) > 1e-12
                        or np.max(np.abs(np.asarray(row) - want) / scale) > 1e-12):
                    raise WrongOutput(f"Q_{n}({lam!r}) row off the product expansion")
        elif kind == "laws":
            for i, (a, b, tol) in enumerate(out):
                scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1e-300)
                if np.max(np.abs(a.coeffs - b.coeffs)) > tol * scale:
                    raise WrongOutput(f"identity {i} fails at n={op[1]} lam={op[2]!r}")
        elif kind == "herglotz":
            for h, vals in out:
                w = np.asarray(h.weights)
                if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-10:
                    raise WrongOutput(f"approximant weights not a convex set at m={h.m}")
                if not np.all(np.isfinite(vals)):
                    raise WrongOutput(f"non-finite approximant values at m={h.m}")
        elif kind == "contains":
            _, (rkind, params), pts = op
            defect = region_defect(rkind, params, pts)
            want = np.where(np.abs(defect) <= 1e-9, "BOUNDARY",
                            np.where(defect > 0, "IN", "OUT"))
            if list(want) != list(out):
                raise WrongOutput(f"contains disagrees with the defect on {rkind}{params}")
        else:
            _, (rkind, params) = op
            if not 1 <= len(out) <= BOUNDARY_SAMPLES:
                raise WrongOutput(f"{len(out)} boundary points for {rkind}{params}")
            z = out[:, 0] + 1j * out[:, 1]
            if np.max(np.abs(region_defect(rkind, params, z))) > 1e-9:
                raise WrongOutput(f"boundary point off the boundary of {rkind}{params}")

    def figures(self, wall_s):
        return {}


def make(name, pc, seed, scratch):
    if name == "routes":
        return Routes(pc, seed)
    if name == "trials":
        return Trials(pc, seed, os.path.join(scratch, "verify.json"))
    if name == "algebra":
        return Algebra(pc, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("routes", "trials", "algebra")
