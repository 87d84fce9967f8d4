"""The four workloads: seeded inputs, fixed job lists and output checks.

A workload is built from a seed into the coefficient / problem files it
writes and an ordered list of CLI jobs.  Every job writes its result with
``--output`` and carries a check that compares that result with a
computation from ``reference`` (never with a saved copy of an earlier
output).  A check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

PI = math.pi
TWO_PI = 2 * math.pi

#: resolution of the program's discriminant assumed by the eigenvalue checks
DELTA_ERROR = 1e-11
#: mu resolution behind the |Delta(lam) -+ 2| check, 10x the program's TOL_ROOT
ROOT_RESOLUTION = 1e-9
#: chart verdicts are checked only this far from every reference band edge
EDGE_DISTANCE = 0.02
#: grid step of the reference scan for piecewise coefficients
SCAN_STEP_SMOOTH = 0.02
SCAN_STEP_STEP = 1e-3


@dataclass
class Job:
    label: str
    argv: list
    output: str
    check: Callable
    may_fail: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)   # path -> JSON document
    jobs: list = field(default_factory=list)
    #: checks over several outputs, run after every job's own check
    final_checks: list = field(default_factory=list)

    def write_inputs(self):
        for path, doc in self.files.items():
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=2)


# -- coefficients -------------------------------------------------------------

MATHIEU = ref.trig_poly(PI, [(1.2, 0.0, 0.0), (0.4, 2.0, 0.0)])
README_TWO_PIECE = ref.Coeff(TWO_PI, (
    (0.0, 2.0, ((1.5, 0.0, 0.0),)),
    (2.0, TWO_PI, ((0.5, 0.0, 0.0), (0.3, 1.0, 0.0))),
))
CONSTANT_16_5 = ref.step(TWO_PI, [(0.0, TWO_PI, 16.5)])


def seeded_trig_poly(rng: random.Random) -> ref.Coeff:
    """1.2 + 0.4 cos(2x) + 0.15 cos(4x + p) on period pi.

    Only the phase is drawn: the amplitudes set the cost of a solve, and
    fixing them keeps that cost the same from seed to seed.  A phase on the
    first harmonic would add nothing, as a shift of x leaves the spectrum
    unchanged.
    """
    return ref.trig_poly(PI, [
        (1.2, 0.0, 0.0),
        (0.4, 2.0, 0.0),
        (0.15, 4.0, rng.uniform(0.0, TWO_PI)),
    ])


def seeded_step(rng: random.Random, plateaus: int) -> ref.Coeff:
    """Plateaus of values in [0.2, 2] on period 2 pi, each >= 0.3 wide."""
    while True:
        cuts = sorted(rng.uniform(0.0, TWO_PI) for _ in range(plateaus - 1))
        bounds = [0.0] + cuts + [TWO_PI]
        if min(b - a for a, b in zip(bounds[:-1], bounds[1:])) >= 0.3:
            break
    return ref.step(TWO_PI, [(s, e, rng.uniform(0.2, 2.0))
                             for s, e in zip(bounds[:-1], bounds[1:])])


# -- shared checks ------------------------------------------------------------

def _interlacing(p, ap, slack=ROOT_RESOLUTION) -> list:
    """lam0 < alam1 <= alam2 < lam1 <= lam2 < alam3 <= ... on the output."""
    seq = [("lam0", p[0], True)]
    i, j = 1, 0
    while i < len(p) or j < len(ap):
        for _ in range(2):
            if j < len(ap):
                seq.append((f"alam{j + 1}", ap[j], j % 2 == 0))
                j += 1
        for _ in range(2):
            if i < len(p):
                seq.append((f"lam{i}", p[i], i % 2 == 1))
                i += 1
    problems = []
    for (n0, v0, _), (n1, v1, strict) in zip(seq[:-1], seq[1:]):
        if (strict and not v1 > v0) or (not strict and v1 < v0 - slack):
            problems.append(f"interlacing broken: {n0}={v0} {n1}={v1}")
    return problems


class SpectrumRef:
    """Reference eigenvalues of one coefficient, computed on first use."""

    def __init__(self, a: ref.Coeff, mu_hi: float):
        self.a, self.mu_hi = a, mu_hi
        self._spec = None

    @property
    def spec(self) -> ref.Spectrum:
        if self._spec is None:
            if not self.a.is_piecewise():
                self._spec = ref.spectrum_from_hill(self.a, self.mu_hi)
            else:
                step = (SCAN_STEP_STEP if self.a.is_constant()
                        else SCAN_STEP_SMOOTH)
                self._spec = ref.spectrum_from_scan(self.a, self.mu_hi, step)
        return self._spec

    def value(self, kind: str, index: int) -> float:
        """Eigenvalue by the program's indexing; inf when above mu_hi."""
        vals = self.spec.periodic if kind == "p" else self.spec.antiperiodic
        k = index if kind == "p" else index - 1
        return vals[k] if k < len(vals) else math.inf

    def tolerance(self, mu: float) -> float:
        return ref.eigenvalue_tolerance(mu, self.a.mean(), self.a.period,
                                        DELTA_ERROR)


def check_eigs(sref: SpectrumRef, count: int) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        problems = []
        p = [e["value"] for e in doc["periodic"]]
        ap = [e["value"] for e in doc["antiperiodic"]]
        if [e["index"] for e in doc["periodic"]] != list(range(count)) or \
                [e["index"] for e in doc["antiperiodic"]] != \
                list(range(1, count + 1)):
            problems.append("eigenvalue indices are not 0..n-1 / 1..n")
        for kind, vals, base in (("p", p, 0), ("ap", ap, 1)):
            for k, v in enumerate(vals):
                r = sref.value(kind, base + k)
                if abs(v - r) > sref.tolerance(r):
                    problems.append(
                        f"{kind}[{base + k}] = {v!r}, reference {r!r}, "
                        f"tolerance {sref.tolerance(r):.1e}")
        if sref.a.is_piecewise():
            problems += _delta_residuals(sref.a, p, ap)
        problems += _interlacing(p, ap)
        return problems
    return check


def _delta_residuals(a: ref.Coeff, p, ap) -> list:
    """|Delta(lam) -+ 2| of the reference discriminant at each output value,
    allowed ROOT_RESOLUTION in mu: ROOT_RESOLUTION * (1 + |Delta'|)."""
    problems = []
    for sign, vals in ((1.0, p), (-1.0, ap)):
        for v, dv in zip(vals, ref.discriminant(a, vals)):
            slope = abs(ref.discriminant_slope(a, v))
            if abs(dv - 2 * sign) > ROOT_RESOLUTION * (1 + slope):
                problems.append(f"|Delta({v!r}) - {2 * sign}| = "
                                f"{abs(dv - 2 * sign):.2e}")
    return problems


def _confirm(sref: SpectrumRef, cert: dict) -> bool:
    """The certificate's conclusion, re-checked on the reference spectrum."""
    tid, n = cert["theorem_id"], cert["n_or_p"]
    if tid == "L1_PERIODIC_N":
        return sref.value("p", 2 * n) < 0 < sref.value("p", 2 * n + 1)
    if tid == "L1_ANTIPERIODIC_N":
        return sref.value("ap", 2 * n) < 0 < sref.value("ap", 2 * n + 1)
    if tid == "L1_ZONE_KP":
        # bands are (e0, e1), (e2, e3), ... of the sorted edges
        below = int(np.sum(sref.spec.edges() < 0))
        return below % 2 == 1 and 0.0 not in sref.spec.edges()
    if tid == "LINF_FIRST_ZONE":
        return sref.value("p", 0) < 0 < sref.value("ap", 1)
    if tid == "LINF_PERIODIC":
        return sref.value("p", 0) < 0 < sref.value("p", 1)
    if tid == "CLASSICAL_16T":
        return abs(float(ref.discriminant(sref.a, [0.0])[0]) - 2) > 1e-9
    return False


def check_certify_verify(sref: SpectrumRef) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        T = sref.a.period
        problems = []
        for cert in doc["certificates"]:
            if cert["theorem_id"] == "L1_PERIODIC_N":
                n = cert["n_or_p"]
                hv = cert["hypothesis_values"]
                lam = ref.lambda_double(n, T)
                g = T * lam + ref.beta1(n, T)
                if abs(hv["lambda_2n_minus_1"] - lam) > 1e-12 * lam or \
                        abs(hv["gamma1"] - g) > 1e-12 * g:
                    problems.append(f"gamma1/beta1 at n={n}: {hv['gamma1']!r}"
                                    f" vs {g!r}")
            if cert["holds"] and not _confirm(sref, cert):
                problems.append(f"{cert['theorem_id']} n={cert['n_or_p']} "
                                "holds but its conclusion fails")
        checks = doc.get("verification", [])
        confirmed = [c for c in checks if "confirmed" in c]
        if len(confirmed) != sum(c["holds"] for c in doc["certificates"]):
            problems.append("not every holding certificate was verified")
        problems += [f"{c['theorem_id']} not confirmed"
                     for c in confirmed if not c["confirmed"]]
        for c in checks:
            for key, kind, base in (("periodic_eigenvalues", "p", 0),
                                    ("antiperiodic_eigenvalues", "ap", 1)):
                for k, v in enumerate(c.get(key, [])):
                    r = sref.value(kind, base + k)
                    if r < sref.mu_hi and abs(v - r) > sref.tolerance(r):
                        problems.append(f"{key}[{k}] = {v!r}, reference {r!r}")
        return problems
    return check


# -- spectrum-verify ----------------------------------------------------------

def spectrum_verify(seed: int, run_dir: str) -> Workload:
    """eigs --bc both and certify --verify, smooth and stepwise.

    The smooth eigs jobs ask for 2 eigenvalues of each kind: at --count 7
    they take 10-12 s each, too long for a run to hold several passes.
    Five jobs complete; the median one is the README certify, on a fixed
    input.
    """
    rng = random.Random(seed)
    w = Workload("spectrum-verify")
    coeffs = {
        "mathieu": MATHIEU,
        "readme": README_TWO_PIECE,
        "trig": seeded_trig_poly(rng),
        "step": seeded_step(rng, 3),
        "const16.5": CONSTANT_16_5,
    }
    path = {k: os.path.join(run_dir, f"sv-{k}.json") for k in coeffs}
    for k, a in coeffs.items():
        w.files[path[k]] = a.to_doc()
    # checks read up to lam_7 / alam_8: below 8^2 = 64 at period pi and
    # below 4^2 = 16 at period 2 pi
    refs = {k: SpectrumRef(a, 70.0 if a.period == PI else 17.0)
            for k, a in coeffs.items()}

    def job(label, argv, check, may_fail=False):
        out = os.path.join(run_dir, f"sv-{label}.out")
        w.jobs.append(Job(label, argv + ["--output", out], out, check,
                          may_fail))

    job("eigs-step", ["eigs", path["step"], "--count", "7", "--bc", "both"],
        check_eigs(refs["step"], 7))
    for k in ("step", "readme"):
        job(f"certify-{k}", ["certify", path[k], "--verify"],
            check_certify_verify(refs[k]))
    for k in ("mathieu", "trig"):
        job(f"eigs-{k}", ["eigs", path[k], "--count", "2", "--bc", "both"],
            check_eigs(refs[k], 2))
    # certify's verification fetches 8 periodic eigenvalues whatever n is,
    # so n = 4 reads past the end; once fixed this job passes its check
    job("certify-const16.5-n4",
        ["certify", path["const16.5"], "--n", "4", "--verify"],
        check_const_n4(refs["const16.5"]), may_fail=True)
    return w


def check_const_n4(sref: SpectrumRef) -> Callable:
    """lam_8 = 4^2 - 16.5 = -0.5 < 0 < lam_9 = 5^2 - 16.5 = 8.5."""
    verify = check_certify_verify(sref)

    def check(text: str) -> list:
        problems = verify(text)
        doc = json.loads(text)
        l1 = [c for c in doc["verification"]
              if c.get("theorem_id") == "L1_PERIODIC_N" and c["n_or_p"] == 4]
        if not (l1 and l1[0]["confirmed"]):
            problems.append("L1_PERIODIC_N n=4 not confirmed")
        if not (sref.value("p", 8) < 0 < sref.value("p", 9)):
            problems.append("closed form: lam_8 < 0 < lam_9 fails")
        return problems
    return check


# -- chart-sweep --------------------------------------------------------------

def check_chart_steps(a: ref.Coeff) -> Callable:
    """Delta against the closed-form block product, and its verdict."""
    def check(text: str) -> list:
        rows = [r.split(",") for r in text.strip().splitlines()[1:]]
        mus = np.array([float(r[0]) for r in rows])
        d_prog = np.array([float(r[1]) for r in rows])
        M = ref.monodromy(a, mus)
        d_ref = M[:, 0, 0] + M[:, 1, 1]
        scale = np.maximum(1.0, np.max(np.abs(M), axis=(1, 2)))
        bad = np.abs(d_prog - d_ref) > 1e-9 * scale
        problems = [f"Delta({mus[i]!r}) = {d_prog[i]!r}, reference "
                    f"{d_ref[i]!r}" for i in np.flatnonzero(bad)[:5]]
        for mu, d, (_, _, verdict) in zip(mus, d_ref, rows):
            if abs(abs(d) - 2) < 1e-6:
                continue
            want = "Stable" if abs(d) < 2 else "Unstable"
            if verdict != want:
                problems.append(
                    f"verdict at mu={mu!r}: {verdict}, want {want}")
        return problems
    return check


def check_chart_smooth(sref: SpectrumRef) -> Callable:
    """Verdicts against reference band edges, away from every edge."""
    def check(text: str) -> list:
        edges = sref.spec.edges()
        problems = []
        for row in text.strip().splitlines()[1:]:
            mu_s, _, verdict = row.split(",")
            mu = float(mu_s)
            if np.min(np.abs(edges - mu)) < EDGE_DISTANCE:
                continue
            # bands are (e0, e1), (e2, e3), ...: an odd count of edges
            # below mu puts mu inside a band
            below = int(np.sum(edges < mu))
            want = "Stable" if below % 2 == 1 else "Unstable"
            if verdict != want:
                problems.append(
                    f"verdict at mu={mu!r}: {verdict}, want {want}")
        return problems[:5]
    return check


def chart_sweep(seed: int, run_dir: str) -> Workload:
    """chart over long mu ranges: three step functions, then the three
    smooth coefficients.  Six jobs complete; the median job time is the
    mean of the dearest step chart and the cheapest smooth chart."""
    rng = random.Random(seed)
    w = Workload("chart-sweep")
    trig = seeded_trig_poly(rng)
    steps = [seeded_step(rng, k) for k in (4, 5, 6)]
    plan = [(f"step{k}", a, -4.0, 60.0, 4001, check_chart_steps(a))
            for k, a in enumerate(steps, 1)]
    plan += [
        ("mathieu", MATHIEU, -2.0, 40.0, 101,
         check_chart_smooth(SpectrumRef(MATHIEU, 41.0))),
        ("trig", trig, -2.0, 40.0, 61,
         check_chart_smooth(SpectrumRef(trig, 41.0))),
        ("readme", README_TWO_PIECE, -1.0, 12.0, 151,
         check_chart_smooth(SpectrumRef(README_TWO_PIECE, 13.0))),
    ]
    for label, a, lo, hi, points, check in plan:
        src = os.path.join(run_dir, f"cs-{label}.json")
        out = os.path.join(run_dir, f"cs-{label}.csv")
        w.files[src] = a.to_doc()
        w.jobs.append(Job(f"chart-{label}",
                          ["chart", src, "--mu-from", repr(lo), "--mu-to",
                           repr(hi), "--points", str(points), "--output", out],
                          out, check))
    return w


# -- witness-certify ----------------------------------------------------------

class WitnessSeries:
    """||a_eps - lam|| - beta1 across the decreasing eps of one n."""

    def __init__(self):
        self.excess = {}

    def record(self, n, eps, value):
        self.excess[(n, eps)] = value

    def problems(self) -> list:
        out = []
        for n in sorted({n for n, _ in self.excess}):
            series = sorted((eps, v) for (m, eps), v in self.excess.items()
                            if m == n)
            for (e0, v0), (e1, v1) in zip(series[:-1], series[1:]):
                # series is by increasing eps: the excess must grow with eps
                if not v0 < v1:
                    out.append(f"n={n}: excess {v0!r} at eps={e0!r} is not "
                               f"below {v1!r} at eps={e1!r}")
        return out


def witness_certify(seed: int, run_dir: str) -> Workload:
    """witness a-eps, then certify --n n and zeros --n n, for n = 1..3 and
    two decreasing eps at n = 1.

    Only the first witness is certified by every theorem (2-3 s, nearly
    all of it sampling in the classical and zone theorems); the others by
    L1_PERIODIC_N alone, which is what their checks read.  Certifying all
    four by every theorem made a pass take over 20 s.
    """
    rng = random.Random(seed)
    w = Workload("witness-certify")
    series = WitnessSeries()
    # eps is drawn from narrow ranges: the cost of certify's adaptive
    # quadrature jumps by up to half as eps moves over [0.005, 0.02]
    plan = []
    for n, count in ((1, 2), (2, 1), (3, 1)):
        eps = rng.uniform(0.012, 0.016)
        for _ in range(count):
            plan.append((n, eps))
            eps *= rng.uniform(0.05, 0.08)
    for i, (n, eps) in enumerate(plan):
        coeff = os.path.join(run_dir, f"wc-{i}-a_eps.json")
        w.jobs.append(Job(f"witness-{i}",
                          ["witness", "a-eps", "--n", str(n), "--eps",
                           repr(eps), "--output", coeff],
                          coeff, check_witness_doc(n)))
        out = os.path.join(run_dir, f"wc-{i}-certify.json")
        which = [] if i == 0 else ["--theorem", "L1_PERIODIC_N"]
        w.jobs.append(Job(f"certify-{i}",
                          ["certify", coeff, "--n", str(n)] + which
                          + ["--output", out],
                          out, check_witness_certify(n, eps)))
        out = os.path.join(run_dir, f"wc-{i}-zeros.json")
        w.jobs.append(Job(f"zeros-{i}",
                          ["zeros", coeff, "--n", str(n), "--output", out],
                          out, check_witness_zeros(n, eps, series)))
    w.final_checks.append(series.problems)
    return w


def check_witness_doc(n: int) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        if (len(doc["pieces"]) != 6 * (n + 1)
                or len(doc["removable"]) != 2 * (n + 1)
                or doc["period"] != TWO_PI):
            return [f"a_eps document for n={n} has the wrong layout"]
        return []
    return check


def check_witness_certify(n: int, eps: float) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        norm, _ = ref.witness_norms(n, TWO_PI, eps)
        problems = []
        cert = [c for c in doc["certificates"]
                if c["theorem_id"] == "L1_PERIODIC_N" and c["n_or_p"] == n]
        if not cert:
            return [f"no L1_PERIODIC_N certificate at n={n}"]
        hv = cert[0]["hypothesis_values"]
        # coeff's quadrature skips +-REMOVABLE_EPS = 1e-9 around each of the
        # 2(n+1) removable points, where a_eps = lam: up to 2e-9 lam each
        skipped = 2 * 1e-9 * 2 * (n + 1) * ref.lambda_double(n, TWO_PI)
        if abs(hv["l1_norm"] - norm) > 1e-9 + skipped:
            problems.append(f"||a_eps||_L1 = {hv['l1_norm']!r}, "
                            f"reference {norm!r}")
        if cert[0]["holds"]:
            problems.append("L1_PERIODIC_N holds at the witness's own n, "
                            "though Delta(0) = 2 by construction")
        return problems
    return check


def check_witness_zeros(n: int, eps: float, series: WitnessSeries) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        _, dist = ref.witness_norms(n, TWO_PI, eps)
        lam = ref.lambda_double(n, TWO_PI)
        m = 2 * (n + 1)
        r = math.sqrt(lam)
        cot_sum = 2 * m * r / math.tan(r * TWO_PI / (2 * m))
        c = doc["checks"]
        problems = []
        if doc["m"] != m:
            problems.append(f"m = {doc['m']}, want {m}")
        if not c["structure"]["all_ok"]:
            problems.append("zero structure checks fail")
        if abs(c["cot_sum"] - cot_sum) > 1e-6 * abs(cot_sum):
            problems.append(f"cot_sum = {c['cot_sum']!r}, want {cot_sum!r}")
        if abs(c["total_distance"] - dist) > 1e-9:
            problems.append(f"||a_eps - lam||_L1 = {c['total_distance']!r}, "
                            f"reference {dist!r}")
        excess = c["total_distance"] - ref.beta1(n, TWO_PI)
        if not excess > 0:
            problems.append(f"||a_eps - lam||_L1 - beta1 = {excess!r} <= 0")
        series.record(n, eps, excess)
        return problems
    return check


# -- nonlinear-shoot ----------------------------------------------------------

def seeded_pendulum(rng: random.Random, n: int) -> ref.Pendulum:
    """Envelope [c - |d|, c + |d|] strictly inside the n-th L1 window
    (lam_{2n-1}, lam_{2n-1} + beta1(n, T) / T) at T = 2 pi.

    c sits mid-window with |d| = 7.5 % of its width; the seed draws the sign
    of d and the forcing phases.  Drawing c, |d| or the amplitudes too would
    move the Newton work from seed to seed by up to a third.
    """
    lam = ref.lambda_double(n, TWO_PI)
    width = ref.beta1(n, TWO_PI) / TWO_PI
    d = 0.075 * width * rng.choice((-1.0, 1.0))
    forcing = ((0.4, 1.0, rng.uniform(0.0, TWO_PI)),
               (0.15, 2.0, rng.uniform(0.0, TWO_PI)))
    return ref.Pendulum(lam + 0.5 * width, d, forcing, TWO_PI)


def pendulum_doc(p: ref.Pendulum) -> dict:
    forcing = " + ".join(f"{A!r}*cos({k!r}*x + {ph!r})"
                         for A, k, ph in p.forcing)
    lo, hi = p.c - abs(p.d), p.c + abs(p.d)
    return {
        "f": f"{p.c!r}*u + {p.d!r}*sin(u) + {forcing}",
        "fu": f"{p.c!r} + {p.d!r}*cos(u)",
        "period": p.period,
        "alpha_env": ref.step(p.period, [(0.0, p.period, lo)]).to_doc(),
        "beta_env": ref.step(p.period, [(0.0, p.period, hi)]).to_doc(),
        "u_box": [-50.0, 50.0],
    }


def check_nonlinear_check(p: ref.Pendulum, n: int) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        T = p.period
        problems = []
        ids = sorted(c["theorem_id"] for c in doc["certificates"])
        if ids != ["NL_CLASSICAL_BAND", "NL_L1_PERIODIC_N"]:
            problems.append(f"certificates {ids}")
        for cert in doc["certificates"]:
            hv = cert["hypothesis_values"]
            if not cert["holds"]:
                problems.append(f"{cert['theorem_id']} does not hold")
            if cert["theorem_id"] == "NL_L1_PERIODIC_N":
                bnorm = T * (p.c + abs(p.d))
                g = T * ref.lambda_double(n, T) + ref.beta1(n, T)
                if abs(hv["beta_l1_norm"] - bnorm) > 1e-9 * bnorm or \
                        abs(hv["gamma1"] - g) > 1e-12 * g:
                    problems.append(
                        "||beta||_L1 or gamma1 off the closed form")
            else:
                if cert["n_or_p"] != n:
                    problems.append(
                        f"classical band {cert['n_or_p']}, want {n}")
                if not (p.c - abs(p.d) - 1e-12 <= hv["fu_min"]
                        <= hv["fu_max"] <= p.c + abs(p.d) + 1e-12):
                    problems.append("sampled f_u leaves [c - |d|, c + |d|]")
        return problems
    return check


def check_nonlinear_solve(p: ref.Pendulum) -> Callable:
    def check(text: str) -> list:
        doc = json.loads(text)
        problems = []
        if not doc["unique"] or len(doc["solutions"]) != 1:
            return [f"solve reports unique={doc['unique']} with "
                    f"{len(doc['solutions'])} solutions"]
        s = doc["solutions"][0]
        u0, du0, _ = ref.collocation_solve(p)
        if abs(s["u0"] - u0) > 1e-6 or abs(s["du0"] - du0) > 1e-6:
            problems.append(f"(u0, du0) = ({s['u0']!r}, {s['du0']!r}), "
                            f"collocation ({u0!r}, {du0!r})")
        defect = ref.periodicity_defect(p, s["u0"], s["du0"])
        if defect > 1e-7:
            problems.append(f"periodicity defect {defect:.2e}")
        return problems
    return check


#: shooting starts of the solve job; 16 starts take about 9 s, 4 about 1.7 s
SOLVE_STARTS = 4


def nonlinear_shoot(seed: int, run_dir: str) -> Workload:
    """check --n n for the windows n = 1, 2 and solve for n = 1."""
    rng = random.Random(seed)
    w = Workload("nonlinear-shoot")
    problems = {n: seeded_pendulum(rng, n) for n in (1, 2)}
    path = {}
    for n, p in problems.items():
        path[n] = os.path.join(run_dir, f"ns-p{n}.json")
        w.files[path[n]] = pendulum_doc(p)
    for n, p in problems.items():
        out = os.path.join(run_dir, f"ns-check{n}.json")
        w.jobs.append(Job(f"check-{n}", ["nonlinear", "check", path[n], "--n",
                                         str(n), "--output", out],
                          out, check_nonlinear_check(p, n)))
    out = os.path.join(run_dir, "ns-solve1.json")
    w.jobs.append(Job("solve-1", ["nonlinear", "solve", path[1], "--starts",
                                  str(SOLVE_STARTS), "--output", out],
                      out, check_nonlinear_solve(problems[1])))
    return w


WORKLOADS = {
    "spectrum-verify": spectrum_verify,
    "chart-sweep": chart_sweep,
    "witness-certify": witness_certify,
    "nonlinear-shoot": nonlinear_shoot,
}
