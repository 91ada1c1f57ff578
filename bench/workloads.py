"""The benchmark's workloads, each a pure function of the run seed.

Every input is an experiment config (the same JSON document the CLI reads),
so the library workloads and the CLI workload build their inputs through the
same path: ``gnewton.config.build_experiment`` for solves and
``gnewton.config.build_audit_setup`` for audits.

Seeds: run seed ``s`` draws every start point, random-selector seed
and audit seed of its workload from the contiguous range
``[SEED_STRIDE * s, SEED_STRIDE * s + SEED_STRIDE)``, one seed per config in
order. Seeds are never skipped or re-picked, so whatever a seed does (for
example a rate fit collapsing at rounding level) shows in the results.

Why these workloads:

- ``solve-ladder`` is the size ladder of the performance roadmap: the
  pullback jet and the tangent basis dominate, so work that scales with the
  dimension shows here.
- ``rate-study`` is many tiny sphere(6) and one-dimensional solves, each
  followed by a rate fit, plus an audit per pair kind: per-call overhead
  (validation, dispatch, selectors, rates, audit) dominates.
- ``cli-batch`` is the CLI as a subprocess: interpreter start, imports and
  artifact writing dominate, the jet work is negligible.
"""

from dataclasses import dataclass

SEED_STRIDE = 200
DELTA = 0.1
TOL = 1e-12
RATE_FLOOR = 1e-30
RATE_CEIL = 0.5
AUDIT_POINTS = 20
AUDIT_RADII = (1e-1, 1e-2, 1e-3)
# rate-study runs each of its solve configs from this many start seeds, so
# a run's figures, its p90 above all, do not hinge on a few seeds' draws
RATE_REPLICAS = 12

WORKLOADS = ("solve-ladder", "rate-study", "cli-batch")

PROJ = {"kind": "projection"}
GEO = {"kind": "sphere_geodesic"}
QR = {"kind": "qr"}
REC = {"kind": "recentred", "base": PROJ, "rotation_seed": 0}
CUBIC = {"kind": "custom1d", "coeffs": [0.0, -1.0]}
BETA = {"kind": "example_beta", "beta": 1.0}
FIXED = {"kind": "fixed"}


def pair(phi, psi=None):
    return {"phi": phi, "psi": phi if psi is None else psi}


def _diag(n, start=1):
    return "diag:" + ",".join(str(float(k)) for k in range(start, start + n))


def rayleigh(n):
    return {"kind": "sphere", "n": n}, {"kind": "quadratic", "A": _diag(n)}


BROCKETT = ({"kind": "stiefel", "n": 12, "p": 3},
            {"kind": "brockett", "A": _diag(12), "N": _diag(3)})
TRACE = ({"kind": "grassmann", "n": 20, "p": 4},
         {"kind": "grassmann_trace", "A": _diag(20)})
LINE = {"kind": "euclidean", "n": 1}


@dataclass(frozen=True)
class Solve:
    """One solve: ``config`` drives ``run_iteration``; ``rate_truth`` says
    whether its rate fit uses the closed-form truth or ``truth=None``."""
    name: str
    config: dict
    rate_truth: bool = True


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation on the solve named ``solve``. ``rates`` ops fit
    the trace written by that solve's ``run`` op in the same pass."""
    command: str  # run | audit | rates
    solve: str
    rate_truth: bool = True

    @property
    def name(self):
        return "%s-%s%s" % (self.command, self.solve,
                            "" if self.rate_truth else "-none")


@dataclass(frozen=True)
class Workload:
    """One pass of a workload. ``solves`` are the ops of a library workload
    and the run configs of the CLI workload; ``audits`` are configs audited
    once per pass (their first pair); ``cli_ops`` is the CLI pass."""
    name: str
    seed: int
    solves: tuple
    audits: tuple = ()
    cli_ops: tuple = ()
    fit_rates: bool = False


class _Seeds:
    """Hands out the run's contiguous seed range in order."""

    def __init__(self, seed):
        self.next = SEED_STRIDE * seed
        self.stop = self.next + SEED_STRIDE

    def __call__(self):
        if self.next >= self.stop:
            raise ValueError("workload needs more than %d seeds" % SEED_STRIDE)
        self.next += 1
        return self.next - 1


def _config(space, pairs, selector, x0_seed, max_iter, audit_seed=None):
    manifold, cost = space
    cfg = {
        "version": 1,
        "manifold": manifold,
        "cost": cost,
        "pairs": list(pairs),
        "selector": selector,
        "x0": "near-truth:%r:%d" % (DELTA, x0_seed),
        "max_iter": max_iter,
        "tol": TOL,
        "rate_floor": RATE_FLOOR,
        "rate_ceil": RATE_CEIL,
    }
    if audit_seed is not None:
        cfg["audit"] = {"sample_points": AUDIT_POINTS,
                        "radii": list(AUDIT_RADII), "seed": audit_seed}
    return cfg


def _audit_config(manifold, p, seed):
    return {"version": 1, "manifold": manifold, "pairs": [p],
            "audit": {"sample_points": AUDIT_POINTS,
                      "radii": list(AUDIT_RADII), "seed": seed}}


def solve_ladder(seed):
    """Sphere n = 6 / 30 / 100 (Rayleigh), Stiefel(12,3) (Brockett) and
    Grassmann(20,4) (trace), each with the projection and the QR pair."""
    seeds = _Seeds(seed)
    spaces = (("sphere6", rayleigh(6)), ("sphere30", rayleigh(30)),
              ("sphere100", rayleigh(100)), ("stiefel12x3", BROCKETT),
              ("grassmann20x4", TRACE))
    solves = []
    for label, space in spaces:
        for kname, kind in (("proj", PROJ), ("qr", QR)):
            x0_seed = seeds()
            solves.append(Solve("%s-%s" % (label, kname),
                                _config(space, [pair(kind)], FIXED, x0_seed,
                                        15, audit_seed=x0_seed)))
    return Workload("solve-ladder", seed, tuple(solves))


def rate_study(seed):
    """Sphere(6) with the projection, geodesic, QR, recentred and mixed
    pairs under every selector kind, and the 1-D costs, each from
    ``RATE_REPLICAS`` start seeds; one audit per pair kind. Every third
    solve fits its rate with ``truth=None``."""
    seeds = _Seeds(seed)
    s6 = rayleigh(6)
    mixed_pg, mixed_gq = pair(PROJ, GEO), pair(GEO, QR)
    sphere_runs = (
        ("fixed-proj", [pair(PROJ)], FIXED),
        ("fixed-geo", [pair(GEO)], FIXED),
        ("fixed-qr", [pair(QR)], FIXED),
        ("fixed-rec", [pair(REC)], FIXED),
        ("fixed-proj-geo", [mixed_pg], FIXED),
        ("fixed-geo-qr", [mixed_gq], FIXED),
        ("robin", [pair(PROJ), pair(GEO), pair(QR)], {"kind": "round_robin"}),
        ("random", [pair(PROJ), pair(GEO), pair(REC)], "random"),
        ("random-mixed", [pair(QR), mixed_pg, mixed_gq], "random"),
        ("path-repeat", [pair(PROJ), pair(QR)],
         {"kind": "path", "rule": "alternate-on-repeat"}),
        ("path-distance", [pair(QR), pair(GEO), pair(PROJ)],
         {"kind": "path", "rule": "distance-keyed"}),
    )
    line_runs = (
        ("abs-power", (LINE, {"kind": "abs_power"}), [pair(PROJ)], FIXED),
        ("cubic-custom", (LINE, {"kind": "shifted_cubic", "z": 0.3}),
         [pair(CUBIC)], FIXED),
        ("cubic-beta", (LINE, {"kind": "shifted_cubic", "z": 1.0}),
         [pair(BETA)], FIXED),
        ("cubic-robin", (LINE, {"kind": "shifted_cubic", "z": 0.3}),
         [pair(PROJ), pair(CUBIC)], {"kind": "round_robin"}),
    )
    runs = [(name, s6, pairs, sel, 30) for name, pairs, sel in sphere_runs]
    runs += [(name, space, pairs, sel, 60) for name, space, pairs, sel in line_runs]
    solves = []
    for r in range(RATE_REPLICAS):
        for i, (name, space, pairs, sel, max_iter) in enumerate(runs):
            x0_seed = seeds()
            selector = ({"kind": "random", "seed": x0_seed}
                        if sel == "random" else sel)
            solves.append(Solve("%s-%d" % (name, r),
                                _config(space, pairs, selector, x0_seed,
                                        max_iter),
                                rate_truth=(i % 3 != 2)))
    kinds = ((s6[0], pair(PROJ)), (s6[0], pair(GEO)), (s6[0], pair(QR)),
             (s6[0], pair(REC)), (s6[0], mixed_pg), (s6[0], mixed_gq),
             (LINE, pair(CUBIC)), (LINE, pair(BETA)))
    audits = tuple(_audit_config(m, p, seeds()) for m, p in kinds)
    return Workload("rate-study", seed, tuple(solves), audits, fit_rates=True)


def cli_batch(seed):
    """``gnewton run | audit | rates`` on small sphere(6) configs, one
    subprocess per op, ``--jobs 1``."""
    seeds = _Seeds(seed)
    s6 = rayleigh(6)
    specs = (("proj", [pair(PROJ)], FIXED),
             ("random", [pair(PROJ), pair(GEO), pair(REC)], "random"),
             ("qr", [pair(QR)], FIXED))
    solves = []
    for name, pairs, sel in specs:
        s = seeds()
        if sel == "random":
            sel = {"kind": "random", "seed": s}
        solves.append(Solve(name, _config(s6, pairs, sel, s, 30, audit_seed=s)))
    ops = (CliOp("run", "proj"), CliOp("run", "random"), CliOp("run", "qr"),
           CliOp("rates", "proj"), CliOp("rates", "random", rate_truth=False),
           CliOp("audit", "proj"), CliOp("audit", "qr"))
    return Workload("cli-batch", seed, tuple(solves), cli_ops=ops)


_MAKERS = {"solve-ladder": solve_ladder, "rate-study": rate_study,
           "cli-batch": cli_batch}


def make(name, seed):
    """The workload ``name`` for run seed ``seed`` (a non-negative int)."""
    if name not in _MAKERS:
        raise ValueError("unknown workload %r; choose from %s"
                         % (name, ", ".join(WORKLOADS)))
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return _MAKERS[name](seed)


def cli_probe(wl):
    """CLI ops for the traced run of a library workload: run, rates and
    audit on its first solve. The CLI workload's own pass is its probe."""
    if wl.cli_ops:
        return wl.cli_ops
    first = wl.solves[0].name
    return (CliOp("run", first), CliOp("rates", first), CliOp("audit", first))


def build_inputs(wl):
    """Experiments and audit setups through the library; this is the work
    the ``setup_s`` metric times, together with ``import gnewton``."""
    from gnewton.config import build_audit_setup, build_experiment
    experiments = [build_experiment(s.config) for s in wl.solves]
    audits = [build_audit_setup(cfg) for cfg in wl.audits]
    return experiments, audits
