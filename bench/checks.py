"""Output checks made apart from fracmom's solver path.

Each check takes the configuration document and the records of one or
more rounds (for each round, a dict from subcommand to its records, each
record a dict with "kind" and "payload") and returns a list of failure
messages; an empty list means the records pass.  Realizations come from
fracmom's model layer, so the oracles see the same operators; every
solve, singular value, eigensolve and count is recomputed here with
other code: banded and sparse LU solves, SVDs, dense eigensolvers.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from fracmom.config import parse_config

# Block norms come from a power iteration stopped at 1e-8 relative
# (fracmom's power_rtol) on residual-verified direct solves, so a mean of
# m^s with s < 1 is good to 1e-8 relative, down to the deepest rung.
NORM_RTOL = 1e-8
# Correlators come from a dense eigh of the same matrix; eigenvector
# rounding is far below this.
CORRELATOR_RTOL = 1e-8
# The criterion factor is a product of six powers; only rounding differs.
FACTOR_RTOL = 1e-12
# Rounding slack for the inequalities that must hold exactly.
INEQ_SLACK = 1e-12


def sample_seed(master_seed, index):
    """Seed of sample `index`, derived as fracmom's sampler documents it."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _model(doc):
    return parse_config(doc, env={}).model


def _points(doc):
    g = doc["model"]["grid"]
    h = float(g["h"])
    axes = [h * np.arange(1, int(round(b / h))) for b in g["box"]]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _ball(points, center, radius, inner=0.0):
    dist = np.linalg.norm(points - np.asarray(center, dtype=float), axis=1)
    sel = dist < radius
    if inner > 0.0:
        sel &= dist > inner
    return np.flatnonzero(sel)


def _ladder_points(run):
    out = []
    for dist in run["ladder"]:
        y = [float(c) for c in run["x0"]]
        y[run.get("axis", 0)] += dist
        out.append(y)
    return out


def _top_sv(block):
    return float(scipy.linalg.svdvals(block)[0])


def _close(value, ref, rtol=0.0, atol=0.0):
    return abs(value - ref) <= atol + rtol * abs(ref)


def _by_kind(records, kind):
    return [r["payload"] for r in records if r["kind"] == kind]


def _count(failures, where, got, expected):
    if got != expected:
        failures.append(f"{where}: {got} records, expected {expected}")
        return False
    return True


# ---------------------------------------------------------------------------
# chain-moments and chain-pool

def chain_oracle(doc):
    """Block norms per sample by banded solves and SVDs.

    Returns {(E, eps): (N,) norms} for the X-Y pair and
    {(E, eps): (N, rungs) norms} for the decay ladder at the last eps.
    """
    run = doc["run"]
    model = _model(doc)
    pts = _points(doc)
    X = _ball(pts, run["x0"], run["radius"])
    Y = _ball(pts, run["y0"], run["radius"])
    rungs = [_ball(pts, y, run["radius"]) for y in _ladder_points(run)]
    cols = np.unique(np.concatenate([Y, *rungs]))
    where = {int(c): k for k, c in enumerate(cols)}
    last = run["eps"][-1]
    pair, ladder = {}, {}
    for E in run["E"]:
        for eps in run["eps"]:
            pair[(E, eps)] = np.empty(run["N"])
        ladder[(E, last)] = np.empty((run["N"], len(rungs)))
    for i in range(run["N"]):
        A = model.hamiltonian_for_seed(
            sample_seed(run["master_seed"], i)).entries
        n = A.shape[0]
        diag = A.diagonal().astype(complex)
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = A.diagonal(1)
        ab[2, :-1] = A.diagonal(-1)
        rhs = np.zeros((n, cols.size), dtype=complex)
        rhs[cols, np.arange(cols.size)] = 1.0
        for (E, eps), out in pair.items():
            ab[1] = diag - complex(E, eps)
            G = scipy.linalg.solve_banded((1, 1), ab, rhs)
            out[i] = _top_sv(G[np.ix_(X, [where[int(c)] for c in Y])])
            if eps == last:
                for k, Yk in enumerate(rungs):
                    ladder[(E, eps)][i, k] = _top_sv(
                        G[np.ix_(X, [where[int(c)] for c in Yk])])
    return pair, ladder


def check_chain(doc, rounds, oracle=None):
    """Means against the banded oracle, the power-mean inequality, stderr."""
    run = doc["run"]
    pair, ladder = oracle if oracle is not None else chain_oracle(doc)
    failures = []
    n_pair = len(run["s"]) * len(run["E"]) * len(run["eps"])
    n_fit = len(run["s"]) * len(run["E"])
    for r, steps in enumerate(rounds):
        for step in ("moment", "epsilon-scan"):
            recs = _by_kind(steps[step], "moment")
            if not _count(failures, f"round {r} {step}", len(recs), n_pair):
                continue
            means = {}
            for p in recs:
                ref = float(np.mean(pair[(p["E"], p["eps"])] ** p["s"]))
                if not _close(p["mean"], ref, rtol=NORM_RTOL):
                    failures.append(
                        f"round {r} {step} s={p['s']} E={p['E']} "
                        f"eps={p['eps']}: mean {p['mean']!r}, oracle {ref!r}")
                if not p["stderr"] <= p["mean"] * (1 + INEQ_SLACK):
                    failures.append(f"round {r} {step}: stderr > mean")
                means[(p["s"], p["E"], p["eps"])] = p["mean"]
            failures += _power_means(f"round {r} {step}", means)
        fits = _by_kind(steps["decay"], "fit")
        if not _count(failures, f"round {r} decay", len(fits), n_fit):
            continue
        means = {}
        for p in fits:
            ref = (ladder[(p["E"], p["eps"])] ** p["s"]).mean(axis=0)
            if not _count(failures, f"round {r} decay points",
                          len(p["points"]), len(run["ladder"])):
                continue
            for k, pt in enumerate(p["points"]):
                if not _close(pt["mean"], float(ref[k]), rtol=NORM_RTOL):
                    failures.append(
                        f"round {r} decay s={p['s']} E={p['E']} "
                        f"dist={pt['dist']}: mean {pt['mean']!r}, "
                        f"oracle {float(ref[k])!r}")
                if not pt["stderr"] <= pt["mean"] * (1 + INEQ_SLACK):
                    failures.append(f"round {r} decay: stderr > mean")
                means[(p["s"], p["E"], pt["dist"])] = pt["mean"]
        failures += _power_means(f"round {r} decay", means)
    return failures


def _power_means(where, means):
    """(mean m^a)^(1/a) <= (mean m^b)^(1/b) for a < b on common samples."""
    failures = []
    for (s, *rest), m in means.items():
        for (t, *other), n in means.items():
            if s < t and rest == other:
                if not m ** (1 / s) <= n ** (1 / t) * (1 + INEQ_SLACK):
                    failures.append(
                        f"{where} at {tuple(rest)}: power means decrease "
                        f"from s={s} to s={t}")
    return failures


# ---------------------------------------------------------------------------
# plane-gauge

def _transposed_lu(A, z):
    M = (A.T - z * scipy.sparse.identity(A.shape[0])).tocsc()
    return scipy.sparse.linalg.splu(M.astype(complex),
                                    permc_spec="MMD_AT_PLUS_A")


def _row_block(lu, n, rows):
    # W = (H - z)^-T e_rows, so R[rows, cols] = W[cols, :]^T
    rhs = np.zeros((n, rows.size), dtype=complex)
    rhs[rows, np.arange(rows.size)] = 1.0
    return lu.solve(rhs)


def plane_oracle(doc):
    """Ladder and Dirichlet-ball boundary norms by sparse LU and SVD.

    Returns ((N, rungs) ladder norms at the last eps,
             {alpha: (N, len(eps)) boundary-layer norms}).
    """
    run = doc["run"]
    depth = doc["constants"]["depth"]
    r = doc["model"]["profile"]["r"]
    L = run["L"]
    model = _model(doc)
    pts = _points(doc)
    X = _ball(pts, run["x0"], run["radius"])
    rungs = [_ball(pts, y, run["radius"]) for y in _ladder_points(run)]
    balls = {}
    for alpha in run["alphas"]:
        ball = _ball(pts, alpha, L)
        local = pts[ball]
        balls[tuple(alpha)] = (ball, _ball(local, alpha, r),
                               _ball(local, alpha, L - r, inner=L - depth))
    ladder = np.empty((run["N"], len(rungs)))
    layer = {a: np.empty((run["N"], len(run["eps"]))) for a in balls}
    for i in range(run["N"]):
        A = model.hamiltonian_for_seed(
            sample_seed(run["master_seed"], i)).entries.tocsr()
        z = complex(run["E"][0], run["eps"][-1])
        W = _row_block(_transposed_lu(A, z), A.shape[0], X)
        for k, Yk in enumerate(rungs):
            ladder[i, k] = _top_sv(W[Yk, :].T)
        for alpha, (ball, Xb, Yb) in balls.items():
            Ab = A[ball][:, ball]
            for j, eps in enumerate(run["eps"]):
                lu = _transposed_lu(Ab, complex(run["E"][0], eps))
                layer[alpha][i, j] = _top_sv(
                    _row_block(lu, Ab.shape[0], Xb)[Yb, :].T)
    return ladder, layer


def gauge_free_e0(doc):
    """Lowest Dirichlet eigenvalue of the discrete Laplacian plus V0.

    The diamagnetic inequality makes it a lower bound for any gauge.
    """
    g = doc["model"]["grid"]
    h = float(g["h"])
    v0 = float(doc["model"].get("background", {}).get("V0", 0.0))
    return v0 + sum(4.0 / h ** 2 * math.sin(math.pi * h / (2.0 * b)) ** 2
                    for b in g["box"])


def rayleigh_e0(doc):
    """Upper bound on E0: least Rayleigh quotient over Landau-level trials.

    Trials are a sine across x times a Gaussian of width 1/sqrt(b)
    across y at the box center, with the gauge phase exp(+-i b y_c x).
    Every Rayleigh quotient bounds the smallest eigenvalue from above.
    """
    H0 = _model(doc).h0().entries
    pts = _points(doc)
    box = doc["model"]["grid"]["box"]
    b = float(doc["model"]["background"]["gauge"]["b"])
    x, y = pts[:, 0], pts[:, 1]
    yc = box[1] / 2.0
    base = np.sin(np.pi * x / box[0]) * np.exp(-b * (y - yc) ** 2 / 2.0)
    best = math.inf
    for sign in (1.0, -1.0):
        psi = base * np.exp(1j * sign * b * yc * x)
        best = min(best, float((psi.conj() @ (H0 @ psi)).real
                               / (psi.conj() @ psi).real))
    return best


def check_plane(doc, rounds, oracle=None, e0_bounds=None):
    """Decay and raw moments against sparse LU + SVD, factor, E0, mu."""
    run = doc["run"]
    ladder, layer = oracle if oracle is not None else plane_oracle(doc)
    lo, hi = e0_bounds if e0_bounds is not None else (
        gauge_free_e0(doc), rayleigh_e0(doc))
    s = run["s"][0]
    raw_ref = max(float(np.mean(v[:, -1] ** s)) for v in layer.values())
    decay_ref = (ladder ** s).mean(axis=0)
    failures = []
    for r, steps in enumerate(rounds):
        for p in _by_kind(steps["criterion"], "criterion"):
            if not _close(p["raw_moment"], raw_ref, rtol=NORM_RTOL):
                failures.append(f"round {r} criterion: raw_moment "
                                f"{p['raw_moment']!r}, oracle {raw_ref!r}")
            d = p["d"]
            prefactor = (p["M_const"]
                         * (1.0 + p["lam"]) ** (5.0 * p["s"] * (d + 4))
                         / (1.0 - 3.0 * p["s"])
                         * (1.0 + 1.0 / p["lam"]) ** (2.0 * p["s"])
                         * (1.0 + abs(p["E"] - p["E0"]))
                         ** (5.0 * p["s"] * (d + 2))
                         * (1.0 + p["L"]) ** (2.0 * (d - 1)))
            if not _close(p["factor"], prefactor * p["raw_moment"],
                          rtol=FACTOR_RTOL):
                failures.append(f"round {r} criterion: factor {p['factor']!r}"
                                f" is not prefactor * raw_moment")
            if not lo < p["E0"] < hi:
                failures.append(f"round {r} criterion: E0 {p['E0']!r} "
                                f"outside ({lo!r}, {hi!r})")
        _count(failures, f"round {r} criterion",
               len(_by_kind(steps["criterion"], "criterion")), 1)
        fits = _by_kind(steps["decay"], "fit")
        if not _count(failures, f"round {r} decay", len(fits), 1):
            continue
        fit = fits[0]
        if not fit["mu"] > 0.0:
            failures.append(f"round {r} decay: mu {fit['mu']!r} is not > 0")
        if not _count(failures, f"round {r} decay points",
                      len(fit["points"]), len(run["ladder"])):
            continue
        for k, pt in enumerate(fit["points"]):
            if not _close(pt["mean"], float(decay_ref[k]), rtol=NORM_RTOL):
                failures.append(f"round {r} decay dist={pt['dist']}: mean "
                                f"{pt['mean']!r}, oracle {decay_ref[k]!r}")
    return failures


# ---------------------------------------------------------------------------
# chain-spectra

def spectra_oracle(doc):
    """Per-sample correlators and eigenvalue counts from dense eigh."""
    run = doc["run"]
    model = _model(doc)
    pts = _points(doc)
    a, b = run["window"]
    X = _ball(pts, run["x0"], run["radius"])
    rungs = [_ball(pts, y, run["radius"]) for y in _ladder_points(run)]
    corr = np.empty((run["N"], len(rungs)))
    counts = np.empty((run["N"], len(run["E"])), dtype=np.int64)
    for i in range(run["N"]):
        H = model.hamiltonian_for_seed(
            sample_seed(run["master_seed"], i)).entries.toarray()
        vals, vecs = scipy.linalg.eigh(H)
        inside = vecs[:, (a < vals) & (vals < b)]
        nx = np.linalg.norm(inside[X], axis=0)
        for k, Yk in enumerate(rungs):
            corr[i, k] = float(np.sum(nx * np.linalg.norm(inside[Yk], axis=0)))
        counts[i] = [(vals < E).sum() for E in run["E"]]
    return corr, counts


def check_spectra(doc, rounds, oracle=None):
    """Correlators, exact IDS counts, IDS monotonicity, validate verdicts."""
    run = doc["run"]
    corr, counts = oracle if oracle is not None else spectra_oracle(doc)
    volume = float(np.prod(doc["model"]["grid"]["box"]))
    corr_ref = corr.mean(axis=0)
    failures = []
    for r, steps in enumerate(rounds):
        recs = _by_kind(steps["correlator"], "correlator")
        if _count(failures, f"round {r} correlator", len(recs),
                  len(run["ladder"])):
            for k, p in enumerate(recs):
                if not _close(p["value"], float(corr_ref[k]),
                              rtol=CORRELATOR_RTOL):
                    failures.append(
                        f"round {r} correlator dist={p['dist']}: "
                        f"{p['value']!r}, oracle {corr_ref[k]!r}")
        recs = _by_kind(steps["ids"], "ids")
        if _count(failures, f"round {r} ids", len(recs), len(run["E"])):
            for k, p in enumerate(recs):
                ref = float(counts[:, k].mean() / volume)
                if p["ids"] != ref:
                    failures.append(f"round {r} ids E={p['E']}: {p['ids']!r},"
                                    f" dense count gives {ref!r}")
            values = [p["ids"] for p in sorted(recs, key=lambda p: p["E"])]
            if any(b < a for a, b in zip(values, values[1:])):
                failures.append(f"round {r} ids: decreases as E grows")
        recs = _by_kind(steps["validate"], "validation")
        if _count(failures, f"round {r} validate", len(recs),
                  run["n_configs"] + 20):
            bad = [p["name"] for p in recs if not p["passed"]]
            if bad:
                failures.append(f"round {r} validate: failed {bad}")
    return failures


CHECKS = {
    "chain-moments": (chain_oracle, check_chain),
    "chain-pool": (chain_oracle, check_chain),
    "plane-gauge": (plane_oracle, check_plane),
    "chain-spectra": (spectra_oracle, check_spectra),
}
