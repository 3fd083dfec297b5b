"""Discretized random Schrodinger operators on boxes with Dirichlet walls.

The ambient region is the box [0, L_1] x ... x [0, L_d].  Wavefunctions are
pinned to zero on the box boundary, so the unknowns live on the interior
grid points q = (j_1 h, ..., j_d h), 1 <= j_i <= n_i.  The deterministic part
is the standard 2d+1-point Laplacian with edge phases for a vector potential
and a scalar background; the random part is a sum of single-site bumps with
iid couplings, one per lattice site, each coupling a pure function of
(realization seed, site coordinates).
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.spatial

from ._blas import single_blas_thread
from .errors import (
    ConstructionError,
    CoveringError,
    DomainError,
    NonConvergenceError,
)

DENSE_EIG_CAP = 600           # up to this size, the ground energy goes dense
_GROUND_SHIFT_MARGIN = 0.1    # sigma sits this far below the Gershgorin bound
_AXIS_TOL = 1e-9              # box-length / spacing commensurability check
MAX_SITES = 2 ** 20           # largest site lattice a grid may carry

# numpy's SeedSequence pool mixing (after O'Neill's seed_seq_fe) and the
# Philox4x64-10 round constants (Salmon et al., SC'11)
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32 = np.uint64(_M32), np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


# ---------------------------------------------------------------------------
# grid

@dataclass(frozen=True)
class GridSpec:
    """Finite-difference grid over [0, box_1] x ... x [0, box_d].

    Parameters
    ----------
    d : spatial dimension, 1 to 3.
    box : per-axis extents; each must be an integer multiple of h.
    h : grid spacing in the same length units.
    """

    d: int
    box: tuple
    h: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConstructionError(f"dimension must be 1, 2 or 3, got {self.d}")
        box = tuple(float(b) for b in self.box)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "h", float(self.h))
        if len(box) != self.d:
            raise ConstructionError(f"box has {len(box)} extents for d={self.d}")
        if not self.h > 0:
            raise ConstructionError("grid spacing h must be positive")
        for L in box:
            if not math.isfinite(L):
                raise ConstructionError(f"extent {L} is not finite")
            m = L / self.h
            if abs(m - round(m)) > _AXIS_TOL * max(1.0, m):
                raise ConstructionError(
                    f"extent {L} is not an integer multiple of h={self.h}")
            if round(m) - 1 < 3:
                raise ConstructionError(
                    f"extent {L} gives {round(m) - 1} interior points; need >= 3")

    @property
    def shape(self):
        """Interior points per axis."""
        return tuple(int(round(L / self.h)) - 1 for L in self.box)

    @cached_property    # read by set_rows on every block norm
    def npoints(self):
        return math.prod(self.shape)

    @property
    def volume(self):
        return float(np.prod(self.box))

    def interior_point(self, point, name="point"):
        """point as a tuple of d floats, refused unless inside the open box."""
        x = tuple(np.asarray(point, dtype=float).reshape(-1).tolist())
        if len(x) != self.d:
            raise DomainError(f"{name} has {len(x)} coordinates, grid is {self.d}d")
        if not all(0.0 < c < b for c, b in zip(x, self.box)):
            raise DomainError(f"{name} {x} is outside the open box {self.box}")
        return x


@lru_cache(maxsize=64)
def grid_points(grid: GridSpec) -> np.ndarray:
    """All interior grid points as an (npoints, d) array, C-ordered."""
    mesh = np.meshgrid(*(grid.h * np.arange(1, n + 1) for n in grid.shape),
                       indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class IndicatorSet:
    """Grid points within an open ball (or open annulus) around a center.

    `indices` are flat indices into grid_points(grid), sorted ascending.
    inner_radius = 0 means a plain ball.  A set is geometry: the operator
    it is used with decides which of its points are rows (set_rows).
    """

    center: tuple
    radius: float
    indices: np.ndarray
    inner_radius: float = 0.0

    def __len__(self):
        return int(self.indices.size)


def indicator_set(grid, center, radius, inner_radius=0.0):
    """Open-ball (annulus if inner_radius > 0) indicator on the grid.

    Membership uses strict inequalities on the Euclidean distance.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.d,):
        raise DomainError(f"center has shape {center.shape}, expected ({grid.d},)")
    if not radius > 0.0:
        raise DomainError("radius must be positive")
    if inner_radius < 0.0 or inner_radius >= radius:
        raise DomainError("need 0 <= inner_radius < radius")
    dist = np.linalg.norm(grid_points(grid) - center, axis=1)
    sel = dist < radius
    if inner_radius > 0.0:
        sel &= dist > inner_radius
    idx = np.flatnonzero(sel).astype(np.int64)
    center = tuple(center.tolist())
    if idx.size == 0:
        raise DomainError(
            f"indicator around {center} with radius {radius} catches no grid point")
    return IndicatorSet(center=center, radius=float(radius),
                        indices=idx, inner_radius=float(inner_radius))


def lattice_sites(grid: GridSpec) -> np.ndarray:
    """Integer lattice sites inside the closed box, one bump center each.

    At most MAX_SITES, counted before numpy is asked for the lattice.
    """
    tops = [int(math.floor(L + _AXIS_TOL)) for L in grid.box]
    if max(tops) > _M32:  # before numpy is asked for the lattice
        raise ConstructionError(
            "site coordinates must be below 2**32, one spawn-key word each")
    count = math.prod(top + 1 for top in tops)
    if count > MAX_SITES:
        raise ConstructionError(
            f"site lattice of {count} sites is above {MAX_SITES}")
    axes = [np.arange(0, top + 1) for top in tops]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1).astype(np.int64)


# ---------------------------------------------------------------------------
# background fields

@dataclass(frozen=True)
class ConstantScalar:
    value: float

    def __call__(self, q):
        return np.full(len(q), self.value, dtype=float)


@dataclass(frozen=True)
class ConstantVector:
    value: tuple

    def __call__(self, q):
        return np.tile(np.asarray(self.value, dtype=float), (len(q), 1))


@dataclass(frozen=True)
class LandauGauge:
    """A(q) = (-b q_2, 0): uniform magnetic field b, two dimensions only."""

    b: float

    def __call__(self, q):
        return np.stack([-self.b * q[:, 1], np.zeros(len(q))], axis=1)


@dataclass(frozen=True)
class BackgroundFields:
    """Deterministic vector potential A and scalar potential V0.

    Both act on an (n, d) array of points at once.  A returns an (n, d)
    array (None means zero); V0 returns an (n,) array of reals (None means
    zero), finite at every grid point and of either sign.
    """

    A: Callable | None = None
    V0: Callable | None = None


def _field_values(fn, q, shape, name):
    """fn evaluated on the points q, required to have exactly `shape`.

    No broadcasting: a callable written for one point at a time returns
    the wrong shape and is rejected instead of being misread.
    """
    vals = np.asarray(fn(q), dtype=float)
    if vals.shape != shape:
        raise ConstructionError(
            f"{name} returned shape {vals.shape} on {len(q)} points, "
            f"expected {shape}")
    bad = ~np.isfinite(vals.reshape(len(q), -1)).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConstructionError(
            f"{name} is not finite at point {tuple(q[k].tolist())}")
    return vals


# ---------------------------------------------------------------------------
# single-site profile and disorder law

@dataclass(frozen=True)
class SingleSiteProfile:
    """Radial bump U of support radius r and amplitude u0.

    shape "indicator" is u0 on the open ball of radius r; "cosine-bump" is
    u0 * cos^2(pi |q| / 2r) inside the ball.  Both vanish for |q| >= r and
    stay within [0, u0].
    """

    r: float = 1.0
    shape: str = "indicator"
    u0: float = 1.0

    def __post_init__(self):
        if self.shape not in ("indicator", "cosine-bump"):
            raise ConstructionError(f"unknown profile shape {self.shape!r}")
        if not self.r > 0:
            raise ConstructionError("profile radius r must be positive")
        if not self.u0 > 0:
            raise ConstructionError("profile amplitude u0 must be positive")


def profile_values(profile: SingleSiteProfile, dist) -> np.ndarray:
    """Evaluate U at the given distances from the bump center."""
    dist = np.asarray(dist, dtype=float)
    inside = dist < profile.r
    if profile.shape == "indicator":
        return profile.u0 * inside.astype(float)
    vals = np.zeros_like(dist)
    vals[inside] = profile.u0 * np.cos(np.pi * dist[inside] / (2 * profile.r)) ** 2
    return vals


@dataclass(eq=False)
class DisorderLaw:
    """Coupling strength and site lattice of i.i.d. uniform couplings.

    Every site's coupling is uniform on [0, 1).  Site coordinates are
    integers in [0, 2**32), one spawn-key word each.
    """

    lam: float
    sites: np.ndarray

    def __post_init__(self):
        if self.lam < 0:
            raise ConstructionError("disorder strength lambda must be >= 0")
        sites = np.asarray(self.sites, dtype=np.int64)
        if sites.ndim != 2 or len(sites) == 0:
            raise ConstructionError("site lattice must be a nonempty (n, d) array")
        if sites.min() < 0:
            raise ConstructionError("site coordinates must be nonnegative")
        if sites.max() > _M32:
            raise ConstructionError(
                "site coordinates must be below 2**32, one spawn-key word each")
        self.sites = sites


def disorder_law(lam, grid=None, sites=None) -> DisorderLaw:
    """Build a DisorderLaw with sites defaulting to the grid's integer lattice."""
    if sites is None:
        if grid is None:
            raise ConstructionError("either grid or explicit sites required")
        sites = lattice_sites(grid)
    return DisorderLaw(lam=lam, sites=sites)


@dataclass(eq=False)
class DisorderRealization:
    """One sample of the couplings: eta[k] belongs to site sites[k]."""

    seed: int
    sites: np.ndarray
    eta: np.ndarray


def _uint32_words(n):
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence splits it."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _philox_keys(seed, sites):
    """Key of SeedSequence(entropy=seed, spawn_key=site) for every site.

    Returns generate_state(2, uint64) per site as a (2, m) array.  The seed
    words enter the pool first and are mixed in Python ints once; each
    coordinate is one spawn-key word and is mixed in as a uint32 array over
    sites.  The same expressions serve both, as uint32 arrays wrap.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    pool = [np.full(len(sites), w, dtype=np.uint32) for w in pool]
    for axis in range(sites.shape[1]):
        w = sites[:, axis].astype(np.uint32)
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    state = []
    for w in pool:
        w = w ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        w = w * hash_const
        state.append((w ^ w >> 16).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)])


def _mulhilo(b):
    """High and low words of _PHILOX_M * b, 64 x 64 -> 128 bits, per row."""
    b_lo, b_hi = b & _LO32, b >> _S32
    mid1 = _PHILOX_M_HI * b_lo + (_PHILOX_M_LO * b_lo >> _S32)
    mid2 = _PHILOX_M_LO * b_hi + (mid1 & _LO32)
    return _PHILOX_M_HI * b_hi + (mid1 >> _S32) + (mid2 >> _S32), _PHILOX_M * b


def sample_couplings(law: DisorderLaw, seed: int) -> DisorderRealization:
    """Draw one iid uniform coupling per site, a pure function of (seed, site).

    Each site gets its own counter-based stream keyed by the site's integer
    coordinates, so the draw does not depend on lattice enumeration order or
    on which other sites exist.  The coupling of a site is bit for bit
    Generator(Philox(SeedSequence(seed, spawn_key=site))).random(): word 0
    of the Philox4x64-10 block at counter 1, computed for all sites at once.
    """
    seed = int(seed)
    if seed < 0:
        raise ConstructionError("seed must be a nonnegative integer")
    key = _philox_keys(seed, law.sites)
    # counter words (c0, c2), the multiplied pair, and (c1, c3); start (1, 0, 0, 0)
    mul = np.zeros_like(key)
    mul[0] = 1
    xor = np.zeros_like(key)
    for rnd in range(10):
        if rnd:
            key += _PHILOX_W
        hi, lo = _mulhilo(mul)
        mul, xor = hi[::-1] ^ xor ^ key, lo[::-1]
    eta = (mul[0] >> np.uint64(11)) * 2.0 ** -53
    return DisorderRealization(seed=seed, sites=law.sites, eta=eta)


# ---------------------------------------------------------------------------
# random potential

@lru_cache(maxsize=2)
def _bump_matrix(grid: GridSpec, profile: SingleSiteProfile, law: DisorderLaw):
    """Sparse P with P[q, a] = U(q - site a), so that V = P @ eta.

    One KD-tree neighbor query finds every (grid point, site) pair within
    r; the tree's kernel sums dist^2 axis by axis from 0.0, and zero values
    are dropped.  Each row keeps its columns in site order, so the CSR
    matvec sums a grid point's bumps from 0.0 in site order.  The cache is
    small because each entry keeps its law and matrix alive, and a run
    samples one model at a time.
    """
    # "coo_matrix" keeps the zero-distance pair of a site on a grid point;
    # "dok_matrix" would drop it
    P = scipy.spatial.cKDTree(grid_points(grid)).sparse_distance_matrix(
        scipy.spatial.cKDTree(law.sites), profile.r, output_type="coo_matrix")
    P.data = profile_values(profile, P.data)
    P = P.tocsr()
    P.eliminate_zeros()
    P.sort_indices()
    return P


def check_covering(profile: SingleSiteProfile, law: DisorderLaw, grid: GridSpec):
    """Min and max over grid points of the total bump coverage sum_a U(q - a).

    A vanishing minimum means some grid point is unreachable by disorder and
    raises CoveringError.  Config parsing runs it on every model, so P is
    built there and the first realization finds it cached.
    """
    cover = _bump_matrix(grid, profile, law) @ np.ones(len(law.sites))
    b_minus = float(cover.min())
    b_plus = float(cover.max())
    if b_minus <= 0.0:
        worst = grid_points(grid)[int(np.argmin(cover))]
        raise CoveringError(
            f"covering violated: grid point {tuple(worst.tolist())} has zero "
            "bump coverage")
    return b_minus, b_plus


def realize_potential(rz: DisorderRealization, profile, law, grid) -> np.ndarray:
    """Random potential V(q) = sum_a eta_a U(q - a) on the full grid."""
    if rz.sites.shape != law.sites.shape or not np.array_equal(rz.sites, law.sites):
        raise ConstructionError("realization sites do not match the law's lattice")
    return _bump_matrix(grid, profile, law) @ rz.eta


# ---------------------------------------------------------------------------
# Hamiltonians

def _stored_pattern(entries):
    """entries as sorted CSR with every diagonal slot stored, and its slots.

    entries.data[slots[i]] is the stored (i, i) entry.  A missing
    diagonal entry is inserted once as an explicit zero, so a diagonal
    update never meets a second code path.  A pattern that is
    not symmetric cannot be Hermitian entry by entry and is refused.
    """
    A = scipy.sparse.csr_matrix(entries)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ConstructionError(f"operator entries must be square, got {A.shape}")
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    on_diag = A.indices == rows
    if np.count_nonzero(on_diag) < n:     # no duplicates: one slot per row
        missing = np.setdiff1d(np.arange(n), rows[on_diag])
        coo = A.tocoo()
        A = scipy.sparse.csr_matrix(
            (np.concatenate([coo.data, np.zeros(missing.size, dtype=A.dtype)]),
             (np.concatenate([coo.row, missing]),
              np.concatenate([coo.col, missing]))), shape=A.shape)
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        on_diag = A.indices == rows
    transpose = np.lexsort((rows, A.indices))
    if not (np.array_equal(A.indices[transpose], rows)
            and np.array_equal(rows[transpose], A.indices)):
        raise ConstructionError(
            "operator pattern is not symmetric: a Hermitian operator stores "
            "(i, j) exactly when it stores (j, i)")
    return A, np.flatnonzero(on_diag)


def bandwidths(entries):
    """(kl, ku): how far a CSR pattern reaches below and above its diagonal.

    Read off the stored pattern, explicit zeros included, so every
    realization and shift of H0 has H0's bandwidths.
    """
    n = entries.shape[0]
    off = entries.indices - np.repeat(np.arange(n), np.diff(entries.indptr))
    return -int(off.min(initial=0)), int(off.max(initial=0))


def component_labels(entries):
    """Connected-component label of each row of a stored CSR pattern."""
    # imported here: csgraph adds about 1 MiB to a process's peak RSS, and
    # only an underflowed block norm or a ladder on a domain needs it
    from scipy.sparse.csgraph import connected_components
    return connected_components(entries, directed=False)[1]


@dataclass(eq=False)
class DiscreteHamiltonian:
    """Hermitian sparse operator on the active grid points.

    mask holds the sorted global grid indices that remain after Dirichlet
    restriction; entries is the principal submatrix on those points.  The
    matrix is immutable by convention; e0 caches the ground energy.

    entries is a sorted CSR matrix with a symmetric pattern and a stored
    diagonal entry in every row, exact zeros included; diagonal holds the
    slots of those entries in entries.data.  Both are settled once, when
    H0 is assembled or restricted (or a hand-built matrix is given: a
    missing diagonal slot is inserted then).  A realization and a shift
    H - z differ from H0 only on the diagonal, so they copy entries.data,
    update it at the diagonal slots and share the index arrays and the
    slots; only such operators pass diagonal in.
    """

    grid: GridSpec
    entries: scipy.sparse.csr_matrix
    mask: np.ndarray
    e0: float | None = None
    diagonal: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.diagonal is None:
            self.entries, self.diagonal = _stored_pattern(self.entries)

    @property
    def n(self):
        return len(self.mask)

    def dense(self) -> np.ndarray:
        return self.entries.toarray()


def set_rows(sel, mask, npoints, name):
    """Sorted rows of an operator on `mask` (its sorted global indices).

    sel is an IndicatorSet or any array of global indices into a grid of
    npoints.  Duplicates merge and points outside the domain drop.  An
    empty set, an index outside [0, npoints) and a set with no point in
    the domain are refused with DomainError.
    """
    idx = (sel.indices if isinstance(sel, IndicatorSet)   # sorted and unique
           else np.unique(np.asarray(sel, dtype=np.int64)))
    if idx.size == 0:
        raise DomainError(f"{name} is empty")
    if idx[0] < 0 or idx[-1] >= npoints:
        raise DomainError(f"{name} has an index outside [0, {npoints})")
    pos = np.searchsorted(mask, idx)
    pos = pos[mask[np.minimum(pos, mask.size - 1)] == idx]
    if pos.size == 0:
        raise DomainError(f"{name} has no point inside the operator domain")
    return pos


def assemble_h0(grid: GridSpec, bg: BackgroundFields) -> DiscreteHamiltonian:
    """Deterministic part: 2d+1-point Laplacian with edge phases plus V0.

    Diagonal entries are 2d/h^2 + V0(q), each one stored, an exact zero
    too.  The edge from q to q' = q + h e_i carries the hopping
    H[q', q] = -exp(-i theta)/h^2 with theta the midpoint rule for the line
    integral of A along the edge, and the reverse entry is the conjugate,
    so the matrix is Hermitian entry by entry.
    """
    pts = grid_points(grid)
    n = len(pts)
    h = grid.h
    v0 = np.zeros(n) if bg.V0 is None else _field_values(bg.V0, pts, (n,), "V0")
    idx = np.arange(n).reshape(grid.shape)
    rows, cols, vals = [], [], []
    any_phase = False
    for axis in range(grid.d):
        sl_lo = [slice(None)] * grid.d
        sl_hi = [slice(None)] * grid.d
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        left = idx[tuple(sl_lo)].ravel()
        right = idx[tuple(sl_hi)].ravel()
        if bg.A is None:
            theta = np.zeros(len(left))
        else:
            mids = (pts[left] + pts[right]) / 2.0
            a = _field_values(bg.A, mids, mids.shape, "A")
            theta = h * a[:, axis]
        if np.any(theta != 0.0):
            any_phase = True
        hop = -np.exp(-1j * theta) / h ** 2
        rows.append(right)
        cols.append(left)
        vals.append(hop)
        rows.append(left)
        cols.append(right)
        vals.append(np.conj(hop))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    if not any_phase:
        vals = vals.real
    off = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n))
    diag = scipy.sparse.diags(2 * grid.d / h ** 2 + v0)
    H = (off + diag).tocsr()
    if not np.isfinite(H.data).all():
        raise ConstructionError(f"H0's entries overflow at h = {h}")
    return DiscreteHamiltonian(grid=grid, entries=H, mask=np.arange(n, dtype=np.int64))


def assemble_hamiltonian(h0: DiscreteHamiltonian, potential, lam) -> DiscreteHamiltonian:
    """H = H0 + lam * diag(potential), potential given on the full grid.

    The realization copies H0's stored entries, adds lam * potential at
    the diagonal slots and shares H0's index arrays and slots, so every
    diagonal slot stays stored, exact zeros included.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (h0.grid.npoints,):
        raise ConstructionError(
            f"potential has shape {potential.shape}, expected ({h0.grid.npoints},)")
    if lam < 0:
        raise ConstructionError("coupling lambda must be >= 0")
    if lam == 0:
        return h0
    ent = h0.entries
    data = ent.data.astype(np.result_type(ent.dtype, potential.dtype))
    diag = data[h0.diagonal] + lam * potential[h0.mask]
    if not np.isfinite(diag).all():
        raise ConstructionError(
            f"the diagonal of H0 + lam * V is not finite at lam = {lam}")
    data[h0.diagonal] = diag
    ent = scipy.sparse.csr_matrix((data, ent.indices, ent.indptr), shape=ent.shape)
    return DiscreteHamiltonian(grid=h0.grid, entries=ent, mask=h0.mask,
                               diagonal=h0.diagonal)


def restrict_dirichlet(H: DiscreteHamiltonian, mask) -> DiscreteHamiltonian:
    """Principal submatrix on the given global indices (Dirichlet restriction)."""
    mask = np.unique(np.asarray(mask, dtype=np.int64))
    if len(mask) == 0:
        raise ConstructionError("Dirichlet restriction to an empty mask")
    pos = np.searchsorted(H.mask, mask)
    if pos[-1] >= H.n or not np.array_equal(H.mask[pos], mask):
        raise ConstructionError("indices not contained in the active mask")
    sub = H.entries[pos][:, pos].tocsr()
    return DiscreteHamiltonian(grid=H.grid, entries=sub, mask=mask)


def ground_energy(H: DiscreteHamiltonian) -> float:
    """Smallest eigenvalue, cached on the operator.

    Dense solve up to DENSE_EIG_CAP points.  Above it, shift-invert Lanczos
    at sigma = g - _GROUND_SHIFT_MARGIN, where g = min_i(H_ii - sum_j|H_ij|)
    is the Gershgorin lower bound: H - sigma I is then strictly diagonally
    dominant, so its factorization meets no singular pivot and every
    eigenvalue lies above sigma, which makes the largest eigenvalue of the
    inverse the bottom of the spectrum.  H - sigma I is factored once by
    SuperLU, ordered by minimum degree on its symmetric pattern, and every
    Lanczos step solves on that factor.  Relative accuracy 1e-8 or better
    either way.

    Both branches run on one OpenBLAS thread (the caller's count is
    restored on return), and the Lanczos start vector is fixed, so a given
    operator yields the same float in every call and process, whatever
    the core count or OPENBLAS_NUM_THREADS.
    """
    if H.e0 is not None:
        return H.e0
    with single_blas_thread():
        if H.n <= DENSE_EIG_CAP:
            e0 = float(scipy.linalg.eigvalsh(H.dense())[0])
        else:
            A = H.entries
            diag = A.diagonal().real
            radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
            sigma = float(np.min(diag - radius)) - _GROUND_SHIFT_MARGIN
            # the pattern of H - sigma is symmetric, so a minimum-degree
            # ordering of it fills far less than COLAMD's
            lu = scipy.sparse.linalg.splu(
                (A - sigma * scipy.sparse.eye(H.n, format="csr")).tocsc(),
                permc_spec="MMD_AT_PLUS_A")
            inverse = scipy.sparse.linalg.LinearOperator(
                A.shape, matvec=lu.solve, dtype=A.dtype)
            try:
                vals = scipy.sparse.linalg.eigsh(
                    A, k=1, sigma=sigma, which="LM", OPinv=inverse,
                    v0=np.linspace(0.5, 1.5, H.n), tol=1e-10,
                    return_eigenvectors=False)
            except scipy.sparse.linalg.ArpackNoConvergence as exc:
                raise NonConvergenceError(
                    f"ground energy iteration failed: {exc}") from exc
            e0 = float(vals[0])
    H.e0 = e0
    return e0


# ---------------------------------------------------------------------------
# bundled model

@dataclass(eq=False)
class ModelConfig:
    """Grid, background, bump profile and disorder law for one ensemble.

    domain, if given, holds the global grid indices of a Dirichlet
    subdomain: H0 is restricted to it once, and every realization is
    assembled on it directly.  None means the whole box.
    """

    grid: GridSpec
    background: BackgroundFields
    profile: SingleSiteProfile
    law: DisorderLaw
    domain: np.ndarray | None = None

    def __post_init__(self):
        self._h0 = None

    def h0(self) -> DiscreteHamiltonian:
        if self._h0 is None:
            h0 = assemble_h0(self.grid, self.background)
            if self.domain is not None:
                h0 = restrict_dirichlet(h0, self.domain)
            self._h0 = h0
        return self._h0

    def on_domain(self, domain) -> "ModelConfig":
        """The same ensemble on a Dirichlet subdomain of this model's domain.

        Its H0 is restricted from this model's cached H0, so a scan over
        many balls assembles the box once.
        """
        sub = replace(self, domain=domain)
        sub._h0 = restrict_dirichlet(self.h0(), domain)
        return sub

    def sample(self, seed) -> DisorderRealization:
        return sample_couplings(self.law, seed)

    def hamiltonian(self, rz: DisorderRealization) -> DiscreteHamiltonian:
        v = realize_potential(rz, self.profile, self.law, self.grid)
        return assemble_hamiltonian(self.h0(), v, self.law.lam)

    def hamiltonian_for_seed(self, seed) -> DiscreteHamiltonian:
        return self.hamiltonian(self.sample(seed))

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_h0"] = None  # rebuilt lazily in workers; keeps pickles small
        return state

