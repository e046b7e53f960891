"""Closed-form sector kernel for exp, phi1 and phi2 of the symbol, and the
exact grid propagator built on it.

Per mode, M splits (see symbol.py) into the magnetic heat block, the
longitudinal (u, w) pair along the coupling wavevector x, and the
transverse block A = [[-a, C], [C, -b]], a = (mu+chi)|xi|^2,
b = gamma|xi|^2 + 2chi, whose coupling C = i chi R3(x) obeys
C^2 = chi^2 |x|^2.  So f(tA) = alpha I + beta A, the Lagrange interpolant
on the eigenvalues lam- <= lam+ <= 0 (Higham, Functions of Matrices,
ch. 1), with beta = t f[t lam+, t lam-] and alpha = f(t lam+) - beta lam+.
No divided difference divides by the gap, so coincident eigenvalues need
no branch: exp[x, y] = e^x phi1(y - x) anchored at x = t lam+, and
phi_k[x, y] = (phi_{k-1}[x, y] - phi_k(y)) / x with x = t lam-, or a
Taylor series when both nodes are small.

phi1(x) = (e^x - 1)/x and phi2(x) = (e^x - 1 - x)/x^2 (Cox & Matthews
2002).  phi1 goes through expm1 (no cancellation); phi2(x) = phi1[0, x]
is the same divided difference.

Both take and return one array with z = (u, w, b) on a leading axis of 9.
A kernel takes the layout of the wavevectors it is built on: (9, n_r) on
the radial nodes, half spectra (9, n, n, n//2 + 1) on the grid's.  The
grid propagator holds one kernel, on the 2/3-rule retained block
(9, 2c + 1, 2c + 1, c + 1) (see :mod:`mmplab.grid`), the one layout the
time stepper advances, and raises ContractViolation on any other shape;
its spectral radius is read from that kernel's rates.

An apply at a scalar time with cache=True keeps its weight table (the
five per-mode weights of the sector and the magnetic factor) on the kernel
under (t, kind) and reuses it at the next such call: the stepper's applies
at a fixed step size evaluate their weights once.  drop_weights forgets
them.  Array times and uncached calls evaluate the weights every time.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from . import grid as _grid
from .fields import Grid, PhysParams, check_retained


def phi1(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 1.0, np.expm1(x) / x)


def phi2(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _divided_difference("phi1", np.zeros_like(x), x)[1]  # phi1[0, x]


_WEIGHTS = {"exp": np.exp, "phi1": phi1, "phi2": phi2}
_ORDER = {"exp": 0, "phi1": 1, "phi2": 2}


def sector_eigenvalues(a, b, c2):
    """Eigenvalues lam- <= lam+ <= 0 of [[-a, c], [c, -b]] with c^2 = c2;
    lam+ comes from the determinant, accurate where |lam+| << |lam-|."""
    lam_lo = -0.5 * (a + b) - np.sqrt((0.5 * (a - b)) ** 2 + c2)
    lam_hi = np.divide(a * b - c2, lam_lo, out=np.zeros_like(lam_lo), where=lam_lo < 0)
    return lam_lo, lam_hi


def _phi_series(k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """phi_k[x, y] = sum_j h_j(x, y) / (j + k + 1)!, h_j complete symmetric;
    12 terms reach 1e-18 for |x|, |y| < 0.2."""
    h, power = np.ones_like(x), np.ones_like(y)
    total = h / factorial(k + 1)
    for j in range(1, 12):
        power = power * y
        h = x * h + power
        total += h / factorial(j + k + 1)
    return total


def _divided_difference(kind: str, hi: np.ndarray, lo: np.ndarray):
    """(f(hi), f[hi, lo]) for lo <= hi <= 0, exact at hi == lo."""
    f_hi = np.exp(hi)
    dd = f_hi * phi1(lo - hi)
    small = np.abs(lo) < 0.2
    for k in range(1, _ORDER[kind] + 1):
        f_hi = _WEIGHTS[f"phi{k}"](hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            dd = np.asarray((dd - f_hi) / lo)
        dd[small] = _phi_series(k, lo[small], hi[small])
    return f_hi, dd


def check_times(t) -> np.ndarray:
    """t as an array; raises ValueError unless every time is finite and
    nonnegative."""
    times = np.asarray(t)
    bad = times[~((0 <= times) & (times < np.inf))]  # NaN fails both
    if bad.size:
        raise ValueError(f"propagation time must be finite and nonnegative, got {bad[0]}")
    return times


class SectorKernel:
    """f(tM) applied to z = (u, w, b) in closed form at every mode.

    coupling carries the wavevector of the sign-carrying terms, shape
    (3, ...); xi_sq the |xi|^2 of the dissipation, shape (...).  Vector
    fields have the component axis first.
    """

    def __init__(self, coupling: np.ndarray, xi_sq: np.ndarray, params: PhysParams):
        # the rotational coupling enters as the cross product v x (chi coupling)
        self.rot = params.chi * coupling
        q2 = (coupling ** 2).sum(axis=0)
        # unit vector of the longitudinal pair; 1/q2 would overflow for
        # subnormal q2, where the pair's weights equal the transverse ones
        self.direction = np.divide(coupling, np.sqrt(q2), out=np.zeros_like(coupling),
                                   where=q2 > 0)
        # the transverse block's diagonal, and the decay rates of the
        # longitudinal w and of b
        self.a = (params.mu + params.chi) * xi_sq
        self.b = params.gamma * xi_sq + 2.0 * params.chi
        self.lam_w_long, self.lam_mag = -(self.b + q2), -params.nu * xi_sq
        self.lam_lo, self.lam_hi = sector_eigenvalues(self.a, self.b, params.chi ** 2 * q2)
        self.tables: dict[tuple[float, str], tuple[np.ndarray, ...]] = {}

    def apply(self, z: np.ndarray, t, kind: str = "exp", cache: bool = False) -> np.ndarray:
        """f(tM) z for z = (u, w, b) stacked on a leading axis of 9.

        t is a scalar or an array of times that broadcasts against the
        kernel arrays (say shape (n_t, 1) on a kernel built with a leading
        time axis of 1); the result has the broadcast shape of z and the
        weights.  Every time must be finite and nonnegative.  At a scalar
        time, with z shaped like the kernel, the kernel's first axis is
        split across the workers (grid.slab_map), and cache=True takes the
        weights from self.tables, filled here on a miss before the groups
        start, so no group writes to it.
        """
        if check_times(t).ndim or z.shape[1:] != self.a.shape:
            return self._combine(z, self.weights(t, kind), ...)  # stays whole
        table = None
        if cache:
            key = (float(t), kind)
            if key not in self.tables:
                self.tables[key] = self.weights(t, kind)
            table = self.tables[key]
        out = np.empty(z.shape, dtype=complex)

        def fill(sl):
            weights = self.weights(t, kind, sl) if table is None else [w[sl] for w in table]
            self._combine(z[:, sl], weights, sl, out[:, sl])

        _grid.slab_map(fill, self.a.shape)
        return out

    def weights(self, t, kind: str, sl=...) -> tuple[np.ndarray, ...]:
        """The weight table of f(tM) on the kernel's modes [sl] (a slice of
        the first axis, or ..., every mode): the transverse and longitudinal
        weights of u and of w, i beta and the magnetic factor."""
        a, b, lam_hi = self.a[sl], self.b[sl], self.lam_hi[sl]
        f = _WEIGHTS[kind]
        f_hi, dd = _divided_difference(kind, t * lam_hi, t * self.lam_lo[sl])
        beta = t * dd
        alpha = f_hi - beta * lam_hi
        u_t = alpha - beta * a
        w_t = alpha - beta * b
        return (u_t, w_t, f(-t * a) - u_t, f(t * self.lam_w_long[sl]) - w_t, 1j * beta,
                f(t * self.lam_mag[sl]))

    def _combine(self, z, weights, sl, out=None) -> np.ndarray:
        """f(tM) z on the kernel's modes [sl] from their weight table, for z
        already cut to those modes; writes into out, or into a new array of
        the broadcast shape."""
        u_t, w_t, u_l, w_l, c, mag = weights
        d, q = self.direction[:, sl], self.rot[:, sl]
        u, w = z[0:3], z[3:6]
        if out is None:
            out = np.empty(np.broadcast_shapes(z.shape, (9,) + c.shape), dtype=complex)
        for o, x, y, x_t, x_l in ((out[0:3], u, w, u_t, u_l), (out[3:6], w, u, w_t, w_l)):
            np.multiply(x_t, x, out=o)
            o += x_l * (d * x).sum(0) * d
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                o[i] += c * (y[j] * q[k] - y[k] * q[j])
        np.multiply(mag, z[6:9], out=out[6:9])
        return out


class GridPropagator:
    """Sector-kernel propagator for one (grid, params) pair, on the grid's
    retained block."""

    def __init__(self, grid: Grid, params: PhysParams):
        self.grid = grid
        self.retained_kernel = SectorKernel(grid.retained.xi_odd, grid.retained.xi_sq, params)

    @property
    def spectral_radius(self) -> float:
        """Largest decay rate over the retained block, the modes the run
        advances."""
        k = self.retained_kernel
        return float(max(-k.lam_lo.min(), -k.lam_w_long.min(), -k.lam_mag.min()))

    def apply(self, z: np.ndarray, t: float, kind: str = "exp",
              cache: bool = False) -> np.ndarray:
        """Apply exp(tM), phi1(tM) or phi2(tM) to a retained block
        (9, 2c + 1, 2c + 1, c + 1) (see SectorKernel.apply for cache);
        raises ContractViolation on any other shape, before any work."""
        return self.retained_kernel.apply(check_retained(self.grid, z), t, kind, cache)

    def drop_weights(self) -> None:
        """Forget the cached weight tables."""
        self.retained_kernel.tables.clear()


def get_propagator(grid: Grid, params: PhysParams) -> GridPropagator:
    """Propagator for a grid and parameter set; a build takes milliseconds."""
    return GridPropagator(grid, params)
