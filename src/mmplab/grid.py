"""Periodic box, spectral transforms and wavevector bookkeeping.

Spectral coefficients follow the Fourier-series convention: the forward
transform carries the 1/n^3 factor, so a physical field is reconstructed as
f(x) = sum_k fhat(k) exp(i xi_k . x) with xi_k = (2 pi / L) k and integer
k in [-n/2, n/2) per axis.  With this normalization Parseval reads
int |f|^2 dx = L^3 sum_k |fhat(k)|^2, which is what every norm in the
package uses.

Every field is real, so its spectrum is conjugate-symmetric,
fhat(-k) = conj(fhat(k)), and only the half spectrum of the real transform
is stored: the kz = 0 .. n/2 planes, shape (n, n, n//2 + 1), the first
n//2 + 1 planes of the full FFT-ordered array.  Reality holds by
construction.  Sums over all modes count each stored mode with its
Parseval multiplicity: the kz = 0 and kz = n/2 planes hold their own
conjugate partners and count once, every other plane stands for itself
and its missing partner and counts twice.  Full spectra appear only at
the edges: shaped random data pair each stored mode k with the draw at
-k, and snapshots are expanded on write, one component at a time into one
reused array, and sliced on read (:func:`full_spectrum`, which fills the
missing planes from slice views of the stored ones and makes no other
copy).

The 2/3 rule (Orszag 1971) retains the modes with every |k_i| <= c,
c = n // 3: about 30% of the half spectrum.  Grid.truncate gathers them
into the retained block, shape (2c + 1, 2c + 1, c + 1), from four slice
blocks of the half spectrum (k_x and k_y each run 0 .. c, then -c .. -1;
k_z runs 0 .. c), and Grid.pad scatters a block back with zeros
elsewhere.  The time stepper advances that block, takes its output rows
from it and pads it only for the half spectra that leave a run;
Grid.retained holds the per-mode arrays on the block.

forward and inverse are the package's transforms, and both work on the
retained block (Orszag 1971; Bowman & Roberts 2011): forward takes a
batch of real fields to their retained blocks, inverse a batch of
retained blocks to their real fields.  Each runs pocketfft's three
one-axis passes as calls of its own, in its order, on only the lines
that matter to the block, with the bits that scipy.fft.rfftn and irfftn
(norm="forward") give on the block or for the padded block.  A Grid is
a value: it caches only arrays derived from n and length, so any number
of threads may share one.

The MMP_THREADS workers (worker_count) split work one way (_split): the
first axis is cut into one contiguous group of rows per worker, numbered
from 0, the calling thread takes group 0 and the pool the others, each in
a copy of the caller's context, and a group's error is raised once every
group has ended; one worker, fewer than 2 rows or a pool thread runs the
whole array here as group 0.  A transform batch splits its rows so, and
each group takes its rows one at a time on its own scratch row.  The
slab stages (slab_map) split their planes so once an array has
SLAB_MIN_SIZE points, and run_beside runs one task beside the calling
thread (the data generator's next normal draws); drawing inline keeps
the bits but took 134 against 116 ms median per n = 64 datum on two
workers (2 vCPUs, 11 of 12 interleaved pairs slower).  No result's bits
depend on the thread count.  No pool thread submits to the pool:
slab_map, run_beside and the transforms run whole in the pool thread
that calls them.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft._pocketfft import pypocketfft as _pocketfft

# Slab stages split their first axis once an array has SLAB_MIN_SIZE points
# per component; smaller ones run whole, where the pool's overhead outweighs
# the work.  The retained block, (2c + 1)^2 (c + 1) points, reaches it from
# n = 64 (40,678; 35,301 at n = 62), a half spectrum from n = 44.
SLAB_MIN_SIZE = 40_000


def worker_count() -> int:
    """Worker threads for FFT batches and slab stages: the MMP_THREADS
    variable, or by default the CPUs this process may run on.

    Results are bitwise identical for any worker count; the cap only
    bounds resource usage.  Raises ValueError unless a set MMP_THREADS is
    a positive integer.
    """
    env = os.environ.get("MMP_THREADS", "").strip()
    if not env:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0  # rejected below with the nonpositive counts
    if count < 1:
        raise ValueError(f"MMP_THREADS must be a positive integer, got {env!r}")
    return count


_POOL_THREAD = "mmplab-slab"  # the name prefix of the pool's threads


@lru_cache(maxsize=1)
def _slab_pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix=_POOL_THREAD)


def _on_pool_thread() -> bool:
    """Whether this thread is one of the slab pool's, where a task that
    submitted to the pool and waited could wait on itself."""
    return threading.current_thread().name.startswith(_POOL_THREAD)


def _split(task, rows: int) -> None:
    """task(sl, threads, group) on every row of an array's first axis.
    With more than one worker, at least 2 rows and not on a pool thread,
    the rows are cut into min(workers, rows) contiguous groups numbered
    from 0, each task(rows, 1, group) in a copy of this thread's context:
    the calling thread takes group 0, the pool the others, and a group's
    error is raised here, after every group has ended.  Otherwise
    task(slice(None), worker_count(), 0) runs once here."""
    workers = worker_count()
    if workers == 1 or rows < 2 or _on_pool_thread():
        task(slice(None), workers, 0)
        return
    groups = min(workers, rows)
    bounds = [rows * i // groups for i in range(groups + 1)]
    pool = _slab_pool(workers)
    futures = [pool.submit(contextvars.copy_context().run, task, slice(lo, hi), 1, group)
               for group, (lo, hi) in enumerate(zip(bounds[1:], bounds[2:]), 1)]
    try:
        task(slice(0, bounds[1]), 1, 0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def slab_map(fn, shape: tuple[int, ...]) -> None:
    """fn(sl) on every group of rows sl of the first axis of an array of
    this shape, split by _split; below SLAB_MIN_SIZE points fn(slice(None))
    runs once here.  fn must work point by point and write only into its
    own rows, so the results do not depend on the split."""
    _split(lambda sl, threads, group: fn(sl),
           shape[0] if math.prod(shape) >= SLAB_MIN_SIZE else 1)


def run_beside(fn, *args) -> Future:
    """fn(*args) on the slab pool, beside this thread, as a Future whose
    result() returns its value or raises its exception.  With one worker,
    or on a pool thread, fn runs here, before run_beside returns.  A
    slab_map call, forward or inverse inside fn runs whole in fn's thread.
    A split of this thread while fn runs submits one group fewer than the
    pool has threads, so none of its groups waits for fn."""
    workers = worker_count()
    if workers > 1 and not _on_pool_thread():
        return _slab_pool(workers).submit(contextvars.copy_context().run, fn, *args)
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


@dataclass(frozen=True)
class Modes:
    """Per-mode arrays on the retained block (Grid.retained); the Grid
    holds the same names on the half spectrum.  multiplicity is per kz
    plane, the block's kz = 0 .. c planes of Grid.multiplicity."""

    xi_odd: np.ndarray
    xi_sq: np.ndarray
    xi_mag: np.ndarray
    leray_divisor: np.ndarray
    leray_fixed: np.ndarray
    multiplicity: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n modes per axis on a box of side length."""

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"grid size must be even and >= 8, got n={self.n}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"box side must be positive and finite, got {self.length}")

    @property
    def volume(self) -> float:
        return self.length ** 3

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def fundamental(self) -> float:
        """Smallest nonzero wavenumber magnitude, 2 pi / L."""
        return 2.0 * np.pi / self.length

    @cached_property
    def k_int(self) -> np.ndarray:
        """Integer mode numbers along one axis in FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of one stored half spectrum, (n, n, n//2 + 1)."""
        return (self.n, self.n, self.n // 2 + 1)

    def _wavevectors(self, k: np.ndarray) -> np.ndarray:
        out = np.empty((3,) + self.spectral_shape)
        out[0] = k[:, None, None]
        out[1] = k[None, :, None]
        out[2] = k[None, None, :self.n // 2 + 1]
        return out

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavevectors, shape (3, n, n, n//2 + 1)."""
        return self._wavevectors(self.fundamental * self.k_int.astype(float))

    @cached_property
    def xi_odd(self) -> np.ndarray:
        """Wavevectors with the Nyquist component zeroed.

        The k = -n/2 plane has no conjugate partner, so odd (sign-carrying)
        operators built from it are ambiguous and would break the reality of
        physical fields; every first-derivative-like factor uses this copy.
        Even quantities (|xi|^2 weights) keep the full wavevector.
        """
        k = self.fundamental * self.k_int.astype(float)
        k[self.n // 2] = 0.0
        return self._wavevectors(k)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2, shape (n, n, n//2 + 1)."""
        return (self.xi ** 2).sum(axis=0)

    @cached_property
    def xi_mag(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    @cached_property
    def leray_divisor(self) -> np.ndarray:
        """|xi_odd|^2 with its zeros replaced by 1: the Leray projection's
        divisor, shape (n, n, n//2 + 1)."""
        s2 = (self.xi_odd ** 2).sum(axis=0)
        return np.where(s2 > 0, s2, 1.0)

    @cached_property
    def leray_fixed(self) -> np.ndarray:
        """Modes with xi_odd = 0 (the mean and the pure-Nyquist modes), which
        the Leray projection passes through unchanged."""
        return (self.xi_odd ** 2).sum(axis=0) == 0

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: keep modes with |k_i| <= floor(n/3)."""
        cut = self.n // 3
        keep1 = np.abs(self.k_int) <= cut
        return (keep1[:, None, None] & keep1[None, :, None]
                & keep1[None, None, :self.n // 2 + 1])

    @property
    def retained_shape(self) -> tuple[int, int, int]:
        """Shape of the retained block, (2c + 1, 2c + 1, c + 1), c = n // 3."""
        c = self.n // 3
        return (2 * c + 1, 2 * c + 1, c + 1)

    @cached_property
    def _blocks(self) -> tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...]:
        """The four (block, half spectrum) slice pairs of the retained modes:
        k_x and k_y in 0 .. c or -c .. -1, k_z in 0 .. c."""
        c, n = self.n // 3, self.n
        axis = ((slice(0, c + 1), slice(0, c + 1)), (slice(c + 1, 2 * c + 1), slice(n - c, n)))
        kz = slice(0, c + 1)
        return tuple(((bx, by, kz), (fx, fy, kz))
                     for (bx, fx), (by, fy) in itertools.product(axis, axis))

    def truncate(self, half: np.ndarray) -> np.ndarray:
        """The retained block of half spectra (..., n, n, n//2 + 1), as a new
        array (..., 2c + 1, 2c + 1, c + 1)."""
        out = np.empty(half.shape[:-3] + self.retained_shape, dtype=half.dtype)
        for block, modes in self._blocks:
            out[(...,) + block] = half[(...,) + modes]
        return out

    def pad(self, block: np.ndarray) -> np.ndarray:
        """Half spectra holding a retained block and +0 elsewhere."""
        out = np.zeros(block.shape[:-3] + self.spectral_shape, dtype=block.dtype)
        for part, modes in self._blocks:
            out[(...,) + modes] = block[(...,) + part]
        return out

    @cached_property
    def retained(self) -> Modes:
        """The per-mode arrays cut to the retained block."""
        return Modes(*(self.truncate(a) for a in (
            self.xi_odd, self.xi_sq, self.xi_mag, self.leray_divisor, self.leray_fixed)),
            multiplicity=self.multiplicity[:self.n // 3 + 1])

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Parseval weight per kz plane of the half spectrum, shape (n//2 + 1,):
        1 on the self-conjugate kz = 0 and kz = n/2 planes, 2 elsewhere."""
        out = np.full(self.n // 2 + 1, 2.0)
        out[[0, -1]] = 1.0
        return out


_UNSCALED = 0  # pocketfft's normalization code that leaves the sum as it is


def forward(phys: np.ndarray, out: np.ndarray | None = None, *,
            work: np.ndarray | None = None, form=None) -> np.ndarray:
    """Retained blocks (Grid.truncate) of a batch of real fields
    (rows, n, n, n), carrying 1/n^3, as a new complex array
    (rows, 2c + 1, 2c + 1, c + 1) or written into out.

    Each group of rows (_split) transforms its rows one at a time into
    its row of work, complex (groups, n, n, n//2 + 1), made here when not
    given (min(worker_count(), rows) rows suffice), with pocketfft's
    passes in its order (z with the 1/n^3 factor, then x, then y), the x
    pass on the kz <= c planes and the y pass on their retained x rows
    only, and copies the block out.  form(k, group), when given, runs in
    row k's group before its transform and returns the row in place of
    phys[k], made in the caller's scratch for that group (say a product
    of phys's fields); until that transform it may use the group's row of
    work as scratch.  A phys of another shape raises ValueError.
    """
    if phys.ndim != 4 or phys.shape[1:] != (phys.shape[-1],) * 3:
        raise ValueError(f"expected a batch of real fields (rows, n, n, n), got {phys.shape}")
    grid = Grid(phys.shape[-1])
    n, c = grid.n, grid.n // 3
    if work is None:
        work = np.empty((min(worker_count(), len(phys)),) + grid.spectral_shape, dtype=complex)
    if out is None:
        out = np.empty((len(phys),) + grid.retained_shape, dtype=work.dtype)
    # pocketfft scales each real output of the z pass by T(1/ldbl_t(n^3))
    scale = work.real.dtype.type(np.longdouble(1) / np.longdouble(n) ** 3)

    def rows(sl: slice, threads: int, group: int) -> None:
        half = work[group]
        planes = half[..., :c + 1]
        scaled = planes.view(work.real.dtype)
        x_rows = (planes[:c + 1], planes[n - c:])
        modes = [(part, half[m]) for part, m in grid._blocks]
        for k in range(len(phys))[sl]:
            row = phys[k] if form is None else form(k, group)
            _pocketfft.r2c(row, (-1,), True, _UNSCALED, half, threads)
            scaled *= scale
            _pocketfft.c2c(planes, (-3,), True, _UNSCALED, planes, threads)
            for x in x_rows:
                _pocketfft.c2c(x, (-2,), True, _UNSCALED, x, threads)
            block = out[k]
            for part, mode in modes:
                block[part] = mode

    _split(rows, len(phys))
    return out


def inverse(blocks: np.ndarray, grid: Grid) -> np.ndarray:
    """Real fields (rows, n, n, n) of a batch of retained blocks of grid,
    each with the bits of the 3-axis inverse of Grid.pad(block).

    Each group of rows (_split) pads its rows one at a time into its row
    of +0 scratch, made here, and runs pocketfft's passes in its order
    (x, then y, then z), the x and y passes in place on the kz <= c
    planes only, the other planes being zeros in and out, and the x pass
    on their retained y rows only, the other rows being zeros until the y
    pass; then it sets the rest of those planes back to +0, so the next
    row's pad only has to write the block.  Blocks of another shape raise
    ValueError.
    """
    if blocks.shape[1:] != grid.retained_shape:
        raise ValueError(f"expected retained blocks of shape {grid.retained_shape} for "
                         f"n = {grid.n}, got {blocks.shape}")
    n, c = grid.n, grid.n // 3
    work = np.zeros((min(worker_count(), len(blocks)),) + grid.spectral_shape, dtype=complex)
    out = np.empty((len(blocks), n, n, n))

    def rows(sl: slice, threads: int, group: int) -> None:
        half = work[group]
        planes = half[..., :c + 1]
        modes = [(part, half[m]) for part, m in grid._blocks]
        y_rows = (planes[:, :c + 1], planes[:, n - c:])
        outside = (planes[c + 1:n - c], planes[:, c + 1:n - c])
        for k in range(len(blocks))[sl]:
            block = blocks[k]
            for part, mode in modes:
                mode[...] = block[part]
            for y in y_rows:
                _pocketfft.c2c(y, (-3,), False, _UNSCALED, y, threads)
            _pocketfft.c2c(planes, (-2,), False, _UNSCALED, planes, threads)
            _pocketfft.c2r(half, (-1,), n, False, _UNSCALED, out[k], threads)
            for zeros in outside:
                zeros[...] = 0

    _split(rows, len(blocks))
    return out


def full_spectrum(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Expand half spectra (..., n, n, n//2 + 1) to full FFT-ordered arrays
    (..., n, n, n), as a new complex array or written into out.  The
    missing kz planes are conj(a(-k)) of stored modes, copied from four
    slice views per axis pair (index 0 pairs with itself, i > 0 with n - i)
    and conjugated in place; into a complex64 out each value is cast once,
    which gives the bits of expanding first and casting after."""
    n, h = half.shape[-2], half.shape[-1]
    if out is None:
        out = np.empty(half.shape[:-1] + (n,), dtype=complex)
    out[..., :h] = half
    axis = ((slice(0, 1), slice(0, 1)), (slice(1, n), slice(n - 1, 0, -1)))
    for (x, mx), (y, my) in itertools.product(axis, axis):
        out[..., x, y, h:] = half[..., mx, my, n - h:0:-1]
    np.conjugate(out[..., h:], out=out[..., h:])
    return out
