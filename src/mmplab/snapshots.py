"""Binary snapshot files for spectral states.

Layout (all little-endian):

    bytes 0..15   magic b"MMPLAB-SNAP-v001"
    uint32        n (modes per axis)
    float64       box side length
    uint32        flags: bit0 solenoidal u, bit1 solenoidal b; always
                  written as 3 and skipped on read
    9 x n^3       complex64 coefficient blocks in component order
                  u0 u1 u2 w0 w1 w2 b0 b1 b2, C order over the FFT axes
                  (kx, ky, kz)

Coefficients are stored in single precision; snapshots are for restart and
inspection, not for bit-exact archival.  States hold half spectra (see
:mod:`mmplab.grid`); the file holds the full spectrum, so a state is
expanded with its conjugate-symmetric partners on write and sliced back to
the stored half on read.  The writer expands one component at a time into
one complex64 array (grid.full_spectrum with out=), which it writes as it
is: the bytes of expanding in double precision and casting after, with no
double-precision copy.  Reading a snapshot returns exactly the stored half
in complex64 precision.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fields import Grid, StateField
from .grid import full_spectrum

MAGIC = b"MMPLAB-SNAP-v001"
_HEADER = struct.Struct("<IdI")


class SnapshotFormatError(ValueError):
    pass


def write_snapshot(path, state: StateField) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(state.grid.n, state.grid.length, 3))
        full = np.empty((state.grid.n,) * 3, dtype=np.complex64)
        for comp in state.z:
            fh.write(full_spectrum(comp, out=full))


def read_snapshot(path) -> StateField:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path} is not a snapshot file (bad magic)")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotFormatError(f"{path} truncated in its header")
        n, length, _ = _HEADER.unpack(header)
        # checked before anything is allocated, so a bad n cannot ask for memory
        size = len(MAGIC) + _HEADER.size + 9 * 8 * n ** 3
        if (held := os.fstat(fh.fileno()).st_size) != size:
            raise SnapshotFormatError(f"{path} holds {held} bytes, an n = {n} snapshot {size}")
        grid = Grid(n=n, length=length)
        z = np.empty((9,) + grid.spectral_shape, dtype=complex)
        for comp in z:
            raw = fh.read(8 * n ** 3)
            comp[...] = np.frombuffer(raw, dtype=np.complex64).reshape(n, n, n)[..., :n // 2 + 1]
    return StateField(grid, z)
