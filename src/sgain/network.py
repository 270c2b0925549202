"""Finite truncations of a network description: the numeric layer.

:func:`truncate` materializes the first N subsystems of a family as a
:class:`TruncatedNetwork` of sparse matrices; couplings past N read zero.
With :mod:`sgain.sim`, the only module that imports scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .errors import NumericInputError, ParameterError, ShapeError
from .families import Family
from .seqrules import positions

class TruncatedNetwork:
    """First N subsystems with states beyond N held at zero.

    The right-hand side splits into a sparse linear part, a sparse input
    matrix, and (for a family with an active sector channel) a vectorized
    nonlinearity: ``f(x, u) = A x + B u + nl(x)``.  ``linear_matrix`` is
    assembled from the family's blocks, and ``drift_matrix`` is the ``A`` of
    ``f``: ``linear_matrix`` plus a linear sector channel ``E (l+r)/2 G`` on
    the diagonal blocks.  So ``nonlinearity`` is None exactly when the
    truncation is linear time-invariant.  :meth:`rhs` takes the applied
    input ``B u``, so a caller that holds it forms it once.

    Past the preamble the truncation is block-Toeplitz with the cycle as
    its block, so it is tiled from the stored preamble plus one cycle; a
    closed-form family stores all N of its blocks.
    """

    def __init__(self, fam: Family, n_subsystems: int):
        if n_subsystems < 1:
            raise ParameterError("truncation needs at least one subsystem")
        self.family = fam
        self.n_subsystems = n = n_subsystems
        pre, per = fam.structure or (n, 1)
        stored = [fam.blocks(i) for i in range(1, min(n, pre + per) + 1)]
        offsets = sorted({off for _, d, _ in stored for off in d})
        for off in offsets:
            if not 0 < abs(off) <= fam.bandwidth:
                i = next(i for i, (_, d, _) in enumerate(stored, start=1) if off in d)
                raise ParameterError(f"neighbor set of {i} exceeds bandwidth {fam.bandwidth}")
        pos = positions(pre, per, n)  # subsystem i repeats stored block pos[i - 1]
        a = np.stack([s[0] for s in stored])[pos]
        b = np.stack([s[2] for s in stored])[pos]
        self.block_dim = nb = a.shape[1]
        self.block_offsets = nb * np.arange(n + 1)
        self.dim = nb * n
        self.input_dims = np.where(b.any(axis=(1, 2)), b.shape[2], 0)
        input_offsets = np.concatenate(([0], np.cumsum(self.input_dims)))
        self.input_dim = int(input_offsets[-1])

        zero = np.zeros((nb, nb))
        parts = [(0, a)] + [(off, np.stack([d.get(off, zero) for _, d, _ in stored])[pos])
                            for off in offsets]
        rows, cols, vals = [], [], []
        for off, blk in parts:
            k, r, c = np.nonzero(blk)
            j = k + off
            keep = (j >= 0) & (j < n)
            rows.append(k[keep] * nb + r[keep])
            cols.append(j[keep] * nb + c[keep])
            vals.append(blk[k[keep], r[keep], c[keep]])
        self.linear_matrix = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim))
        k, r, c = np.nonzero(b)
        self.input_matrix = sp.csr_matrix((b[k, r, c], (k * nb + r, input_offsets[k] + c)),
                                          shape=(self.dim, max(self.input_dim, 1)))
        self.drift_matrix = self.linear_matrix
        self.nonlinearity = fam.nonlinearity()
        if self.nonlinearity is not None and not callable(self.nonlinearity[2]):
            e, g, slope = self.nonlinearity
            fold = sp.kron(sp.identity(n), slope * np.outer(e, g))
            self.drift_matrix = (self.linear_matrix + fold).tocsr()
            self.nonlinearity = None

    def rhs(self, x: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
        """``A x + forcing + nl(x)``, where ``forcing`` is the applied input ``B u``."""
        out = _matvec(self.drift_matrix, x, np.zeros(self.dim), self.dim)
        if forcing is not None:
            out += forcing
        if self.nonlinearity is not None:
            e, g, phi = self.nonlinearity
            s = (x.reshape(self.n_subsystems, -1) * g).sum(axis=1)
            out += (e * phi(s)[:, None]).ravel()
        return out


def _matvec(m: sp.csr_matrix, x: np.ndarray, out: np.ndarray, rows: int) -> np.ndarray:
    """Add the first ``rows`` rows of ``m @ x`` into ``out`` with scipy's compiled
    CSR kernel; returns ``out``, whose other rows are left alone.

    This is the kernel behind ``m @ x`` without its dispatch: from a zero
    ``out`` the result is the same bit for bit.
    """
    csr_matvec(rows, m.shape[1], m.indptr, m.indices, m.data, x, out)
    return out


def _chained_steps(r: sp.csr_matrix, k: int):
    """``steps(flat, n, rows)``: ``n`` steps ``y += r x`` along the rows of the
    C-contiguous block ``flat`` (row ``j + 1`` from row ``j``), ``k`` per kernel
    call when ``rows`` spans ``r``, else one per call over ``r``'s first ``rows``.

    A call multiplies ``k`` copies of ``r`` laid along a chain, copy ``j``
    reading state ``g + j`` and adding into state ``g + j + 1`` of the
    overlapping input and output views.  This relies on scipy's ``csr_matvec``
    working in place, row by row in order, storing each row's sum before a
    later row reads its input: copy ``j`` reads what copy ``j - 1`` has just
    written, the same operations in the same order as one call per step.
    """
    dim, nnz, copies = r.shape[0], r.nnz, np.arange(k)[:, None]
    indptr = np.append((r.indptr[:-1] + nnz * copies).ravel(), k * nnz).astype(r.indices.dtype)
    indices = (r.indices + dim * copies).ravel().astype(r.indices.dtype)  # rows in r's order
    data = np.tile(r.data, k)

    def steps(flat: np.ndarray, n: int, rows: int) -> None:
        c = k if rows == dim else 1
        for g in range(0, n, c):
            j = min(c, n - g)
            csr_matvec((j - 1) * dim + rows, j * dim, indptr, indices, data,
                       flat[g * dim:(g + j) * dim], flat[(g + 1) * dim:(g + 1 + j) * dim])

    return steps


def truncate(fam: Family, n_subsystems: int) -> TruncatedNetwork:
    """Materialize the first N subsystems; couplings past N read zero."""
    return TruncatedNetwork(fam, n_subsystems)


def evaluate_rhs(net: TruncatedNetwork, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stacked right-hand side of the truncated interconnection."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel() if u is not None else np.zeros(0)
    if x.shape[0] != net.dim:
        raise ShapeError(f"state has dimension {x.shape[0]}, network needs {net.dim}")
    if u.shape[0] != net.input_dim:
        raise ShapeError(f"input has dimension {u.shape[0]}, network needs {net.input_dim}")
    if not np.all(np.isfinite(x)) or (u.size and not np.all(np.isfinite(u))):
        raise NumericInputError("non-finite component in state or input")
    return net.rhs(x, net.input_matrix @ u if net.input_dim else None)


