"""Finite truncations of a network description: the numeric layer.

:func:`truncate` materializes the first N subsystems of a family as a
:class:`TruncatedNetwork` of sparse matrices; couplings past N read zero.
Its matrices are gathered from the rows of the stored blocks (a preamble plus
one cycle) in the family's float table, which each instance forms once, so
every truncation of an instance, a probe's too, reads the same rounded
blocks; RK4's propagator ``R`` is gathered from the rows of a core
truncation, built by calling scipy's compiled CSR kernels directly.  With
:mod:`sgain.sim`, the only module that imports scipy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz, csr_matvec, csr_plus_csr

from .errors import ParameterError, ResourceError
from .families import Family, round_blocks
from .seqrules import positions

DIM_BUDGET = 2 ** 24  # most states a truncation holds (a state vector of 128 MiB)
CLOSED_FORM_BUDGET = 2 ** 16  # most subsystems of a closed form, whose blocks are read one by one


class TruncatedNetwork:
    """First N subsystems with states beyond N held at zero.

    Every truncation is linear time-invariant, ``f(x, u) = A x + B u``, with
    a sparse ``drift_matrix`` ``A`` and ``input_matrix`` ``B``.  ``A`` is
    gathered from the family's float table (each number rounded to float
    once), whose blocks carry any sector channel.

    Past the preamble the truncation is block-Toeplitz with the cycle as
    its block, so each matrix gathers its rows from the stored preamble plus
    one cycle, dropping the columns outside the truncation, each row's entries
    in column order; a closed-form family has no table: its N blocks are read
    one by one, so its N is at most ``CLOSED_FORM_BUDGET``.
    """

    def __init__(self, fam: Family, n_subsystems: int):
        if n_subsystems < 1:
            raise ParameterError("truncation needs at least one subsystem")
        self.family = fam
        self.n_subsystems = n = n_subsystems
        pre, per = fam.structure or (n, 1)
        if fam.structure is None:
            stored = [round_blocks(fam.blocks(1))]
        else:
            stored = fam.float_table.head(min(n, pre + per))
        self.block_dim = nb = stored[0][0].shape[0]
        if n * nb > DIM_BUDGET:
            raise ResourceError(f"N = {n} gives dimension {n * nb}, over the budget {DIM_BUDGET}")
        if fam.structure is None:
            if n > CLOSED_FORM_BUDGET:
                raise ResourceError(f"N = {n} closed-form subsystems, over their budget "
                                    f"{CLOSED_FORM_BUDGET}")
            stored += [round_blocks(fam.blocks(i)) for i in range(2, n + 1)]
        for off in sorted({off for _, d, _ in stored for off in d}):
            if not 0 < abs(off) <= fam.bandwidth:
                i = next(i for i, (_, d, _) in enumerate(stored, start=1) if off in d)
                raise ParameterError(f"neighbor set of {i} exceeds bandwidth {fam.bandwidth}")
        pos = positions(pre, per, n)  # subsystem i repeats stored block pos[i - 1]
        a = np.stack([s[0] for s in stored])
        b = np.stack([s[2] for s in stored])
        self.block_offsets = nb * np.arange(n + 1)
        self.dim = nb * n
        self.input_dims = np.where(b.any(axis=(1, 2)), b.shape[2], 0)[pos]
        input_offsets = np.concatenate(([0], np.cumsum(self.input_dims)))
        self.input_dim = int(input_offsets[-1])

        # A stored block row is [D_-bw ... A ... D_bw]: its column c is column
        # c - bw nb from the first column of its subsystem's own block.
        bw, zero = fam.bandwidth, np.zeros((nb, nb))
        wide = np.concatenate([np.stack([d.get(off, zero) for _, d, _ in stored]) if off else a
                               for off in range(-bw, bw + 1)], axis=2)
        rows = (pos[:, None] * nb + np.arange(nb)).ravel()
        first = ((np.arange(n) - bw) * nb).repeat(nb)

        def gathered(blocks: np.ndarray, shift: np.ndarray, cols: int) -> sp.csr_matrix:
            k, r, c = np.nonzero(blocks)  # stored row k nb + r, in column order
            ptr = np.concatenate(([0], np.cumsum(np.bincount(k * nb + r, minlength=len(a) * nb))))
            indptr, indices, data = _gather(ptr, c, blocks[k, r, c], rows, shift, cols)
            return sp.csr_matrix((data, indices, indptr), shape=(self.dim, cols))

        self.drift_matrix = gathered(wide, first, self.dim)
        self.input_matrix = gathered(b, input_offsets[:-1].repeat(nb), max(self.input_dim, 1))
        self._propagators: dict[float, tuple] = {}

    def rhs(self, x: np.ndarray, forcing: np.ndarray | None) -> np.ndarray:
        """``A x + forcing``, where ``forcing`` is the applied input ``B u``: the
        stage-wise reference that the propagator's steps agree with."""
        out = self.drift_matrix @ x
        if forcing is not None:
            out += forcing
        return out

    def propagator(self, h: float) -> tuple:
        """``(indptr, indices, data, lower)``: the CSR arrays of RK4's stability
        polynomial ``R = I + M + M^2/2 + M^3/6 + M^4/24`` of ``M = h A`` and its
        lower bandwidth (the largest ``i - j`` of an entry ``R_ij``), built once
        per step.  Its entries and row order are scipy's operator expression's
        (:func:`_rk4_polynomial`).

        Block row ``i`` of ``R`` reads only the rows of ``A`` within ``3 b`` of
        ``i`` (``b`` the bandwidth).  So for an eventually periodic family ``R``
        is built on a core of ``H = max(pre, b) + 3 b`` head rows, one period and
        ``4 b`` tail rows, its size congruent to N modulo the period, and tiled
        to N: a row past the head is the core row of its residue, moved along,
        and the last ``4 b`` rows are the core's last.
        """
        if h in self._propagators:
            return self._propagators[h]
        n, nb, bw, a = self.n_subsystems, self.block_dim, self.family.bandwidth, self.drift_matrix
        pre, per = self.family.structure or (n, 1)  # a closed form fails the size test
        head = max(pre, bw) + 3 * bw
        core, m = n, (a.indptr, a.indices, a.data)
        if self.dim * (1 + int(np.diff(a.indptr).max(initial=0))) ** 4 >= 2 ** 31:
            m = (a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data)  # R's sizes
        if n >= head + 4 * bw + 3 * per:
            core = head + per + 4 * bw + (n - head - per - 4 * bw) % per
            # The truncation at ``core``: A's rows before its last b, then its
            # last b rows moved back.
            src = np.concatenate((np.arange(core - bw), np.arange(n - bw, n)))
            m = _gather(*m, (src[:, None] * nb + np.arange(nb)).ravel(),
                        ((np.arange(core) - src) * nb).repeat(nb))
        r = _rk4_polynomial(core * nb, m[0], m[1], h * m[2])
        rows = np.arange(core * nb).repeat(np.diff(r[0]))
        lower = int(np.max(rows - r[1], initial=0))
        if core < n:
            src = positions(head, per, n)
            src[n - 4 * bw:] = np.arange(core - 4 * bw, core)
            r = _gather(*r, (src[:, None] * nb + np.arange(nb)).ravel(),
                        ((np.arange(n) - src) * nb).repeat(nb))
        self._propagators[h] = (*r, lower)
        return self._propagators[h]


def _gather(indptr, indices, data, rows, shift, cols: int | None = None):
    """CSR arrays of the rows ``rows`` of a CSR matrix, row ``j``'s columns moved
    by ``shift[j]`` and its entries kept in order; with ``cols``, the entries
    whose columns fall outside ``[0, cols)`` are dropped."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ptr = np.zeros(len(rows) + 1, indices.dtype)
    np.cumsum(counts, out=ptr[1:])
    take = np.repeat((starts - ptr[:-1]).astype(np.intp), counts)
    take += np.arange(ptr[-1])
    idx, vals = indices[take], data[take]
    idx += np.repeat(shift.astype(indices.dtype), counts)
    if cols is not None:
        keep = (idx >= 0) & (idx < cols)
        ptr = np.concatenate(([0], np.cumsum(keep)))[ptr].astype(indices.dtype)
        idx, vals = idx[keep], vals[keep]
    return ptr, idx, vals


def _rk4_polynomial(dim: int, indptr, indices, data):
    """CSR arrays of ``I + M (I + M (I/2 + M (I/6 + M/24)))`` for the ``dim x dim``
    CSR matrix ``M``: the kernel calls, operands and scalar factors of scipy's
    operator expression (``eye / 6.0`` multiplies by ``1.0 / 6.0``), so each
    row's entries and their order are the expression's."""
    m, it = (indptr, indices, data), indptr.dtype
    ptr, idx = np.arange(dim + 1, dtype=it), np.arange(dim, dtype=it)

    def call(kernel, cap: int, *operands):
        out = (np.empty(dim + 1, it), np.empty(cap, it), np.empty(cap))
        kernel(dim, dim, *operands, *out)
        return out[0], out[1][:out[0][-1]], out[2][:out[0][-1]]

    def plus(s: float, x):  # s eye + x
        return call(csr_plus_csr, dim + x[0][-1], ptr, idx, np.full(dim, s), *x)

    def times(x):  # m @ x
        return call(csr_matmat, csr_matmat_maxnnz(dim, dim, indptr, indices, *x[:2]), *m, *x)

    x = plus(1.0 / 6.0, (indptr, indices, data * (1.0 / 24.0)))
    x = plus(0.5, times(x))
    x = plus(1.0, times(x))
    return plus(1.0, times(x))


def _chained_steps(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, k: int):
    """``steps(flat, n, rows)``: ``n`` steps ``y += r x`` for the square CSR
    matrix ``r`` of the given arrays along the rows of the C-contiguous block
    ``flat`` (row ``j + 1`` from row ``j``), ``k`` per kernel call when ``rows``
    spans ``r``, else one per call over ``r``'s first ``rows``.

    A call multiplies ``k`` copies of ``r`` laid along a chain, copy ``j``
    reading state ``g + j`` and adding into state ``g + j + 1`` of the
    overlapping input and output views.  This relies on scipy's ``csr_matvec``
    working in place, row by row in order, storing each row's sum before a
    later row reads its input: copy ``j`` reads what copy ``j - 1`` has just
    written, the same operations in the same order as one call per step.  At
    ``k = 1`` the chain is ``r``'s own arrays.
    """
    dim, nnz = len(indptr) - 1, len(data)
    if k > 1:
        copies = np.arange(k)[:, None]
        indptr = np.append((indptr[:-1] + nnz * copies).ravel(), k * nnz).astype(indices.dtype)
        indices = (indices + dim * copies).ravel().astype(indices.dtype)  # rows in r's order
        data = np.tile(data, k)

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
