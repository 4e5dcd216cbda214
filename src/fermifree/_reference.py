"""Divergences between two density operators from their textbook definitions.

The relative entropy, the Petz divergence (Petz, Rep. Math. Phys. 23, 57
(1986)) and the sandwiched divergence (Mueller-Lennert et al., J. Math. Phys.
54, 122203 (2013)) from a fresh `eigh` of each state's matrix, with the
sandwiched core B^e A B^e formed densely.  Eigenvalues at or below KERNEL_TOL
are kernel.  Nothing here is shared with the divergence core in `entropy`, so
the property suite can check one against the other.
"""

import math

import numpy as np

from .config import KERNEL_TOL


def _eigh(state):
    m = state.to_density().matrix
    return np.linalg.eigh((m + m.conj().T) / 2)


def joint(a, b):
    """A's eigenvalues above KERNEL_TOL p, all 2^d eigenvalues of B q, and
    c[i, j] = <b_j|a_i>, from one eigh of each state's Hermitian matrix."""
    (w, v), (q, u) = _eigh(a), _eigh(b)
    return w[w > KERNEL_TOL], q, (u.conj().T @ v[:, w > KERNEL_TOL]).T


def divergence(alpha: float, a, b, sandwiched: bool = False) -> float:
    """D(A||B), unclamped: +inf from alpha = 1 up where more than KERNEL_TOL of
    A's weight lies in ker B (a crossing), and for Petz below alpha = 1 where
    at most KERNEL_TOL of it lies on B's support (orthogonal supports)."""
    p, q, c = joint(a, b)
    mass, live = p @ np.abs(c) ** 2, q > KERNEL_TOL  # A's weight on each eigenvector of B
    if alpha >= 1.0 and mass[~live].sum() > KERNEL_TOL:
        return math.inf
    if alpha < 1.0 and not sandwiched and mass[live].sum() <= KERNEL_TOL:
        return math.inf
    q, c = q[live], c[:, live]  # powers of B are taken on its support
    if alpha == 1.0:
        return float((p * np.log(p)).sum() - mass[live] @ np.log(q) + q.sum() - p.sum())
    if sandwiched:  # B^e A B^e in B's eigenbasis, e = (1 - alpha) / (2 alpha)
        s = q ** ((1.0 - alpha) / (2.0 * alpha))
        w = np.linalg.eigvalsh(s[:, None] * ((c.T * p) @ c.conj()) * s)
        trace = (w[w > KERNEL_TOL] ** alpha).sum()
    else:  # Tr A^alpha B^(1 - alpha) = sum_ij p_i^alpha |c_ij|^2 q_j^(1 - alpha)
        trace = (p**alpha @ np.abs(c) ** 2) @ q ** (1.0 - alpha)
    return math.log(trace) / (alpha - 1.0) if trace > 0.0 else math.inf
