"""Independent reference quantities that the benchmark checks outputs against.

These use plain numpy on the Fock-space matrices and share no code with the
library: the 1-pdm comes from the creator sign rule (bit i-1 holds orbital i,
a sign of -1 per occupied orbital below), entropies from eigvalsh.
"""

import numpy as np


class CheckFailure(Exception):
    """An operation's output broke one of the benchmark's invariants."""


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def close(actual, expected, tol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    dev = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    require(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.0e}")


def matrix_from_pairs(rows) -> np.ndarray:
    """A complex matrix from row-major [re, im] pairs."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def matrix_to_pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _sign_below(n, k):
    """(-1) to the number of occupied orbitals below 0-based orbital k."""
    return 1.0 - 2.0 * (np.bitwise_count(n & ((1 << k) - 1)) % 2)


def one_pdm(matrix) -> np.ndarray:
    """gamma[i, j] = Tr(rho a*_j a_i), 0-based orbitals, for a 2^d x 2^d rho."""
    rho = np.asarray(matrix, dtype=complex)
    d = rho.shape[0].bit_length() - 1
    n = np.arange(rho.shape[0], dtype=np.int64)
    g = np.empty((d, d), dtype=complex)
    for i in range(d):
        has_i = (n >> i) & 1 == 1
        for j in range(d):
            if i == j:
                src = n[has_i]
                g[i, i] = rho[src, src].sum()
                continue
            src = n[has_i & ((n >> j) & 1 == 0)]
            mid = src ^ (1 << i)  # a_i |src>
            dst = mid | (1 << j)  # a*_j a_i |src>
            sign = _sign_below(src, i) * _sign_below(mid, j)
            # Tr(rho A) = sum_n rho[n, m] A[m, n] with A|n> = sign |m>
            g[i, j] = (rho[src, dst] * sign).sum()
    return g


def entropy(eigenvalues) -> float:
    w = np.asarray(eigenvalues, dtype=float)
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def binary_entropy(occupations) -> float:
    p = np.clip(np.asarray(occupations, dtype=float), 0.0, 1.0)
    return entropy(p) + entropy(1.0 - p)


def nonfreeness(matrix) -> float:
    """S(free reference) - S(rho) from the occupations and rho's spectrum."""
    gamma = one_pdm(matrix)
    occupations = np.linalg.eigvalsh((gamma + gamma.conj().T) / 2)
    rho = np.asarray(matrix, dtype=complex)
    return binary_entropy(occupations) - entropy(np.linalg.eigvalsh((rho + rho.conj().T) / 2))
