"""Sparse ladder operators for the tests' references, built apart from `fermifree.fock`.

The library's `ladder_matrices` are dense, so a d = 10 reference would hold 20
operators of 16 MB each; these hold 2^(d-1) entries apiece.  They come from the
Jordan-Wigner product rather than from the library's index arithmetic: on the
Fock space with bit i-1 holding orbital i, creator i is the identity on the
orbitals above i, |1><0| on orbital i and diag(1, -1) on each orbital below,
which is the sign (-1)^(occupied below i).
"""

from scipy import sparse

RAISE = sparse.csr_matrix([[0, 0], [1, 0]], dtype=complex)  # |1><0| on one orbital
PARITY = sparse.diags([1.0, -1.0]).astype(complex)  # (-1)^n on one orbital


def sparse_creator(i, d):
    """Creator of orbital i (1-based) on d orbitals, as a sparse CSR matrix."""
    # the leftmost Kronecker factor is the most significant bit, orbital d; CSR
    # output keeps only the nonzeros, where block output would store zeros too
    op = sparse.kron(sparse.identity(1 << (d - i), dtype=complex), RAISE, format="csr")
    for _ in range(i - 1):
        op = sparse.kron(op, PARITY, format="csr")
    return op


def sparse_ladder(d):
    """(creators, annihilators) on d orbitals, 0-indexed lists of sparse CSR matrices."""
    creators = [sparse_creator(i, d) for i in range(1, d + 1)]
    return creators, [c.conj().T.tocsr() for c in creators]
