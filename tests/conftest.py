import numpy as np
import pytest
import scipy.linalg


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_traceless(rng, n):
    A = random_complex(rng, n)
    return A - (np.trace(A) / n) * np.eye(n)


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(random_complex(rng, n))
    return Q


def planted_matrix(rng, spectrum):
    """Well-conditioned matrix with the given eigenvalues (diagonalizable)."""
    n = len(spectrum)
    Q = random_unitary(rng, n)
    return Q @ np.diag(np.asarray(spectrum, dtype=complex)) @ Q.conj().T


def planted_triangular(rng, spectrum):
    """Complex Schur factor of planted_matrix(rng, spectrum): upper
    triangular, with the same eigenvalues from the same draws of rng."""
    T, _ = scipy.linalg.schur(planted_matrix(rng, spectrum), output="complex")
    return T


def sorted_eigs(M):
    e = np.linalg.eigvals(M)
    return np.array(sorted(e, key=lambda z: (round(z.real, 8), round(z.imag, 8))))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
