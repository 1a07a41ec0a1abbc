import numpy as np
from hypothesis import settings

from resolvinv import FilterSpec, ResolventSeries

# `pytest --hypothesis-profile=ci` prints the reproducer blob of a failing
# example, so a random CI failure can be replayed with @reproduce_failure
settings.register_profile("ci", print_blob=True)


def random_theorem_series(rng, n_min=2, n_max=8, min_sep=1e-2,
                          center=0.0, box=1.0):
    """Random nonnegative-coefficient series with poles in a square."""
    while True:
        m = int(rng.integers(n_min, n_max + 1))
        poles = (center + box * rng.uniform(0, 1, m)
                 + 1j * box * rng.uniform(0, 1, m))
        ok = all(abs(poles[i] - poles[j]) > min_sep
                 for i in range(m) for j in range(i + 1, m))
        if ok:
            break
    coeffs = rng.uniform(0.1, 1.0, m)
    return ResolventSeries(tuple(zip(coeffs, poles)))


def random_similarity(rng, n, coupling=0.3):
    """Well-conditioned random change of basis."""
    q = np.eye(n) + coupling * rng.standard_normal((n, n))
    while np.linalg.cond(q) > 50:
        q = np.eye(n) + coupling * rng.standard_normal((n, n))
    return q


def matrix_with_eigenvalues(rng, eigvals, coupling=0.3):
    n = len(eigvals)
    q = random_similarity(rng, n, coupling)
    return q @ np.diag(np.asarray(eigvals, dtype=complex)) @ np.linalg.inv(q)


def assemble_series(series, a_matrix):
    """Dense assembly of f(A) = sum a_j (alpha_j I - A)^{-1}."""
    n = a_matrix.shape[0]
    eye = np.eye(n, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for a, alpha in series.terms:
        out += a * np.linalg.inv(alpha * eye - a_matrix)
    return out


def assemble_plan(plan, a_matrix):
    """Dense assembly of gamma I + beta A + h(A)."""
    n = a_matrix.shape[0]
    eye = np.eye(n, dtype=complex)
    out = plan.gamma * eye + plan.beta * a_matrix
    for zk, ck in zip(plan.zeros, plan.residues):
        out += ck * np.linalg.inv(zk * eye - a_matrix)
    return out


def planted_filter(roots, residues) -> FilterSpec:
    """Filter whose characteristic roots and transfer residues are the
    given ones: q~(z) = sum_j a_j prod_{i != j} (z - z_i), so that
    q~(z_j) / p'(z_j) = a_j.  Built with numpy alone."""
    roots = np.asarray(roots, dtype=complex)
    qt = np.zeros(roots.size, dtype=complex)
    for j, a in enumerate(residues):
        qt += a * np.atleast_1d(np.poly(np.delete(roots, j)))[::-1]
    return FilterSpec(tuple(np.poly(roots)[::-1]), tuple(qt))
