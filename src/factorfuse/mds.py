"""Non-metric multidimensional scaling to one dimension (Kruskal 1964).

Used only to order the levels of d-dimensional Gaussian data for the fast
merging strategies: the points are the k estimated level means, whitened so
that Euclidean distance between them is the Mahalanobis distance under the
pooled covariance.  Just the induced order of the returned coordinates
matters; sign and translation are arbitrary but canonicalized for
determinism (the lexicographically largest input point never projects below
the smallest one).
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePoints

MAX_ITER = 100
STRESS_TOL = 1e-6


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _classical_mds_1d(d2: np.ndarray) -> np.ndarray:
    """First principal coordinate of the double-centered squared distances."""
    n = d2.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    vals, vecs = np.linalg.eigh(b)
    lead = vals[-1]
    if lead <= 0:
        return np.zeros(n)
    return vecs[:, -1] * np.sqrt(lead)


def _isotonic_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit (nondecreasing, unit weights)."""
    # stack of (mean, size) blocks; amortized linear time
    means: list[float] = []
    sizes: list[int] = []
    for yi in y.tolist():
        means.append(yi)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            total = sizes[-2] + sizes[-1]
            means[-2:] = [(means[-2] * sizes[-2] + means[-1] * sizes[-1]) / total]
            sizes[-2:] = [total]
    return np.repeat(means, sizes)


def _stress1(d: np.ndarray, disp: np.ndarray) -> float:
    denom = float((d * d).sum())
    if denom == 0.0:
        return 0.0
    return float(np.sqrt(((d - disp) ** 2).sum() / denom))


def mds_project_1d(points: np.ndarray) -> np.ndarray:
    """Project d-dimensional points to one dimension by minimizing stress-1.

    Starts from the classical metric solution, then alternates isotonic
    regression on disparities with gradient steps on the configuration for
    at most ``MAX_ITER`` rounds or until the stress change drops below
    ``STRESS_TOL``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be (n, d)")
    n = points.shape[0]
    target = _pairwise_distances(points)
    if n < 2 or target.max() == 0.0:
        raise DegeneratePoints("all points coincide")

    iu = np.triu_indices(n, k=1)
    t_flat = target[iu]
    # stable order of dissimilarities: value first, then index pair
    rank = np.lexsort((iu[1], iu[0], t_flat))

    x = _classical_mds_1d(target * target)
    if np.ptp(x) == 0.0:
        x = t_flat.mean() * np.linspace(0.0, 1.0, n)

    def disparities_and_stress(xc):
        d = np.abs(xc[:, None] - xc[None, :])[iu]
        disp = np.empty_like(d)
        disp[rank] = _isotonic_increasing(d[rank])
        return disp, _stress1(d, disp)

    disp, stress = disparities_and_stress(x)
    step = max(np.ptp(x), 1e-3) * 0.05

    for _ in range(MAX_ITER):
        # gradient of the raw stress sum((d - disp)^2) w.r.t. coordinates
        diff = x[:, None] - x[None, :]
        dmat = np.abs(diff)
        dispmat = np.zeros_like(dmat)
        dispmat[iu] = disp
        dispmat += dispmat.T
        grad = 2.0 * ((dmat - dispmat) * np.sign(diff)).sum(axis=1)
        gnorm = np.abs(grad).max()
        if gnorm == 0.0:
            break
        for _ in range(20):
            x_new = x - step * grad / gnorm
            disp_new, stress_new = disparities_and_stress(x_new)
            if stress_new <= stress:
                break
            step *= 0.5
        else:
            break
        improved = stress - stress_new
        x, disp, stress = x_new, disp_new, stress_new
        step *= 1.2
        if improved < STRESS_TOL:
            break

    # canonical sign: lexicographically largest point projects at least as
    # high as the smallest, so the order survives row permutations
    keys = [tuple(p) for p in points]
    lo = min(range(n), key=keys.__getitem__)
    hi = max(range(n), key=keys.__getitem__)
    if x[hi] < x[lo]:
        x = -x
    return x - x.mean()
