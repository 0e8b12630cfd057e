"""Scalar maximization and sampling helpers used by the solvers."""

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(fn, lo, hi, tol=1e-9):
    """Argmax of a unimodal scalar function on [lo, hi] by golden section."""
    a, b = float(lo), float(hi)
    if b - a <= tol:
        return 0.5 * (a + b)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def maximize_scalar(fn, lo, hi, coarse_tol=1e-7, foc_tol=1e-12, deriv_step=1e-5,
                    flat_tol=1e-12):
    """High-accuracy scalar maximization: golden section + a root search on the FOC.

    Golden section localizes the maximum; Illinois regula falsi on the central
    finite-difference derivative then refines interior optima well past the
    sqrt(machine-eps) limit of value-only comparisons.  Optima at the box
    edges are snapped onto them (the derivative keeps pointing outward there).
    When the objective is flat (within flat_tol) between the optimum and the
    lower bound, the smaller action wins the tie.

    The search is local: `fn` should be unimodal on [lo, hi].  Callers with a
    piecewise objective (the bi-level leader search) split the interval at
    its kinks and call this once per piece.
    """
    lo, hi = float(lo), float(hi)
    if hi - lo <= foc_tol:
        return lo
    x = golden_section_max(fn, lo, hi, tol=coarse_tol)
    h = min(deriv_step * max(1.0, abs(x)), 0.25 * (hi - lo))

    def deriv(t):
        return fn(t + h) - fn(t - h)

    near = max(20.0 * coarse_tol, 2.0 * h)
    if x - lo <= near and deriv(lo + h) <= 0.0:
        return lo
    if hi - x <= near and deriv(hi - h) >= 0.0:
        x = hi
    else:
        # bracket the FOC root around the golden-section estimate
        left = max(lo + h, x - 10.0 * coarse_tol)
        right = min(hi - h, x + 10.0 * coarse_tol)
        if left < right:
            dl, dr = deriv(left), deriv(right)
            if dl > 0.0 > dr:
                x = _illinois_root(deriv, left, right, dl, dr, foc_tol)
    x = min(max(x, lo), hi)
    if x > lo and fn(lo) >= fn(x) - flat_tol:
        return lo
    return x


def _illinois_root(fn, left, right, f_left, f_right, tol):
    """Sign change of fn on [left, right] by Illinois regula falsi.

    Superlinear on smooth functions; halving the weight of an end that is
    kept twice in a row stops regula falsi from stalling on one side.
    """
    stale = None  # the end the last step kept
    for _ in range(200):
        if right - left <= tol:
            break
        mid = (left * f_right - right * f_left) / (f_right - f_left)
        if not left < mid < right:
            mid = 0.5 * (left + right)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_left > 0.0):
            left, f_left = mid, f_mid
            if stale == "right":
                f_right *= 0.5
            stale = "right"
        else:
            right, f_right = mid, f_mid
            if stale == "left":
                f_left *= 0.5
            stale = "left"
    return 0.5 * (left + right)


def latin_hypercube(rng, n_samples, n_dims):
    """Latin-hypercube sample in [0, 1]^d: one stratum per sample per dim."""
    cells = np.empty((n_samples, n_dims))
    for d in range(n_dims):
        cells[:, d] = rng.permutation(n_samples)
    return (cells + rng.uniform(size=(n_samples, n_dims))) / n_samples


def box_corners(lo, hi, cap=4096):
    """All corners of the box [lo, hi] (flattened dims), or None past `cap`."""
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    d = lo.size
    if 2**d > cap:
        return None
    grid = np.array(np.meshgrid(*[[l, h] for l, h in zip(lo, hi)], indexing="ij"))
    return grid.reshape(d, -1).T
