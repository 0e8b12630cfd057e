"""Scalar maximization for the priced leader search's reaction pieces."""

import numpy as np

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
_COARSE_TOL = 1e-7   # golden-section bracket width
_FOC_TOL = 1e-12     # first-order-condition root bracket width
_DERIV_STEP = 1e-5   # central-difference step, relative to max(1, |x|)
_FLAT_TOL = 1e-12    # value gap within which the lower bound wins a tie


def golden_section_max(fn, lo, hi):
    """Argmax of a unimodal scalar function on [lo, hi] by golden section."""
    a, b = float(lo), float(hi)
    if b - a <= _COARSE_TOL:
        return 0.5 * (a + b)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _COARSE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def maximize_scalar(fn, lo, hi):
    """High-accuracy scalar maximization: golden section + a root search on the FOC.

    Golden section localizes the maximum; Illinois regula falsi on the central
    finite-difference derivative then refines interior optima well past the
    sqrt(machine-eps) limit of value-only comparisons.  Optima at the box
    edges are snapped onto them (the derivative keeps pointing outward there).
    When the objective is flat (within `_FLAT_TOL`) between the optimum and
    the lower bound, the smaller action wins the tie.

    The search is local: `fn` should be unimodal on [lo, hi].  Callers with a
    piecewise objective (the bi-level leader search) split the interval at
    its kinks and call this once per piece.
    """
    lo, hi = float(lo), float(hi)
    if hi - lo <= _FOC_TOL:
        return lo
    x = golden_section_max(fn, lo, hi)
    h = min(_DERIV_STEP * max(1.0, abs(x)), 0.25 * (hi - lo))

    def deriv(t):
        return fn(t + h) - fn(t - h)

    near = max(20.0 * _COARSE_TOL, 2.0 * h)
    if x - lo <= near and deriv(lo + h) <= 0.0:
        return lo
    if hi - x <= near and deriv(hi - h) >= 0.0:
        x = hi
    else:
        # bracket the FOC root around the golden-section estimate
        left = max(lo + h, x - 10.0 * _COARSE_TOL)
        right = min(hi - h, x + 10.0 * _COARSE_TOL)
        if left < right:
            dl, dr = deriv(left), deriv(right)
            if dl > 0.0 > dr:
                x = _illinois_root(deriv, left, right, dl, dr)
    x = min(max(x, lo), hi)
    if x > lo and fn(lo) >= fn(x) - _FLAT_TOL:
        return lo
    return x


def _illinois_root(fn, left, right, f_left, f_right):
    """Sign change of fn on [left, right] by Illinois regula falsi.

    Superlinear on smooth functions; halving the weight of an end that is
    kept twice in a row stops regula falsi from stalling on one side.
    """
    stale = None  # the end the last step kept
    for _ in range(200):
        if right - left <= _FOC_TOL:
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
