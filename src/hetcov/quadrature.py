"""Adaptive quadrature of the analytic engine: QUADPACK's G10/K21 rule on
batches of intervals, panels split at spike hints, and nested integrals over
ordered coordinates, whose error estimates meet one gate (_check_quadrature).
"""

from __future__ import annotations

import math

import numpy as np


class IntegrationFailure(RuntimeError):
    """An adaptive quadrature could not meet its tolerance."""


# Multiples of the spike scale where _panel_edges places its hints.
_HINT_FACTORS = np.array([0.1, 1.0, 10.0, 100.0])


def _panel_edges(upper, spike):
    """Panel edges over (0, upper), split at break-point hints bracketing an
    integrand feature of width ~spike, per entry of upper and spike (floats
    or 1-D arrays, broadcast): shape + (6,), or + (2,) for spike=None.

    Deep-tail thresholds concentrate all coverage mass in a region far
    narrower than the integration range; adaptive quadrature's initial grid
    can step straight over it. Hints at 0.1, 1, 10 and 100 times spike force
    panel boundaries there. A hint past upper moves to upper, and one of a
    zero spike sits at 0: either leaves an empty panel, which _gauss_kronrod
    skips, so every entry keeps its own panels whatever the other entries'
    hints.
    """
    upper = np.asarray(upper, dtype=float)
    if spike is None:
        return np.stack([np.zeros_like(upper), upper], axis=-1)
    edges = np.empty(np.broadcast(upper, spike).shape + (6,))
    edges[..., 0] = 0.0
    np.minimum(np.multiply.outer(spike, _HINT_FACTORS), upper[..., None], out=edges[..., 1:5])
    edges[..., 5] = upper
    return edges


# Points per integrand call, and outer rows per inner-level call of a cone
# integral. Each outer row brings 21 nodes for each of up to four pieces of
# its inner level, so 128 rows make at most ~10.8k inner nodes: the 105
# outer nodes of one threshold's first outer round fit one call, and a batch
# of thresholds makes calls of that size, so that one call's intermediates
# do not set the process's peak memory.
_CHUNK = 4096
_LEVEL_ROWS = 128

# QUADPACK's qk21 rule (Piessens et al., 1983): the 21 Kronrod nodes on
# [-1, 1] and their weights, mirrored from the nonnegative half, and the
# 10-point Gauss weights, which sit on the odd-indexed nodes.
_GK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_K21_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.r_[_GK_HALF, -_GK_HALF[-2::-1]]
_K21 = np.r_[_K21_HALF, _K21_HALF[-2::-1]]
_G10 = np.zeros(21)
_G10[1:10:2], _G10[11::2] = _G10_HALF, _G10_HALF[::-1]
_K21_G10 = _K21 - _G10
# Most pieces one interval may be cut into (QUADPACK's `limit`).
_MAX_PIECES = 200


def _chunked(f, *arrays, size: int = _CHUNK) -> np.ndarray:
    """f over the leading axis of the arrays, at most size entries per call."""
    n = len(arrays[0])
    if n <= size:
        return f(*arrays)
    return np.concatenate([f(*(a[i:i + size] for a in arrays)) for i in range(0, n, size)])


def _check_quadrature(val, err, epsabs: float, what: str, at=None):
    """Raise unless the error estimate of a nested integral meets its gate, for
    every entry of val and err (floats or arrays). `at` names the entries in
    the message: the thresholds of a batch of coverage integrals."""
    bad = np.flatnonzero(np.asarray(err) > max(epsabs * 100.0, 1e-6))
    if bad.size:
        val, err = np.broadcast_arrays(val, err)
        names = [""] * val.size if at is None else [f" at threshold {t}" for t in np.ravel(at)]
        raise IntegrationFailure(f"{what} did not converge" + "; ".join(
            f"{names[i]}: estimate {val.flat[i]}, error {err.flat[i]}" for i in bad
        ))


def _gauss_kronrod(f, a, b, epsabs: float, what: str, args=(), at=None):
    """Vectorized adaptive Gauss-Kronrod (G10/K21) quadrature of f over the
    intervals (a, b), arrays of any shape with args broadcast against them.

    Each round evaluates every live piece of every interval in one call,
    f(x, *args) with x an (n, 21) array of nodes and each arg an (n, 1)
    column, and returns (n, 21) values or (n, 21, ...) vectors. A piece's
    error estimate is the largest component of |K21 - G10|. A piece whose error
    exceeds its share of epsabs is bisected, each half taking half the
    share, until every piece meets its share or the interval's summed error
    meets epsabs. Returns per-interval integrals and error estimates; a
    non-finite integrand value, or an interval that would need more than
    _MAX_PIECES pieces, raises; `at`, broadcast like args, names the
    intervals' thresholds in the latter message.
    """
    a, b, *args = np.broadcast_arrays(a, b, *args)
    shape = a.shape
    lo, hi = a.astype(float).ravel(), b.astype(float).ravel()
    args = [x.ravel() for x in args]
    n = lo.size
    owner = np.flatnonzero(hi > lo)  # an empty interval adds nothing
    lo, hi, share = lo[owner], hi[owner], np.full(owner.size, float(epsabs))
    val, err, pieces = np.zeros(n), np.zeros(n), np.ones(n, dtype=np.int64)
    while owner.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * _GK_NODES, *(x[owner, None] for x in args))
        if not np.isfinite(fx).all():
            raise IntegrationFailure(f"{what}: non-finite integrand value")
        if fx.ndim == 2:  # one value per node
            kronrod, piece_err = half * (fx @ _K21), half * np.abs(fx @ _K21_G10)
        else:  # vectors: nodes last, after the trailing axes
            fx = np.moveaxis(fx, 1, -1)
            kronrod = half.reshape((-1,) + (1,) * (fx.ndim - 2)) * (fx @ _K21)
            piece_err = half * np.abs(fx @ _K21_G10).reshape(len(half), -1).max(axis=1)
        if val.shape[1:] != kronrod.shape[1:]:  # the first round fixes the trailing axes
            val = np.zeros((n,) + kronrod.shape[1:])
        # the summed test ends an interval whose error is set by an integrable
        # endpoint singularity: there a piece's error falls slower than its share
        total_err = err + np.bincount(owner, piece_err, minlength=n)
        done = (piece_err <= share) | (total_err[owner] <= epsabs)
        if val.ndim == 1:
            val += np.bincount(owner[done], kronrod[done], minlength=n)
        else:
            gained = np.zeros_like(val)  # summed per interval first, as bincount would
            np.add.at(gained, owner[done], kronrod[done])
            val += gained
        err += np.bincount(owner[done], piece_err[done], minlength=n)
        if done.all():
            break
        split = ~done
        owner, lo, mid, hi, share = (x[split] for x in (owner, lo, mid, hi, share))
        pieces += np.bincount(owner, minlength=n)
        over = pieces > _MAX_PIECES
        if over.any():
            where = "" if at is None else " at threshold " + ", ".join(
                map(str, np.unique(np.broadcast_to(at, shape).ravel()[over]).tolist())
            )
            raise IntegrationFailure(
                f"{what} did not converge within {_MAX_PIECES} pieces on "
                f"{int(over.sum())} of {n} intervals{where}: error estimate "
                f"{total_err[over][:3].tolist()}"
            )
        owner, share = np.concatenate([owner, owner]), np.concatenate([share, share]) / 2.0
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return val.reshape(shape + val.shape[1:]), err.reshape(shape)


def _panel_integral(f, upper, epsabs: float, what: str, spike=None, at=None):
    """(integral, error estimate) of f over (0, upper) by adaptive
    Gauss-Kronrod on panels split at the spike hints (_panel_edges), one pair
    per entry of upper and spike (floats or 1-D arrays, broadcast). f(x, key)
    maps a 1-D array of nodes, at most _CHUNK of them per call, and the
    index of each node's entry, to their values; `at` names the entries in
    a piece-budget failure."""
    edges = _panel_edges(upper, spike)
    lo, hi = edges[..., :-1], edges[..., 1:]
    key = np.arange(lo.size // lo.shape[-1]).repeat(lo.shape[-1]).reshape(lo.shape)

    def over_panels(x, key):
        return _chunked(f, x.ravel(), key.repeat(x.shape[-1], axis=-1).ravel()).reshape(x.shape)

    val, err = _gauss_kronrod(
        over_panels, lo, hi, epsabs, what, args=(key,), at=None if at is None else at[..., None]
    )
    return val.sum(axis=-1), err.sum(axis=-1)


def _cone_levels(f, z_edges, epsabs: float, what: str, inner_err: list, at=None):
    """level(i, outer, key): the integral of f over t_1..t_i given the rows
    `outer` of (t_(i+1), ...) and the entry `key` of each row. Level i runs
    z_i = t_i/t_(i+1) over the pieces between the edges
    z_edges(i, outer, key), one row per outer row, as one batched
    _gauss_kronrod call per _LEVEL_ROWS outer rows, and carries the Jacobian
    t_(i+1). f(rows, key) maps
    an (n, m) array of rows and their entries to n values or n rows of
    values, at most _CHUNK rows per call. inner_err[i][e] keeps the largest
    error of level i over the rows of entry e, so that an entry's gate does
    not depend on the entries integrated beside it; at[e] names entry e in a
    piece-budget failure."""

    def level(i, outer, key):
        if i == 0:
            return f(outer, key)
        return _chunked(lambda o, k: one_level(i, o, k), outer, key, size=_LEVEL_ROWS)

    def one_level(i, outer, key):
        t_next = outer[:, 0]
        edges = z_edges(i, outer, key)

        def over_z(z, row):
            tail = np.broadcast_to(outer[row], z.shape + outer.shape[1:])
            rows = np.concatenate([(z * t_next[row])[..., None], tail], axis=-1)
            values = _chunked(
                lambda r, k: level(i - 1, r, k),
                rows.reshape(-1, rows.shape[-1]), key[row].repeat(z.shape[-1], axis=-1).ravel(),
            )
            return values.reshape(z.shape + values.shape[1:])

        val, err = _gauss_kronrod(
            over_z, edges[:, :-1], edges[:, 1:], epsabs, f"{what} (inner)",
            args=(np.arange(len(t_next))[:, None],), at=None if at is None else at[key, None],
        )
        np.maximum.at(inner_err[i], key, err.sum(axis=-1))
        val = val.sum(axis=1)
        return t_next.reshape((-1,) + (1,) * (val.ndim - 1)) * val

    return level


def _nested_integral(levels: int, f, z_edges, outer, upper, epsabs: float, what: str,
                     spike=None, at=None):
    """(integral, error estimate) of outer(x, key, inner) over x in (0, upper)
    on _panel_integral, one pair per entry of upper and spike (floats or 1-D
    arrays, broadcast). inner(rows, key) integrates f over `levels` inner
    levels of _cone_levels, on pieces between z_edges, given the rows of the
    coordinates above them. The error is the outer estimate plus the
    largest error of each inner level over the entry's rows: the weights an
    inner level's result is integrated against integrate to at most 1. Each
    entry's error must meet the gate (_check_quadrature), named by `at`.
    """
    shape = np.broadcast(upper, 0.0 if spike is None else spike).shape
    inner_err = [np.zeros(math.prod(shape)) for _ in range(levels + 1)]
    level = _cone_levels(f, z_edges, epsabs, what, inner_err, None if at is None else np.ravel(at))
    val, err = _panel_integral(
        lambda x, key: outer(x, key, lambda rows, key: level(levels, rows, key)),
        upper, epsabs, what, spike, at,
    )
    err = err + sum(inner_err).reshape(shape)
    _check_quadrature(val, err, epsabs, what, at)
    return val, err


def _cone_integral(
    k: int, f, upper, epsabs: float, what: str, spike=None, rate: float = 1.0, at=None
):
    """(integral, error estimate) of E[f(t_1..t_k)] over the first k arrival
    times of a unit-rate Poisson process: f(t) * exp(-t_k) over the ordered
    cone 0 < t_1 < ... < t_k < upper. A rate other than 1 weights by
    exp(-rate * t_k) instead; rate = 0 integrates f alone. f(t, key) maps an
    (n, k) array of ascending rows and the entry of each row to n values, at
    most _CHUNK rows per call.

    upper and spike are floats or 1-D arrays, broadcast: one integral per
    entry, each on its own pieces and with its own error estimate, as if
    integrated alone, and checked against the gate (_nested_integral). t_k
    runs outermost on the panels of _panel_integral. Each inner level
    i = k-1..1 runs z_i = t_i/t_(i+1) over (0, 1), split at z = spike/t_(i+1)
    and 10*spike/t_(i+1). spike hints the arrival coordinate where f
    concentrates (a coverage kernel at a deep-tail threshold is a narrow
    peak the first round would miss).
    """
    if spike is not None:  # one per entry
        spikes = np.broadcast_to(spike, np.broadcast(upper, spike).shape).ravel()

    def z_edges(i, outer, key):
        t_next = outer[:, 0]
        z_hints = np.empty((len(t_next), 0))
        if spike is not None:
            s = spikes[key]
            with np.errstate(divide="ignore"):
                z_hints = np.sort([
                    np.minimum(s / t_next, 1.0),
                    np.where(s < t_next, np.minimum(10.0 * s / t_next, 0.5), 1.0),
                ], axis=0).T
        return np.column_stack([np.zeros_like(t_next), z_hints, np.ones_like(t_next)])

    def weighted(t_k, key, inner):
        return np.exp(-rate * t_k) * inner(t_k[:, None], key)

    return _nested_integral(k - 1, f, z_edges, weighted, upper, epsabs, what, spike, at)
