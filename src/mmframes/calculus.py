"""Spectral functional calculus, cutoff symbols and localization checks.

Operators f(delta*sqrt(L)) are realized exactly through the eigenbasis of L
in the mu-weighted inner product.  A kernel table K acts by integration
against mu: (Kf)(x) = sum_y K(x,y) f(y) mu(y).
"""

from dataclasses import dataclass, field

import numpy as np

from mmframes.space import ModelSpace, ball_volumes


def nonzero_span(mask) -> tuple:
    """[lo, hi) from the first to the last nonzero entry of mask, or (0, 0)
    when there is none."""
    r = np.flatnonzero(mask)
    return (int(r[0]), int(r[-1]) + 1) if r.size else (0, 0)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of L in the mu-inner product.

    eigenvalues ascending with eigenvalues[0] = 0; eigenfunctions stored as
    columns, mu-orthonormal.
    """

    space: ModelSpace
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # (n, n), columns e_i
    nullspace_dim: int

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_2(self) -> float:
        """Smallest nonzero eigenvalue."""
        nz = self.eigenvalues[self.eigenvalues > 1e-12 * max(1.0, self.lambda_max)]
        return float(nz[0])

    def coefficients(self, f) -> np.ndarray:
        """mu-inner products <f, e_i> for all i; an (n, k) f gives one
        column of coefficients per column of f."""
        f = np.asarray(f)
        mu = self.space.mu if f.ndim == 1 else self.space.mu[:, None]
        return self.eigenfunctions.T @ (mu * f)

    def synthesize(self, coeffs) -> np.ndarray:
        return self.eigenfunctions @ np.asarray(coeffs)

    def basis_defect(self) -> float:
        """||E^T M E - I||_inf (largest absolute row sum)."""
        E = self.eigenfunctions
        D = E.T @ (self.space.mu[:, None] * E) - np.eye(len(E))
        return float(np.abs(D).sum(axis=1).max())

    def symbol(self, fn, scale=1.0) -> np.ndarray:
        """fn(scale*sqrt(lambda_i)) for every eigenvalue, in one vectorized
        call: (n,) for one scale, and the (n, L) table with one column per
        scale for a 1-D array of L scales; a scalar result is broadcast."""
        u = np.multiply.outer(np.sqrt(self.eigenvalues), scale)
        return np.broadcast_to(np.asarray(fn(u), dtype=float), u.shape).copy()

    def apply(self, values, f) -> np.ndarray:
        """Synthesis of symbol values times the coefficients of f.

        values is (n,) or (n, L), one symbol per column; f is (n,) or an
        (n, k) table of functions.  Every symbol is applied to every
        function: the result is (n,), (n, k), (n, L) or (n, L, k).
        """
        values = np.asarray(values, dtype=float)
        c = self.coefficients(f)
        n = len(c)
        prod = values.reshape(values.shape + (1,) * (c.ndim - 1)) * \
            c.reshape((n,) + (1,) * (values.ndim - 1) + c.shape[1:])
        return self.synthesize(prod.reshape(n, -1)).reshape(prod.shape)

    def kernel(self, values, points=slice(None)) -> np.ndarray:
        """Columns at points of the kernel table E diag(values) E^T, which
        acts by integration against mu, summed over the span of values'
        nonzero entries (nonzero_span): every term outside it is 0."""
        values = np.asarray(values)
        lo, hi = nonzero_span(values)
        E = self.eigenfunctions[:, lo:hi]
        return (E * values[None, lo:hi]) @ E[points].T

    def project_mean_zero(self, f) -> np.ndarray:
        """Remove the nullspace (constant) component."""
        c = self.coefficients(f)
        c[: self.nullspace_dim] = 0.0
        return self.synthesize(c)


def eigendecompose(space: ModelSpace) -> SpectralData:
    """Symmetric eigendecomposition of L in the mu-inner product.

    Symmetrizes with diag(sqrt(mu)): H = S L S^{-1} with S = diag(sqrt(mu))
    is plainly symmetric, and e_i = S^{-1} v_i are mu-orthonormal.
    """
    s = np.sqrt(space.mu)
    # E is returned; H, V and LAPACK's workspace are freed here.  E is
    # allocated first, so their freed memory is not left as a hole below it
    # in the heap
    E = np.empty_like(space.L)
    H = s[:, None] * space.L / s[None, :]
    H = (H + H.T) / 2.0
    w, V = np.linalg.eigh(H)
    w = np.where(np.abs(w) < 1e-12 * max(1.0, np.abs(w).max()), 0.0, w)
    if w[0] < 0:
        raise ValueError("negative eigenvalue: L not PSD")
    np.divide(V, s[:, None], out=E)
    del H, V
    # fix signs deterministically: first nonzero component positive
    for i in range(E.shape[1]):
        col = E[:, i]
        nz = col[np.abs(col) > 1e-12 * np.abs(col).max()]
        if nz.size and nz[0] < 0:
            E[:, i] = -col
    nullspace_dim = int(np.sum(w == 0.0))
    data = SpectralData(space=space, eigenvalues=w, eigenfunctions=E,
                        nullspace_dim=nullspace_dim)
    # reconstruction guard
    R = data.kernel(w) * space.mu[None, :]
    scale = max(1.0, np.abs(space.L).max())
    if np.abs(R - space.L).max() > 1e-9 * scale:
        raise ValueError("eigendecomposition reconstruction failed")
    return data


# ---------------------------------------------------------------------------
# cutoff symbols


def _smooth_step(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1, and NaN on a NaN.

    It is g(1 - t) / (g(1 - t) + g(t)), g(u) = exp(-1/u) taken as 0 for
    u <= 1/708, where it is below 3.3e-308: a subnormal value carries no
    precision and slows every product that reads a table of it.  So it is
    exactly 1 or 0 unless both are nonzero, the only place the exps run."""
    t = np.asarray(t, dtype=float)
    u = 1.0 - t
    a, bq = u > 1 / 708, t > 1 / 708
    out = np.where(a, 1.0, np.where(bq, 0.0, np.nan))
    mid = a & bq
    a, bq = np.exp(-1.0 / u[mid]), np.exp(-1.0 / t[mid])
    out[mid] = a / (a + bq)
    return out[()]


@dataclass(frozen=True)
class Cutoff:
    b: float
    _fn: object = field(repr=False, default=None)

    def __call__(self, u):
        return self._fn(np.abs(u))


def make_cutoff(kind: str, b: float = 2.0) -> Cutoff:
    """Closed-form smooth cutoffs.

    (a) low-pass: 1 on [0,1], smooth transition on (1,b), 0 beyond.
    (b) band-pass: phi(u) = Phi(u) - Phi(b*u), supported in [1/b, b].
    (c) band-pass with sum_j |phi(b^{-j} t)|^2 = 1 on (0, inf), obtained by
        normalizing the type (b) bump against its dyadic quadratic sum.
    """
    if b <= 1:
        raise ValueError("base must exceed 1")

    def low(u):
        u = np.abs(np.asarray(u, dtype=float))
        return _smooth_step((u - 1.0) / (b - 1.0))

    if kind == "a":
        return Cutoff(b=b, _fn=low)

    def band(u):
        return low(u) - low(np.asarray(u, dtype=float) * b)

    if kind == "b":
        return Cutoff(b=b, _fn=band)
    if kind == "c":

        def norm_band(u):
            u = np.atleast_1d(np.abs(np.asarray(u, dtype=float)))
            out = np.zeros_like(u)
            pos = u > 0
            if np.any(pos):
                up = u[pos]
                total = np.zeros_like(up)
                # only levels with b^{-j} u in (1/b, b) contribute: those
                # within one of j0 = floor(log_b u), summed in ascending order
                j0 = np.floor(np.log(up) / np.log(b))
                for j in j0 + np.arange(-2, 3)[:, None]:
                    total += band(b ** (-j) * up) ** 2
                out[pos] = band(up) / np.sqrt(total)
            return out if out.shape != (1,) else float(out[0])

        return Cutoff(b=b, _fn=norm_band)
    raise ValueError("kind must be 'a', 'b' or 'c'")


# ---------------------------------------------------------------------------
# level window and telescoping


# a log_b sqrt(lambda) this close to an integer is a power of b up to
# rounding: it sits on a band edge, where every band symbol is flat 0
WINDOW_EDGE = 1e-9


def level_window(spec: SpectralData, b: float = 2.0) -> tuple:
    """Live window [j_min, j_max] covering the nonzero spectrum:
    j_max = ceil(log_b sqrt(lambda_max)), j_min = floor(log_b
    sqrt(lambda_2)), so both end bands (b^{j-1}, b^{j+1}) meet the spectrum;
    the levels beyond them would be zero."""
    logb = np.log(b)
    j_max = int(np.ceil(np.log(np.sqrt(spec.lambda_max)) / logb - WINDOW_EDGE))
    j_min = int(np.floor(np.log(np.sqrt(spec.lambda_2)) / logb + WINDOW_EDGE))
    return j_min, j_max


def level_bands(spec: SpectralData, Phi: Cutoff, window) -> tuple:
    """(Psi, g): (n, L) tables, one column per level j of the window, of the
    primal band symbol Psi_j = Phi(b^{-j} .) - Phi(b^{1-j} .), nonzero on
    (b^{j-1}, b^{j+1}), and the dual band symbol g_j = Phi(b^{-j-1} .) -
    Phi(b^{2-j} .), 1 on the primal band and nonzero on (b^{j-2}, b^{j+2}),
    both at sqrt(lambda) from one symbol call, b = Phi.b.  Each is exactly 0
    off its band."""
    j_min, j_max = window
    b = Phi.b
    scales = np.array([b ** (-j) for j in range(j_min - 2, j_max + 2)])
    vals = spec.symbol(Phi, scales)
    return vals[:, 2:-1] - vals[:, 1:-2], vals[:, 3:] - vals[:, :-3]


def telescope(spec: SpectralData, Phi: Cutoff, window, f) -> np.ndarray:
    """Windowed multiscale sum: sum_j Psi_j(sqrt(L)) f (level_bands); equals
    the mean-zero part of f when the window covers the nonzero spectrum."""
    total = np.zeros(len(spec.eigenvalues))
    for band in level_bands(spec, Phi, window)[0].T:
        total += band
    return spec.apply(total, f)


# ---------------------------------------------------------------------------
# localization / finite-speed measurements


def measure_localization(table, delta: float, N, space: ModelSpace) -> dict:
    """Effective localization constants A_N_eff = max over (x,y) of
    |K(x,y)| * sqrt(|B(x,delta)| |B(y,delta)|) * (1 + rho/delta)^N for the
    kernel table K, for a ladder of decay orders N."""
    vols = ball_volumes(space, delta)
    vb = np.sqrt(vols[:, None] * vols[None, :])
    out = {}
    for order in np.atleast_1d(N):
        w = (1.0 + space.dist / delta) ** float(order)
        out[float(order)] = float(np.abs(table * vb * w).max())
    return out


# an entry below this fraction of its table's (or column's) largest is
# outside the effective support
SUPPORT_THRESHOLD = 1e-9


def effective_support_radius(table, space: ModelSpace,
                             points=slice(None)) -> float:
    """Largest rho(x,y) with |table(x,y)| > SUPPORT_THRESHOLD * max|table|,
    for a table whose columns are the kernel's at points (all by default)."""
    K = np.abs(table)
    kmax = K.max()
    if kmax == 0:
        return 0.0
    live = K > SUPPORT_THRESHOLD * kmax
    return float(space.dist[:, points][live].max())


# ---------------------------------------------------------------------------
# geometric (Neumann) series

NEUMANN_TAIL = 1e-12  # stop once ||next term||_F / ||first term||_F is below
NEUMANN_CAP = 500     # most terms one series may take


def neumann_series(step) -> tuple:
    """Sum I + step + step @ step + ... in order, until the next power's
    Frobenius norm is below NEUMANN_TAIL times step's; returns (total,
    terms, that ratio), terms the number of powers added.  RuntimeError
    when five terms running barely shrink (the series diverges), or at
    NEUMANN_CAP terms.  A 1-D step is a diagonal matrix's diagonal, and
    the series is summed on it elementwise.

    The first power is step itself; each later one is the power before it
    @ step."""
    total = np.eye(len(step)) if step.ndim == 2 else np.ones(len(step))
    first = np.linalg.norm(step)
    if first == 0:
        return total, 0, 0.0
    term, prev, stall = step, first, 0
    for terms in range(1, NEUMANN_CAP + 1):
        total += term
        term = term @ step if step.ndim == 2 else term * step
        cur = np.linalg.norm(term)
        stall = stall + 1 if cur > 0.999 * prev else 0
        if stall >= 5:
            raise RuntimeError("Neumann series diverges")
        prev = cur
        if cur / first < NEUMANN_TAIL:
            return total, terms, cur / first
    raise RuntimeError(f"Neumann series did not settle in {NEUMANN_CAP} terms")
