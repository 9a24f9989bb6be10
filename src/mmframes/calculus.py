"""Spectral functional calculus, cutoff symbols and localization checks.

Operators f(delta*sqrt(L)) are realized exactly through the eigenbasis of L
in the mu-weighted inner product.  Kernels follow the convention
(Kf)(x) = sum_y K(x,y) f(y) mu(y).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from mmframes.space import ModelSpace


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

    def symbol(self, fn, scale: float = 1.0) -> np.ndarray:
        """fn(scale*sqrt(lambda_i)) for every eigenvalue, in one vectorized
        call; a scalar result is broadcast."""
        u = scale * np.sqrt(self.eigenvalues)
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
        acts by integration against mu."""
        E = self.eigenfunctions
        return (E * np.asarray(values)[None, :]) @ E[points].T

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
    H = s[:, None] * space.L / s[None, :]
    H = (H + H.T) / 2.0
    w, V = eigh(H)
    w = np.where(np.abs(w) < 1e-12 * max(1.0, np.abs(w).max()), 0.0, w)
    if w[0] < 0:
        raise ValueError("negative eigenvalue: L not PSD")
    E = V / s[:, None]
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


@dataclass(frozen=True)
class Kernel:
    """Two-point kernel acting by integration against mu."""

    table: np.ndarray
    band: tuple  # (lo, hi) in sqrt(L) units; smallest interval of live modes

    def apply(self, space: ModelSpace, f) -> np.ndarray:
        return self.table @ (space.mu * np.asarray(f))


def apply_symbol(spec: SpectralData, f, delta: float = 1.0) -> Kernel:
    """Kernel of f(delta*sqrt(L)): K = E diag(f(delta*sqrt(lam))) E^T."""
    vals = spec.symbol(f, delta)
    live = np.abs(vals) > 1e-14 * max(1.0, np.abs(vals).max())
    if np.any(live):
        roots = np.sqrt(spec.eigenvalues[live])
        band = (float(roots.min()), float(roots.max()))
    else:
        band = (0.0, 0.0)
    return Kernel(table=spec.kernel(vals), band=band)


def apply_L_power(spec: SpectralData, g, m: int, mod_nullspace=False) -> np.ndarray:
    """L^m g for a function or an (n, k) column table; negative m requires
    mod_nullspace and mean-zero columns."""
    lam = spec.eigenvalues
    nz = lam > 0
    if m < 0:
        if not mod_nullspace:
            raise ValueError("negative powers need mod_nullspace")
        c = spec.coefficients(g)
        null_mass = np.abs(c[~nz]).max() if np.any(~nz) else 0.0
        if null_mass > 1e-10 * max(1.0, np.abs(c).max()):
            raise ValueError("negative power on a function with nullspace component")
    vals = np.zeros_like(lam)
    vals[nz] = lam[nz] ** m
    vals[~nz] = 1.0 if m == 0 else 0.0
    return spec.apply(vals, g)


# ---------------------------------------------------------------------------
# cutoff symbols


def _smooth_step(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)

    def g(u):
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            return np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)

    a, bq = g(1.0 - t), g(t)
    return a / (a + bq)


@dataclass(frozen=True)
class Cutoff:
    kind: str  # "a" | "b" | "c"
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
        return Cutoff(kind="a", b=b, _fn=low)

    def band(u):
        return low(u) - low(np.asarray(u, dtype=float) * b)

    if kind == "b":
        return Cutoff(kind="b", b=b, _fn=band)
    if kind == "c":

        def norm_band(u):
            u = np.atleast_1d(np.abs(np.asarray(u, dtype=float)))
            out = np.zeros_like(u)
            pos = u > 0
            if np.any(pos):
                up = u[pos]
                total = np.zeros_like(up)
                # only levels with b^{-j} u in (1/b, b) contribute
                jlo = np.floor(np.log(up.min()) / np.log(b)) - 2
                jhi = np.ceil(np.log(up.max()) / np.log(b)) + 2
                for j in np.arange(jlo, jhi + 1):
                    total += band(b ** (-j) * up) ** 2
                out[pos] = band(up) / np.sqrt(total)
            return out if out.shape != (1,) else float(out[0])

        return Cutoff(kind="c", b=b, _fn=norm_band)
    raise ValueError("kind must be 'a', 'b' or 'c'")


def _logistic(z):
    """1/(1 + exp(-z)) without overflow for large |z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _lowpass_jet(x, b: float, order: int):
    """Taylor coefficients y_0..y_order in t of the transition bump.

    On (1, b) the type (a) cutoff is y = logistic(s) with
    s = 1/t - 1/(1-t) and t = (x-1)/(b-1).  The Taylor coefficients of s
    are (-1)^k t^{-k-1} - (1-t)^{-k-1}, and y' = y (1-y) s' gives those of
    y by Cauchy products; 1-y is carried separately as logistic(-s) so the
    plateau ends keep full relative precision.
    """
    t = (x - 1.0) / (b - 1.0)
    s = [(-1.0) ** k / t ** (k + 1) - 1.0 / (1.0 - t) ** (k + 1)
         for k in range(order + 1)]
    y = [_logistic(s[0])]
    w = [_logistic(-s[0])]  # Taylor coefficients of 1 - y
    z = []  # Taylor coefficients of y (1 - y)
    for k in range(order):
        z.append(sum(y[i] * w[k - i] for i in range(k + 1)))
        y.append(sum(z[i] * (k - i + 1) * s[k - i + 1] for i in range(k + 1))
                 / (k + 1))
        w.append(-y[-1])
    return y


def lowpass_derivatives(b: float, max_order: int):
    """Analytic derivatives of the type (a) cutoff, from the closed-form
    Taylor jet of the transition bump; returns callables for orders
    0..max_order."""

    def make(k):

        def f(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.zeros_like(x)
            if k == 0:
                out[x <= 1.0] = 1.0
            inside = (x > 1.0 + 1e-9) & (x < b - 1e-9)
            if np.any(inside):
                yk = _lowpass_jet(x[inside], b, k)[k]
                out[inside] = math.factorial(k) * yk / (b - 1.0) ** k
            return out

        return f

    return [make(k) for k in range(max_order + 1)]


def band_derivatives(b: float, max_order: int):
    """Analytic derivatives of the band symbol Phi(u) - Phi(b*u)."""
    low = lowpass_derivatives(b, max_order)

    def make(k):
        fk = low[k]

        def f(x):
            x = np.asarray(x, dtype=float)
            return fk(x) - b**k * fk(b * x)

        return f

    return [make(k) for k in range(max_order + 1)]


# ---------------------------------------------------------------------------
# level window and telescoping


def level_window(spec: SpectralData, b: float = 2.0) -> tuple:
    """Default window [j_min, j_max] covering the nonzero spectrum:
    j_max = ceil(log_b sqrt(lambda_max)) + 1, j_min = floor(log_b
    sqrt(lambda_2)) - 1."""
    logb = np.log(b)
    j_max = int(np.ceil(np.log(np.sqrt(spec.lambda_max)) / logb)) + 1
    j_min = int(np.floor(np.log(np.sqrt(spec.lambda_2)) / logb)) - 1
    return j_min, j_max


def telescope(spec: SpectralData, Phi: Cutoff, b: float, window, f) -> np.ndarray:
    """Windowed multiscale sum: sum_j Psi(b^{-j} sqrt(L)) f with
    Psi(u) = Phi(u) - Phi(b u); equals the mean-zero part of f when the
    window covers the nonzero spectrum."""
    j_min, j_max = window
    total = np.zeros(len(spec.eigenvalues))
    for j in range(j_min, j_max + 1):
        total += spec.symbol(Phi, b ** (-j)) - spec.symbol(Phi, b ** (-j + 1))
    return spec.apply(total, f)


# ---------------------------------------------------------------------------
# localization / finite-speed measurements


def measure_localization(kernel: Kernel, delta: float, N, space: ModelSpace) -> dict:
    """Effective localization constants A_N_eff = max over (x,y) of
    |K(x,y)| * sqrt(|B(x,delta)| |B(y,delta)|) * (1 + rho/delta)^N,
    for a ladder of decay orders N."""
    from mmframes.space import ball_volumes

    vols = ball_volumes(space, delta)
    vb = np.sqrt(vols[:, None] * vols[None, :])
    out = {}
    for order in np.atleast_1d(N):
        w = (1.0 + space.dist / delta) ** float(order)
        out[float(order)] = float(np.abs(kernel.table * vb * w).max())
    return out


def fit_speed_constant(spec: SpectralData, times=(0.5, 1.0, 2.0)) -> float:
    """Calibrate the propagation constant c_tilde from the heat kernel.

    Fits the Gaussian envelope |p_t(x,y)| <= C exp(-c_star rho^2 / t) as a
    lower envelope of t*(-log relative kernel)/rho^2 and returns
    c_tilde = 1 / (2 sqrt(c_star)).
    """
    space = spec.space
    cstars = []
    for t in times:
        K = apply_symbol(spec, lambda u: np.exp(-(u**2)), delta=np.sqrt(t)).table
        rel = np.abs(K) / np.abs(K).max()
        mask = (space.dist > 0) & (rel > 1e-280) & (rel < 1.0)
        if not np.any(mask):
            continue
        vals = t * (-np.log(rel[mask])) / space.dist[mask] ** 2
        cstars.append(float(vals.min()))
    if not cstars:
        return 1.0
    c_star = min(cstars)
    return 1.0 / (2.0 * np.sqrt(c_star))


def effective_support_radius(kernel: Kernel, space: ModelSpace,
                             threshold: float = 1e-9) -> float:
    """Largest rho(x,y) with |K(x,y)| > threshold * max|K|."""
    K = np.abs(kernel.table)
    kmax = K.max()
    if kmax == 0:
        return 0.0
    live = K > threshold * kmax
    return float(space.dist[live].max())
