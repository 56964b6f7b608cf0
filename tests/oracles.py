"""Independent high-precision oracles used by the test suite.

Everything here goes through mpmath and deliberately avoids the package's
own quadrature and 2F1 code, so agreement between the two is meaningful.
"""

import mpmath as mp

from hyperk import PowFn, ProductFn, SumFn, TabulatedFn


def mp_2f1(a, b, c, z, dps=40):
    """Reference 2F1 value as a float."""
    with mp.workdps(dps):
        return float(mp.hyp2f1(a, b, c, z))


def mp_log_gamma(x, dps=40):
    """Reference log-gamma value as a float."""
    with mp.workdps(dps):
        return float(mp.loggamma(x))


def series_2f1(a, b, c, z, dps=40, max_terms=200000):
    """Plain power-series 2F1 summed in high precision.

    Slower than mp.hyp2f1 but structurally independent of any
    transformation tricks; converges for |z| < 1 and at z = 1 when
    c - a - b > 0.
    """
    with mp.workdps(dps):
        ma, mb, mc, mz = mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(z)
        term = mp.mpf(1)
        acc = mp.mpf(1)
        for n in range(max_terms):
            term *= (ma + n) * (mb + n) / ((mc + n) * (n + 1)) * mz
            acc += term
            if abs(term) < abs(acc) * mp.mpf(10) ** (-dps - 5) and n > 4:
                return float(acc)
        raise RuntimeError("series oracle did not converge")


def breakpoints(fs, x):
    """Interior kink locations of fs on (0, x)."""
    pts = set()
    if isinstance(fs, TabulatedFn):
        pts.update(b for b in fs.breakpoints if 0.0 < b < x)
    elif isinstance(fs, (SumFn, ProductFn)):
        for p in fs.parts:
            pts.update(breakpoints(p, x))
    elif isinstance(fs, PowFn):
        pts.update(breakpoints(fs.base, x))
    return pts


def oracle_u(params, f, x, dps=30):
    """I[f](x) by high-precision quadrature on the u-substituted integral."""
    return oracle_images(params, (f,), x, dps)[0]


def oracle_images(params, fs, x, dps=30):
    """[I[f](x) for f in fs], each equal bit for bit to oracle_u(params, f, x).

    The integrand's f-free factors, u^mu (1-u)^(alpha-1) F(u), du/dy and the
    node tau, are evaluated once per quadrature node y and shared by every f:
    integrands with the same breakpoints have mp.quad visit the same nodes.
    """
    alpha, beta_, eta, mu, k = (params.alpha, params.beta, params.eta,
                                params.mu, params.k)
    a = alpha + beta_ + mu
    b = -eta
    s = eta - beta_ - mu
    kp1 = k + 1.0
    with mp.workdps(dps):
        malpha, ma, mb = mp.mpf(alpha), mp.mpf(a), mp.mpf(b)
        ms, mmu = mp.mpf(s), mp.mpf(mu)
        P = 1.0 / (mu + 1.0 + min(s, 0.0))
        mP = mp.mpf(P)

        def F_factor(u):
            # 2F1(a, b; alpha; 1-u); Euler transform keeps the u->0 blowup
            # explicit as u^s when s < 0
            if abs(s) < 1e-12 and u < 1e-4:
                # log case (alpha = a+b): series in u with explicit ln u,
                # needed because 1-u rounds to 1 once u is tiny
                acc = mp.mpf(0)
                n = 0
                term = mp.mpf(1)
                lnu = mp.log(u)
                while True:
                    coef = term * (2 * mp.psi(0, n + 1) - mp.psi(0, ma + n)
                                   - mp.psi(0, mb + n) - lnu)
                    acc += coef
                    if n > 4 and abs(coef) < abs(acc) * mp.mpf(10) ** (-dps - 5):
                        break
                    term *= (ma + n) * (mb + n) / (n + 1) ** 2 * u
                    n += 1
                return mp.gamma(malpha) / (mp.gamma(ma) * mp.gamma(mb)) * acc
            if s < 0:
                return u ** ms * mp.hyp2f1(malpha - ma, malpha - mb, malpha, 1 - u)
            return mp.hyp2f1(ma, mb, malpha, 1 - u)

        factors = {}

        def f_free(y):
            if y not in factors:
                u = y ** mP
                factors[y] = (u ** mmu * (1 - u) ** (malpha - 1) * F_factor(u),
                              mP * y ** (mP - 1),
                              float(x * u ** (1.0 / mp.mpf(kp1))))
            return factors[y]

        def image(f):
            def integrand(y):
                kernel, du, tau = f_free(y)
                return kernel * mp.mpf(float(f(tau))) * du

            splits = sorted({float(((tb / x) ** kp1) ** (1.0 / P))
                             for tb in breakpoints(f, x)})
            pts = [mp.mpf(0)] + [mp.mpf(v) for v in splits
                                 if 1e-12 < v < 1 - 1e-12] + [mp.mpf(0.5) ** mP, mp.mpf(1)]
            pts = sorted(set(pts))
            return mp.quad(integrand, pts)

        vals = [image(f) for f in fs]
        pre = (mp.mpf(kp1) ** (mmu + mp.mpf(beta_))
               * mp.mpf(x) ** (-kp1 * (mp.mpf(beta_) + mmu)) / mp.gamma(malpha))
        return [float(pre * val) for val in vals]
