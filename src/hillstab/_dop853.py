"""DOP853, the explicit Runge-Kutta pair of order 8(5, 3) of Dormand and
Prince with its dense output of order 7 (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., 1993, II.5 and II.6; the
tableau of their code dop853.f).

`solve_ivp` integrates y' = fun(t, y) forward over t_span as
``scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", ...)`` does,
bit for bit: the same first step, the same controller (safety 0.9, step
factors 0.2 to 10, rtol at least 100 eps, no step below 10 ulp of t), each
stage as the same ``np.dot(K[:s].T, a[:s]) * h``, the same E5/E3 error
norm, the same dense output and the same segment lookup, in the same order
of operations; only the layers around them are gone.  The stage views are
built once per call, and fun is called directly: what it returns, an array
or a list, is written into its row of the stages.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np


def _sparse(shape, rows) -> np.ndarray:
    """An array of the given shape, zero but for row i's entries {j: v}."""
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i, j] = v
    return out


#: the nodes of the 12 stages of a step, of the stage at its end and of the
#: 3 more stages of its dense output
C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
    0.777777777777777777777777777778])

#: the coupling coefficients of the stages; row 12 holds the weights of the
#: 8th-order solution, rows 13-15 the dense output's stages
A = _sparse((16, 16), [
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138}])

#: the weights of the 8th-order solution
B = A[12, :12]

#: the weights of the 3rd-order error estimate: B less those of the
#: 3rd-order embedded solution
E3 = np.zeros(13)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

#: the weights of the 5th-order error estimate
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

#: the coefficients of the dense output's terms 3-6 in the 16 stages
D = _sparse((4, 16), [
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3}])

_EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
#: the exponent of the step factor, -1 / (error estimator order + 1)
_EXPONENT = -1 / 8
_DONE = "The solver successfully reached the end of the integration interval."
_TOO_SMALL = "Required step size is less than spacing between numbers."


class Result(NamedTuple):
    """y at t_span[0] and at the end of each accepted step, shape (n, steps
    + 1); whether the end was reached, and why not; the number of calls of
    fun; and with dense output the Interpolant, else None."""

    y: np.ndarray
    success: bool
    message: str
    nfev: int
    sol: "Interpolant | None"


class Interpolant:
    """The dense output of a solve_ivp call: y(t) on the step [t_i, t_i +
    h_i] that holds t (the first whose end t does not pass; t before the
    start or past the end is read on the first or the last step), from that
    step's start y_i and its 7 vectors F_k as the polynomial
    y_i + F_0 x + F_1 x(1 - x) + F_2 x^2 (1 - x) + ... + F_6 x^4 (1 - x)^3
    in x = (t - t_i) / h_i, evaluated from F_6 outwards."""

    def __init__(self, ts, y_old, F):
        self.ts = np.array(ts)
        self._h = np.diff(self.ts)
        self._y = np.array(y_old).T  # (n, steps)
        self._F = np.ascontiguousarray(np.transpose(F, (1, 2, 0)))

    def __call__(self, t) -> np.ndarray:
        """y at t, shape (n,), or at a 1-D array of k points, shape (n, k)."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self._h) - 1)
        x = (t - self.ts[i]) / self._h[i]
        y_old = self._y[:, i]
        y = np.zeros_like(y_old)
        for k in range(6, -1, -1):
            y += self._F[k][:, i]
            y *= x if k % 2 == 0 else 1 - x
        y += y_old
        return y


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _first_step(fun, t, y, f, t_bound, max_step, rtol, atol) -> float:
    """The first step, from the size of y and f and a trial Euler step
    (Hairer, Norsett & Wanner, II.4)."""
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-06 if d0 < 1e-05 or d1 < 1e-05 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = np.asarray(fun(t + h0, y + h0 * f), dtype=float)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-06, h0 * 0.001)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval, max_step)


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, dense_output=False,
              max_step=math.inf) -> Result:
    """Integrate y' = fun(t, y), y(t_span[0]) = y0 (1-D) from t_span[0] to
    t_span[1] > t_span[0] by DOP853, each step at most max_step, keeping
    its local error below atol + rtol |y| in the RMS norm; with dense_output
    the result's sol is the Interpolant of its steps.  A step below 10 ulp
    of t ends the integration at the last accepted step, unsuccessfully and
    with no Interpolant."""
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("t_span must increase")
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    if rtol < 100 * _EPS:
        warnings.warn(f"At least one element of `rtol` is too small. Setting "
                      f"`rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=2)
        rtol = max(rtol, 100 * _EPS)
    y = np.array(y0, dtype=float)
    if y.ndim != 1 or not y.size:
        raise ValueError("`y0` must be a non-empty 1-D array.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be "
                         "finite.")

    # K[s] is stage s, K[12] f at the step's end; rows 13-15 the dense stages
    dot, K = np.dot, np.empty((16, y.size))
    K[0] = fun(t, y)
    h_abs = _first_step(fun, t, y, K[0], t_bound, max_step, rtol, atol)
    nfev = 2
    stages = [(s, K[:s].T, A[s, :s], float(C[s])) for s in range(1, 12)]
    dense = [(s, K[:s].T, A[s, :s], float(C[s])) for s in range(13, 16)]
    weights, errors = K[:12].T, K[:13].T
    ts, ys, Fs = [t], [y], []
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Result(np.array(ys).T, False, _TOO_SMALL, nfev, None)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            for s, k, a, c in stages:
                K[s] = fun(t + c * h, y + dot(k, a) * h)
            y_new = y + h * dot(weights, B)
            K[12] = fun(t + h, y_new)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5, err3 = dot(errors, E5) / scale, dot(errors, E3) / scale
            e5, e3 = math.sqrt(err5.dot(err5)) ** 2, \
                math.sqrt(err3.dot(err3)) ** 2
            if e5 == 0 and e3 == 0:
                error = 0.0
            else:
                error = h * e5 / math.sqrt((e5 + 0.01 * e3) * y.size)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(
                    _MAX_FACTOR, _SAFETY * error ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        if dense_output:
            for s, k, a, c in dense:
                K[s] = fun(t + c * h, y + dot(k, a) * h)
            nfev += 3
            F = np.empty((7, y.size))
            F[0] = delta = y_new - y
            F[1] = h * K[0] - delta
            F[2] = 2 * delta - h * (K[12] + K[0])
            F[3:] = h * dot(D, K)
            Fs.append(F)
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
        K[0] = K[12]
    return Result(np.array(ys).T, True, _DONE, nfev,
                  Interpolant(ts, ys[:-1], Fs) if dense_output else None)
