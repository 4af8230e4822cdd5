import math

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams, check_class_F, check_uniqueness_condition
from stemopt.errors import NotDifferentiableError
from stemopt.kernels import FLOATS
from stemopt.lightfield import load_tabulated_csv


def test_constant_eval():
    prof = LightProfile.constant(1.0)
    assert prof.eval(3.7) == 1.0


def test_step_eval_below_jump():
    eps = 0.05
    prof = LightProfile.step(eps, 1.0)
    assert prof.eval(0.5) == eps
    assert prof.eval(1.5) == 1.0


def test_canopy_eval_constant_rate():
    # shade from straight stems at the light angle: rate rho*kappa/sin(theta0)
    rho_kappa, theta0 = 0.1, math.pi / 4
    prof = LightProfile.constant_rate_canopy(rho_kappa / math.sin(theta0), 1.0)
    assert abs(prof.eval(0.0) - math.exp(-0.1 * math.sqrt(2.0))) < 1e-12
    assert prof.eval(2.0) == 1.0


def test_derivative_constant():
    assert LightProfile.constant(0.7).derivative(0.3) == 0.0


def test_derivative_tabulated_slope():
    prof = LightProfile.tabulated([0.0, 1.0], [0.9, 1.0])
    assert abs(prof.derivative(0.5) - 0.1) < 1e-14


def test_derivative_mollified_peak():
    eps, w = 0.2, 0.1
    prof = LightProfile.mollified_step(eps, 1.0, w)
    ys = np.linspace(0.8, 1.2, 20001)
    max_deriv = prof.derivative(ys).max()
    assert abs(max_deriv - (1.0 - eps) / w) < 1e-3


def test_derivative_step_raises():
    prof = LightProfile.step(0.1, 1.0)
    with pytest.raises(NotDifferentiableError):
        prof.derivative(1.0)
    with pytest.raises(NotDifferentiableError):
        prof.derivative(np.array([0.5, 1.0 + 1e-13, 1.5]))
    # the intensity is defined at the jump, on both paths
    assert prof.eval(1.0) == 0.1
    assert np.array_equal(prof.eval(np.array([1.0, 1.5])), [0.1, 1.0])
    intensity, slope = prof.eval_and_slope(1.0, FLOATS)
    assert intensity == 0.1 and math.isnan(slope)


_KINDS = {
    "constant": (LightProfile.constant(0.7), 0),
    "step": (LightProfile.step(0.3, 1.0), 0),
    "mollified-step": (LightProfile.mollified_step(0.5, 0.2, 0.01), 0),
    "tabulated": (LightProfile.tabulated([0.0, 0.4, 1.1, 2.0],
                                         [0.5, 0.8, 0.95, 1.0]), 0),
    "exponential-canopy": (LightProfile.exponential_canopy(
        [0.0, 0.1, 0.35, 0.8, 1.3], [2.0, 1.4, 0.9, 0.3, 0.0], 1.3), 2),
}


@pytest.mark.parametrize("kind", list(_KINDS))
def test_float_kernel_matches_the_array_path(kind):
    # the shot reads (I, I') on one float through kernels.FLOATS; every
    # other caller reads eval/derivative on numpy.  The two agree bit for
    # bit, except that math.exp may round the canopy's exponential unlike
    # numpy's vectorized exp, by a few ulp at most
    prof, ulps = _KINDS[kind]
    assert prof.kind == kind
    rng = np.random.default_rng(8)
    knots = np.asarray(prof.breakpoints, float)
    top = prof.top
    ys = np.concatenate([[0.0, top, top + 1e-9, top + 0.5, 3.0], knots,
                         rng.uniform(0.0, max(top, 1.0) * 1.2, 400)])
    if prof.discontinuities:   # the step's slope is checked away from its jump
        ys = ys[np.abs(ys - prof.discontinuities[0]) >= 1e-12]
    pairs = [prof.eval_and_slope(y, FLOATS) for y in ys]
    got = np.array([[float(i), float(d)] for i, d in pairs])
    want = np.stack([prof.eval(ys), prof.derivative(ys)], axis=1)
    assert np.all(np.isfinite(got))
    if ulps:
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))
    else:
        assert got.tobytes() == want.tobytes()


def test_eval_monotone_random_pairs():
    rng = np.random.default_rng(3)
    profiles = [
        LightProfile.mollified_step(0.3, 1.0, 0.2),
        LightProfile.tabulated([0.0, 0.4, 1.1], [0.5, 0.8, 1.0]),
        LightProfile.constant_rate_canopy(0.3, 1.5),
    ]
    for prof in profiles:
        y = np.sort(rng.uniform(0.0, 2.0, (100, 2)), axis=1)
        lo = prof.eval(y[:, 0])
        hi = prof.eval(y[:, 1])
        assert np.all(hi - lo >= -1e-14)


def test_derivative_matches_finite_difference():
    prof = LightProfile.constant_rate_canopy(0.25, 1.0)
    ys = np.linspace(0.05, 0.95, 41)
    h = 1e-6
    fd = (prof.eval(ys + h) - prof.eval(ys - h)) / (2.0 * h)
    assert np.max(np.abs(fd - prof.derivative(ys))) < 1e-6


@pytest.mark.parametrize("prof, ys", [
    (LightProfile.constant(0.7), np.linspace(0.05, 1.5, 30)),
    (LightProfile.mollified_step(0.3, 0.6, 0.2), np.linspace(0.355, 0.845, 50)),
    (LightProfile.tabulated([0.0, 0.4, 1.1, 2.0], [0.5, 0.8, 0.95, 1.0]),
     np.array([0.1, 0.3, 0.5, 0.9, 1.2, 1.9, 2.5])),   # away from the knots
    (LightProfile.exponential_canopy([0.0, 0.5, 1.0], [2.0, 1.0, 0.0], 1.0),
     np.linspace(0.01, 0.99, 99)),
    (LightProfile.exponential_canopy([0.0, 0.1, 0.35, 0.8, 1.3],
                                     [2.0, 1.4, 0.9, 0.3, 0.0], 1.3),
     np.linspace(0.01, 1.29, 129)),
], ids=["constant", "mollified-step", "tabulated", "canopy-3", "canopy-5"])
def test_derivative_is_the_slope_of_eval(prof, ys):
    # central differences of eval against derivative, also across the
    # canopy's rate knots
    e = 1e-6
    fd = (prof.eval(ys + e) - prof.eval(ys - e)) / (2.0 * e)
    slope = prof.derivative(ys)
    assert np.max(np.abs(fd - slope)) <= 1e-7 * max(1.0, np.max(np.abs(slope)))


def test_constant_rate_canopy_is_the_exponential():
    rate, top = 0.3, 1.5
    prof = LightProfile.constant_rate_canopy(rate, top)
    ys = np.linspace(0.0, top, 301)
    want = np.exp(-rate * (top - ys))
    floats = np.array([prof.eval_and_slope(y, FLOATS)[0] for y in ys.tolist()])
    for got in (prof.eval(ys), floats):
        assert np.max(np.abs(got - want) / want) <= 2.2e-16


def test_tabulated_is_np_interp():
    # one cell read, I0 + slope (y - y0), gives np.interp's bits on the
    # numpy and float paths: at the knots, between them and outside the range
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 300))
        ky = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(1e-3, 1.0, n))
        ki = np.sort(rng.uniform(0.0, 1.0, n))
        prof = LightProfile.tabulated(ky, ki)
        ys = np.concatenate([ky, 0.5 * (ky[1:] + ky[:-1]),
                             rng.uniform(ky[0] - 1.0, ky[-1] + 1.0, 2 * n)])
        want = np.interp(ys, ky, ki).tobytes()
        floats = np.array([prof.eval_and_slope(y, FLOATS)[0] for y in ys.tolist()])
        assert prof.eval(ys).tobytes() == want
        assert floats.tobytes() == want


def test_canopy_rate_stays_non_negative_between_knots():
    # a rate that rises and falls on uneven knots: the monotone cubic keeps
    # each cell between its end rates, so it never dips below the zeros
    ry, rv = [0.0, 0.05, 0.4, 0.45, 1.0, 1.2], [0.0, 3.0, 0.0, 2.5, 0.0, 0.0]
    prof = LightProfile.exponential_canopy(ry, rv, 1.2)
    ys = np.linspace(0.0, 1.2, 4801)[:-1]
    rate = prof.derivative(ys) / prof.eval(ys)
    assert np.min(rate) >= 0.0
    assert np.max(rate) <= 3.0 * (1.0 + 1e-15)


def _one_shot_canopy(ry, rv, height):
    """The canopy profile built one array at a time, as `exponential_canopy`
    built it before it wrote into its cell table: the reference it must
    match bit for bit."""
    ry, rv = np.asarray(ry, float), np.asarray(rv, float)
    h, dv = np.diff(ry), np.diff(rv)
    s0, s1 = dv[:-1] / h[:-1], dv[1:] / h[1:]
    w0, w1 = h[:-1] + 2.0 * h[1:], 2.0 * h[:-1] + h[1:]
    mid = np.divide((w0 + w1) * s0 * s1, w0 * s1 + w1 * s0,
                    out=np.zeros_like(s0), where=s0 * s1 > 0.0)
    slope = np.concatenate([dv[:1] / h[:1], mid, dv[-1:] / h[-1:]])
    b1, b1_end = h * slope[:-1], h * slope[1:]
    b2, b3 = 3.0 * dv - 2.0 * b1 - b1_end, b1 + b1_end - 2.0 * dv
    cum = np.concatenate([[0.0], np.cumsum(
        h * (rv[:-1] + (0.5 * b1 + (b2 / 3.0 + 0.25 * b3))))])
    total = float(cum[-1])
    cells, inner = np.stack([ry[:-1], h, cum[:-1], rv[:-1], b1, b2, b3]), ry[1:-1]

    def light(y, xp):
        y0, dy, c, v, b1, b2, b3 = xp.take(cells, inner.searchsorted(y, "right"), -1)
        d = xp.minimum(xp.maximum(y - y0, 0.0), dy)
        t = d / dy
        R = c + d * (v + t * (0.5 * b1 + t * (b2 / 3.0 + 0.25 * t * b3)))
        I = xp.where(y >= height, 1.0, xp.exp(R - total))
        return I, xp.where(y < height, (v + t * (b1 + t * (b2 + t * b3))) * I, 0.0)
    return LightProfile("exponential-canopy", light, top=height, breakpoints=ry)


def _canopy_knots(case):
    if case == "2-knots":
        return [0.0, 0.7], [1.3, 0.2], 0.7
    if case == "3-knots":
        return [0.0, 0.25, 1.0], [0.4, 2.0, 0.1], 1.0
    if case == "flat":
        return np.linspace(0.0, 1.5, 40), np.full(40, 0.8), 1.5
    if case == "extrema-and-zeros":
        return ([0.0, 0.05, 0.4, 0.45, 0.7, 1.0, 1.2],
                [0.0, 3.0, 0.0, 2.5, 2.5, 0.0, 0.0], 1.2)
    # random knots with the size and unevenness of a direct shade's
    rng = np.random.default_rng(7)
    ry = np.cumsum(rng.uniform(1e-5, 1e-3, 4642))
    ry -= ry[0]
    return ry, rng.uniform(0.0, 2.0, ry.size) * np.sin(3.0 * ry) ** 2, float(ry[-1])


@pytest.mark.parametrize("case", ["2-knots", "3-knots", "flat", "extrema-and-zeros",
                                  "random-4642"])
def test_canopy_matches_the_one_shot_build(case):
    # every cell row is written in place, in the one-shot build's operation
    # order: the same I and I' bits between, at and beyond the knots
    ry, rv, height = _canopy_knots(case)
    prof = LightProfile.exponential_canopy(ry, rv, height)
    ref = _one_shot_canopy(ry, rv, height)
    ky = np.asarray(ry, float)
    mid = 0.5 * (ky[1:] + ky[:-1])
    ys = np.concatenate([ky, mid, np.linspace(0.0, 1.1 * height, 997)])
    for got, want in zip(prof.eval_and_slope(ys, np), ref.eval_and_slope(ys, np)):
        assert got.tobytes() == want.tobytes()
    floats = [prof.eval_and_slope(y, FLOATS) for y in ys[::37].tolist()]
    assert floats == [ref.eval_and_slope(y, FLOATS) for y in ys[::37].tolist()]


def test_canopy_build_bounded_memory(traced_peak):
    # the seven cell rows and four knot-sized scratch arrays, not the one-shot
    # build's ~21 knot-sized arrays (0.71 MiB at 4,642 knots)
    ry, rv, height = _canopy_knots("random-4642")
    assert traced_peak(lambda: LightProfile.exponential_canopy(ry, rv, height)) \
        <= 0.45 * 2 ** 20


def test_uniqueness_constant_true(params45):
    ok, margin = check_uniqueness_condition(LightProfile.constant(1.0), params45, 1.0)
    rhs = math.tan(params45.theta0) ** 2 * math.cos(math.pi / 2 - params45.theta0) \
        * (1.0 - 2.0 * math.exp(-1.0)) / (1.0 - math.exp(-1.0))
    assert ok
    assert abs(margin - rhs) < 1e-12


def test_uniqueness_step_fails(params45):
    ok, margin = check_uniqueness_condition(LightProfile.step(0.05, 1.0),
                                            params45, 1.2)
    assert not ok
    assert margin == -math.inf


def test_uniqueness_small_canopy_true():
    params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.0)
    prof = LightProfile.constant_rate_canopy(0.01 / math.sin(params.theta0), 1.0)
    ok, margin = check_uniqueness_condition(prof, params, 1.0)
    assert ok and margin > 0.0


def test_class_f_constant():
    rep = check_class_F(LightProfile.constant(1.0), y_max=1.0)
    assert rep.in_class
    assert rep.delta == 0.0


def test_class_f_gentle_slope_inside():
    # slope 2 near y = 0.09 stays under the bound y^(-1/2) = 3.33
    prof = LightProfile.tabulated([0.0, 0.04, 0.14, 0.5], [0.79, 0.8, 1.0, 1.0])
    rep = check_class_F(prof, y_max=0.5)
    assert rep.in_class
    assert rep.worst_margin > 0.0


def test_class_f_steep_mollifier_violates():
    # peak slope (1-eps)/w = 2.5 > 1 near y = 1
    prof = LightProfile.mollified_step(0.5, 1.0, 0.2)
    rep = check_class_F(prof, y_max=1.5)
    assert not rep.in_class
    assert rep.worst_margin < 0.0
    assert 0.8 < rep.worst_y < 1.2


def test_csv_ingestion(tmp_path):
    path = tmp_path / "prof.csv"
    path.write_text("y,I\n0.0,0.85\n0.5,0.9\n1.0,1.0\n")
    prof = load_tabulated_csv(path)
    assert prof.kind == "tabulated"
    assert abs(prof.eval(0.25) - 0.875) < 1e-14


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("height,intensity\n0,1\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(path)


def test_csv_rejects_decreasing(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("y,I\n0.0,0.9\n1.0,0.8\n")
    with pytest.raises(ValueError):
        load_tabulated_csv(path)


@pytest.mark.parametrize("text", ["", "y,I\n0.0,0.5\n0.5\n1.0,1.0\n",
                                  "y,I\n0.0,0.5,0.7\n1.0,1.0\n"],
                         ids=["empty", "one-field", "three-fields"])
def test_csv_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "bad3.csv"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_tabulated_csv(path)


@pytest.mark.parametrize("build", [
    lambda: LightProfile.constant(-0.1),
    lambda: LightProfile.constant(1.1),
    lambda: LightProfile.step(0.0, 1.0),
    lambda: LightProfile.step(1.5, 1.0),
    lambda: LightProfile.step(0.5, 0.0),
    lambda: LightProfile.mollified_step(0.0, 1.0, 0.1),
    lambda: LightProfile.mollified_step(0.5, -1.0, 0.1),
    lambda: LightProfile.mollified_step(0.5, 1.0, 0.0),
    lambda: LightProfile.tabulated([0.0, 0.5, 0.5], [0.5, 0.8, 1.0]),
    lambda: LightProfile.tabulated([0.0, 0.5, 1.0], [0.5, 0.9, 0.8]),
    lambda: LightProfile.tabulated([0.0, 1.0], [-0.1, 1.0]),
    lambda: LightProfile.tabulated([0.0, 1.0], [0.5, 1.2]),
    lambda: LightProfile.tabulated([0.5], [0.9]),
    lambda: LightProfile.tabulated([0.0, 0.5, 1.0], [0.5, 1.0]),
    lambda: LightProfile.tabulated([0.0, math.nan], [0.5, 1.0]),
    lambda: LightProfile.tabulated([0.0, 1.0], [0.5, math.inf]),
    lambda: LightProfile.exponential_canopy([0.0, 1.0, 0.8], [0.1, 0.1, 0.1], 1.0),
    lambda: LightProfile.exponential_canopy([0.0, 1.0], [0.1, -0.1], 1.0),
    lambda: LightProfile.exponential_canopy([0.0, 1.0], [0.1, 0.1], 0.0),
], ids=["constant-below", "constant-above", "step-level-zero", "step-level-above",
        "step-jump", "mollified-level", "mollified-jump", "mollified-width",
        "tabulated-knots", "tabulated-decreasing", "tabulated-below",
        "tabulated-above", "tabulated-one-knot", "tabulated-lengths",
        "tabulated-nan-height", "tabulated-inf-intensity", "canopy-knots",
        "canopy-negative-rate", "canopy-height"])
def test_constructor_rejects_invalid_input(build):
    with pytest.raises(ValueError):
        build()
