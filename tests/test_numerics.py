import math

import numpy as np
import pytest

from stemopt import model2
from stemopt import numerics as nx
from stemopt.errors import (DomainError, NoBracketError, NoSignChangeError, NonFiniteError,
                            StepUnderflowError)
from stemopt.lightfield import LightProfile
from stemopt.model1 import F_of
from stemopt.params import ModelParams, Op2Config


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_root_sqrt2():
    f = lambda x: x * x - 2.0
    root = nx.find_root(f, nx.bracket(f, 1.0, 2.0), tol=1e-12)
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_root_odd_symmetry():
    f = lambda x: x
    root = nx.find_root(f, nx.bracket(f, -1.0, 1.0), tol=1e-14)
    assert abs(root) < 1e-14


def test_root_feedback_endpoint():
    # feedback function hits its upper limit exactly at theta0
    p = ModelParams(theta0=math.pi / 4, kappa=1.0)
    z = math.exp(-1.0) - 1.0
    f = lambda th: F_of(th, p) - z
    root = nx.find_root(f, nx.bracket(f, math.pi / 4, math.pi / 2 - 1e-9), tol=1e-13)
    assert abs(root - math.pi / 4) < 1e-12


def test_root_stays_in_bracket():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = np.sort(rng.uniform(-3, 3, 2))
        if b - a < 1e-3:
            continue
        shift = rng.uniform(math.sin(a), math.sin(b)) if math.sin(a) < math.sin(b) \
            else rng.uniform(math.sin(b), math.sin(a))
        f = lambda x: math.sin(x) - shift
        try:
            brk = nx.bracket(f, float(a), float(b))
        except NoSignChangeError:
            continue
        root = nx.find_root(f, brk, tol=1e-12)
        assert a <= root <= b


def test_root_no_sign_change():
    f = lambda x: x * x + 1.0
    with pytest.raises(NoSignChangeError):
        nx.bracket(f, -1.0, 1.0)


# ---------------------------------------------------------------------------
# sign_change_brackets and find_roots
# ---------------------------------------------------------------------------

def _spans(brackets):
    return [(b.lo, b.hi) for b in brackets]


def test_brackets_interior_zero():
    assert _spans(nx.sign_change_brackets([0, 1, 2], [1.0, 0.0, 1.0])) == [(1.0, 2.0)]


def test_brackets_zero_at_first_sample():
    assert _spans(nx.sign_change_brackets([0, 1, 2], [0.0, 1.0, 2.0])) == [(0.0, 1.0)]


def test_brackets_zero_at_last_sample():
    assert _spans(nx.sign_change_brackets([0, 1], [1.0, 0.0])) == [(0.0, 1.0)]
    assert _spans(nx.sign_change_brackets([0, 1, 2], [2.0, 1.0, 0.0])) == [(1.0, 2.0)]
    roots = [nx.find_root(lambda x: 1.0 - x, brk, tol=1e-12)
             for brk in nx.sign_change_brackets([0, 1], [1.0, 0.0])]
    assert roots == [1.0]


def test_brackets_no_double_count_at_interior_zero():
    # a zero between a sign change opens one bracket, not two
    assert _spans(nx.sign_change_brackets([0, 1, 2], [-1.0, 0.0, 1.0])) == [(1.0, 2.0)]
    assert _spans(nx.sign_change_brackets([0, 1, 2, 3], [1.0, 0.0, 0.0, 1.0])) == \
        [(1.0, 2.0), (2.0, 3.0)]


class _Counting:
    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def _stage(f, *ranges, n=11):
    return [(xs, np.array([f(x) for x in xs]))
            for xs in (np.linspace(a, b, n) for a, b in ranges)]


def test_find_roots_later_stage_not_evaluated():
    f = lambda x: x - 0.3
    later = _Counting(lambda x: x - 2.5)

    def stages():
        yield _stage(f, (0.0, 1.0))
        yield _stage(later, (2.0, 3.0))

    assert nx.find_roots(f, 1e-14, stages()) == pytest.approx([0.3], abs=1e-14)
    assert later.calls == 0


def test_find_roots_falls_through_to_later_stage():
    f = lambda x: x - 2.5
    roots = nx.find_roots(f, 1e-14, iter([_stage(f, (0.0, 1.0)), _stage(f, (2.0, 3.0))]))
    assert roots == pytest.approx([2.5], abs=1e-14)


def test_find_roots_no_bracket_spans_two_pieces():
    # a jump at x = 1 changes sign between the pieces but not inside either
    f = lambda x: 1.0 if x < 1.0 else -1.0
    with pytest.raises(NoBracketError):
        nx.find_roots(f, 1e-12, [_stage(f, (0.0, 0.999), (1.0, 2.0))])


def test_find_roots_ascending_across_pieces():
    f = lambda x: math.sin(math.pi * x)
    # pieces listed out of order: the root 3 is bracketed before the root 1
    stage = _stage(f, (2.2, 3.8), (0.2, 1.8))
    assert nx.find_roots(f, 1e-14, [stage]) == pytest.approx([1.0, 3.0], abs=1e-12)


def test_find_roots_reports_last_stage():
    f = lambda x: x * x + 1.0
    with pytest.raises(NoBracketError) as err:
        nx.find_roots(f, 1e-12, iter([_stage(f, (5.0, 6.0)),
                                      _stage(f, (-1.0, 1.0), (1.0, 2.0), n=5)]))
    msg = str(err.value)
    assert "[-1, 2]" in msg
    assert "(10 samples)" in msg
    assert f"f(lo)={2.0:.3e}" in msg and f"f(hi)={5.0:.3e}" in msg
    assert f"min {1.0:.3e}" in msg and f"max {5.0:.3e}" in msg


def test_find_roots_notes_the_bracket_of_an_error():
    # an error raised while Brent refines a bracket keeps its type and
    # message, and a note names the bracket and its end values
    def refine(x):
        if x > 0.5:
            raise StepUnderflowError("step below floor")
        return x - 0.7

    with pytest.raises(StepUnderflowError, match="step below floor") as err:
        nx.find_roots(refine, 1e-12, [[(np.array([0.0, 0.2, 1.0]),
                                         np.array([-0.7, -0.5, 0.3]))]])
    assert err.value.__notes__ == [
        f"while refining the bracket [0.2, 1.0], f(lo)={-0.5:.6e}, f(hi)={0.3:.6e}"]


def test_shot_errors_name_their_tip_height(monkeypatch):
    # under the bracket's note, an error of a free-length shot names its
    # tip height
    def fail(*args, **kwargs):
        raise StepUnderflowError("step below floor")

    monkeypatch.setattr(model2, "integrate", fail)
    free = ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0)
    with pytest.raises(StepUnderflowError) as err:
        model2.shoot_op2(LightProfile.constant(1.0), free)
    shot, brk = err.value.__notes__
    assert shot.startswith("in the shot at tip height h=")
    assert brk.startswith("while refining the bracket [")


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_exponential_decay():
    pr = nx.OdeProblem(1, lambda t, y: [-y[0]])
    traj = nx.integrate(pr, (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-10)
    assert abs(traj.y[-1, 0] - math.exp(-1.0)) < 1e-8


def test_integrate_constant():
    # fixed-step RK4 keeps a constant solution exact at every node
    mesh = np.linspace(0.0, 2.0, 17)
    ys = np.array([nx.rk4_mesh(lambda t, y: np.zeros(1), mesh[:k + 1], np.array([3.25]))
                   for k in range(len(mesh))])
    assert np.all(ys[:, 0] == 3.25)


def test_integrate_frozen_shade_forward():
    # frozen-angle version of the equilibrium shade equation, exact linear sol
    rho_kappa, theta0 = 0.1, math.pi / 4
    pr = nx.OdeProblem(1, lambda t, y: [rho_kappa / math.sin(theta0)])
    traj = nx.integrate(pr, (0.0, 1.0), [0.0], rtol=1e-10, atol=1e-10)
    assert abs(traj.y[-1, 0] - 0.1 * math.sqrt(2.0)) < 1e-10
    with pytest.raises(ValueError, match="span must increase"):
        nx.integrate(pr, (0.0, -1.0), [0.0], rtol=1e-10, atol=1e-10)


def test_integrate_fourth_order_convergence():
    errs = []
    for n in (40, 80):
        y = nx.rk4_mesh(lambda t, y: -y, np.linspace(0.0, 1.0, n + 1), np.array([1.0]))
        errs.append(abs(y[0] - math.exp(-1.0)))
    assert errs[0] / errs[1] >= 8.0


def test_trajectory_dense_sampling():
    pr = nx.OdeProblem(1, lambda t, y: [-y[0]])
    traj = nx.integrate(pr, (0.0, 1.0), [1.0], rtol=1e-10, atol=1e-12)
    ts = np.linspace(0.0, 1.0, 37)
    vals = traj.sample(ts)[:, 0]
    assert np.max(np.abs(vals - np.exp(-ts))) < 1e-8


def test_integrate_blowup_raises():
    # y' = y^2 from y(0)=1 blows up at t=1; the step controller must give up
    pr = nx.OdeProblem(1, lambda t, y: [y[0] * y[0]])
    with pytest.raises((nx.StepUnderflowError, nx.MaxIterationsError)):
        nx.integrate(pr, (0.0, 2.0), [1.0], rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("k, tol, steps, evals", [(1.0, 1e-12, 2353, 14119),
                                                   (50.0, 1e-6, 772, 4753)])
def test_integrate_step_control_is_pinned(k, tol, steps, evals):
    # a damped oscillator driving a decay of rate k: at k = 1 every step is
    # accepted, at k = 50 and tol 1e-6 the step sits at the stability limit
    # of the decay and 20 steps are rejected.  The counts are those of the
    # numpy DP45 loop that the float loop replaced, so the initial step,
    # step control, error norm and FSAL are unchanged
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        p, q, r = y
        return q, -p - 0.1 * q, p - k * r
    traj = nx.integrate(nx.OdeProblem(3, rhs), (0.0, 50.0), [1.0, 0.0, 0.5],
                        rtol=tol, atol=tol)
    assert (len(traj.t) - 1, calls[0]) == (steps, evals)


@pytest.mark.parametrize("light", ["canopy", "tabulated", "coupled"])
def test_right_sides_see_python_floats(light, monkeypatch):
    # the shot of model2 hands the integrator a state of Python floats and
    # gets one back from each stage, so no numpy scalar arithmetic runs
    # inside the step loop
    seen = set()
    original = nx.integrate

    def integrate(problem, span, initial, **kwargs):
        def rhs(t, y):
            out = problem.rhs(t, y)
            seen.update(type(v) for v in (t, *y, *out))
            return out
        return original(nx.OdeProblem(problem.dimension, rhs), span, initial, **kwargs)
    monkeypatch.setattr(model2, "integrate", integrate)
    ys = np.linspace(0.0, 1.0, 50)
    profile = {"canopy": LightProfile.constant_rate_canopy(1.0, 1.0),
               "tabulated": LightProfile.tabulated(ys, 0.3 + 0.7 * ys ** 2),
               "coupled": None}[light]
    free = ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.05)
    model2.shoot_residual(0.05, profile, free, Op2Config(), 1e-10)
    assert seen == {float}, seen


def test_integrate_retries_an_overflowing_stage_at_a_quarter_step():
    # y' = 1 - e^y from y = -30 climbs at unit slope, so the step grows
    # fivefold per step until a trial step overshoots the equilibrium y = 0
    # and math.exp overflows in a stage; that step is retried at a quarter
    # of its length, and the integration completes on the exact solution
    times, overflowed = [], []

    def rhs(t, y):
        times.append(t)
        try:
            return [1.0 - math.exp(y[0])]
        except OverflowError:
            overflowed.append(len(times) - 1)
            raise
    traj = nx.integrate(nx.OdeProblem(1, rhs), (0.0, 60.0), [-30.0], rtol=1e-8, atol=1e-8)
    assert overflowed
    j = overflowed[0]
    t0 = traj.t[traj.t < times[j + 1]][-1]   # where the failed step started
    # the retry's first stage sits at (h/4)/5 past t0, the failed one's at h/5
    assert any(math.isclose(t - t0, 4.0 * (times[j + 1] - t0), rel_tol=1e-12)
               for t in times[j - 5:j + 1])
    exact = -np.log1p(math.expm1(30.0) * np.exp(-traj.t))
    assert np.max(np.abs(traj.y[:, 0] - exact)) < 1e-6


def test_integrate_propagates_a_domain_error():
    # DomainError subclasses ValueError: the step loop takes only an
    # ArithmeticError or a non-finite slope for a failed stage, so a right
    # side that leaves the model's domain stops the integration
    err = DomainError("outside the model's domain")

    def rhs(t, y):
        if t > 0.5:
            raise err
        return [-y[0]]
    with pytest.raises(DomainError) as raised:
        nx.integrate(nx.OdeProblem(1, rhs), (0.0, 1.0), [1.0], rtol=1e-8, atol=1e-8)
    assert raised.value is err


# ---------------------------------------------------------------------------
# quad
# ---------------------------------------------------------------------------

def test_quad_entropy_bracket():
    # integral of 1 + s ln s - s over [0, 1] has closed value 1/4; the
    # integrand is passed with its limit 1 at s = 0
    val = nx.quad(lambda s: 1.0 + (s * math.log(s) if s > 0.0 else 0.0) - s,
                  0.0, 1.0, 1e-12)
    assert abs(val - 0.25) < 1e-11


def test_quad_unit():
    assert abs(nx.quad(lambda s: 1.0, 0.0, 1.0, 1e-12) - 1.0) < 1e-14


def test_quad_odd_symmetry():
    val = nx.quad(lambda s: s ** 3 - 4.0 * s, -2.0, 2.0, 1e-12)
    assert abs(val) < 1e-12


def test_quad_nonfinite_detection():
    def f(s):
        return math.inf if abs(s - 0.5) < 0.2 else 1.0
    with pytest.raises(NonFiniteError):
        nx.quad(f, 0.0, 1.0, 1e-10)


# ---------------------------------------------------------------------------
# map_blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [nx._BLOCK - 1, nx._BLOCK, nx._BLOCK + 1])
def test_map_blocks_gives_the_one_shot_bits(n):
    x = np.linspace(-3.0, 3.0, n)
    blocks = []

    def counted(fn):
        return lambda part: blocks.append(len(part)) or fn(part)

    # one value per element
    value = lambda v: np.exp(np.sin(v)) / (1.0 + v * v)   # noqa: E731
    assert np.array_equal(nx.map_blocks(counted(value), x), value(x))
    assert blocks == [min(n, nx._BLOCK)] + [1] * (n > nx._BLOCK)
    # one row per element: a dense-output sample of a 2-state shot
    pr = nx.OdeProblem(2, lambda t, y: [y[1], -math.sin(y[0])])
    traj = nx.integrate(pr, (0.0, 3.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    ts = np.linspace(0.0, 3.0, n)
    rows = nx.map_blocks(traj.sample, ts)
    assert rows.shape == (n, 2) and np.array_equal(rows, traj.sample(ts))
    # one row per row of a 2-D x
    pairs = np.stack([x, ts], axis=1)
    row_fn = lambda r: np.stack([r[:, 0] * r[:, 1], np.hypot(*r.T)], axis=1)  # noqa: E731
    assert np.array_equal(nx.map_blocks(row_fn, pairs), row_fn(pairs))
