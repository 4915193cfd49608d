import warnings

import numpy as np
import pytest

from dressedphase.errors import GridError
from dressedphase.numerics import check_monotone_grid, cumulative_simpson


@pytest.mark.parametrize("n", [11, 12, 601, 600])
def test_exact_for_quadratics(n):
    t = np.linspace(-1.0, 2.0, n)
    f = 3.0 * t**2 - 2.0 * t + 0.5
    exact = t**3 - t**2 + 0.5 * t - (-1.0 - 1.0 - 0.5)
    out = cumulative_simpson(f, t)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_fourth_order_convergence():
    def err(n):
        t = np.linspace(0.0, 3.0, n)
        out = cumulative_simpson(np.sin(t), t)
        return np.max(np.abs(out - (1.0 - np.cos(t))))

    assert err(201) / err(401) > 12.0  # ~16 for O(h^4)


def test_complex_integrand():
    t = np.linspace(0.0, 2.0, 501)
    out = cumulative_simpson(np.exp(1j * t), t)
    exact = (np.exp(1j * t) - 1.0) / 1j
    assert np.max(np.abs(out - exact)) < 1e-9


def test_nonuniform_grid():
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 3.0, 400))
    t[0], t[-1] = 0.0, 3.0
    out = cumulative_simpson(np.cos(t), t)
    assert abs(out[-1] - np.sin(3.0)) < 1e-5


def test_grid_validation():
    with pytest.raises(GridError):
        cumulative_simpson(np.ones(3), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(GridError):
        cumulative_simpson(np.ones(2), np.array([0.0, 1.0]))
    with pytest.raises(GridError):
        cumulative_simpson(np.ones(4), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(GridError):
        check_monotone_grid(np.array([[0.0, 1.0]]))


# Each Simpson triple divides by h0*h1*(h0 + h1), which must be a normal
# float: spacings of 1e-103 make it 2e-309 (subnormal) and of 1e103 inf,
# and two intervals of 1e-110 make the trailing triple's 0.  It is normal at
# spacings of 1e-102 (2e-306), and two intervals of 1e-110 that share no
# triple of the quadrature (an odd-start triple is never fitted) pass.
SPACINGS = {
    "fine": ([0.0, 1e-103, 2e-103], True),
    "coarse": ([0.0, 1e103, 2e103], True),
    "fine_trailing_triple": ([-1e-50, 0.0, 1e-110, 2e-110], True),
    "just_normal": ([0.0, 1e-102, 2e-102], False),
    "fine_pair_in_no_triple": ([-1e-50, 0.0, 1e-110, 2e-110, 1e-50], False),
}


@pytest.mark.parametrize("t,rejected", list(SPACINGS.values()), ids=list(SPACINGS))
def test_simpson_denominator_must_be_normal(t, rejected):
    t = np.array(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rejected:
            with pytest.raises(GridError, match=r"Simpson denominator h0\*h1\*\(h0 \+ h1\) a normal float"):
                cumulative_simpson(np.ones(t.size), t)
        else:
            out = cumulative_simpson(np.ones(t.size), t)
            np.testing.assert_allclose(out, t - t[0], rtol=1e-15)
