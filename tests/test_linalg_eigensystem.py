"""Tests for top-q eigensystem solvers."""

import numpy as np
import pytest
import scipy.linalg

from repro.backend import NumpyBackend
from repro.core import EigenPro2
from repro.exceptions import ConfigurationError
from repro.instrument import meter_scope
from repro.kernels import GaussianKernel
from repro.linalg import eigensystem, top_eigensystem
from repro.linalg.stable import symmetrize
from repro.observe import Tracer, trace_scope


def _psd_matrix(rng, n=40, decay=2.0):
    """Random PSD matrix with power-law spectrum."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.arange(1, n + 1, dtype=float) ** (-decay)
    return (q * vals) @ q.T, vals, q


class TestDense:
    def test_matches_numpy_eigh(self, rng):
        a, vals, _ = _psd_matrix(rng)
        got_vals, got_vecs = top_eigensystem(a, 5, method="dense")
        np.testing.assert_allclose(got_vals, vals[:5], atol=1e-10)
        for i in range(5):
            resid = a @ got_vecs[:, i] - got_vals[i] * got_vecs[:, i]
            assert np.linalg.norm(resid) < 1e-9

    def test_descending_order(self, rng):
        a, _, _ = _psd_matrix(rng)
        vals, _ = top_eigensystem(a, 8, method="dense")
        assert (np.diff(vals) <= 1e-12).all()

    def test_orthonormal_vectors(self, rng):
        a, _, _ = _psd_matrix(rng)
        _, vecs = top_eigensystem(a, 6, method="dense")
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-9)

    def test_full_q_allowed(self, rng):
        a, vals, _ = _psd_matrix(rng, n=10)
        got, _ = top_eigensystem(a, 10, method="dense")
        np.testing.assert_allclose(got, vals, atol=1e-10)

    @pytest.mark.parametrize("q", [0, -1, 41])
    def test_q_out_of_range(self, rng, q):
        a, _, _ = _psd_matrix(rng)
        with pytest.raises(ConfigurationError):
            top_eigensystem(a, q)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ConfigurationError):
            top_eigensystem(rng.standard_normal((4, 5)), 2)

    def test_unknown_method(self, rng):
        a, _, _ = _psd_matrix(rng)
        for method in ("magic", "randomized"):
            with pytest.raises(ConfigurationError):
                top_eigensystem(a, 2, method=method)


class TestRandomized:
    """``"auto"`` has no randomized route: a small side takes the exact
    solve, and ``method="randomized"`` is rejected
    (``TestDense::test_unknown_method``)."""

    def test_auto_dispatch_small_uses_dense(self, rng):
        a, vals, _ = _psd_matrix(rng, n=30)
        got, _ = top_eigensystem(a, 3, method="auto")
        np.testing.assert_allclose(got, vals[:3], atol=1e-10)


def _gaussian_matrix(bandwidth, s, d=32, seed=0):
    x = np.random.default_rng(seed).standard_normal((s, d))
    return GaussianKernel(bandwidth=bandwidth)(x, x)


def _traced(a, q, **kwargs):
    """``top_eigensystem`` under a tracer: its result and its one
    ``eigensolve`` span's attributes."""
    tracer = Tracer()
    with trace_scope(tracer):
        vals, vecs = top_eigensystem(a, q, **kwargs)
    (event,) = [ev for ev in tracer.events if ev.name == "eigensolve"]
    return vals, vecs, event.attrs


def _exact_subset(a, q):
    """The exact subset solve in ``a``'s dtype: LAPACK on the symmetrized
    matrix, flipped to descending order."""
    return NumpyBackend().top_eigh(symmetrize(a), q)


class TestFloat32Route:
    """``method="auto"`` solves a float64 NumPy matrix of side
    ``>= _FLOAT32_SIDE_MIN`` in float32, then certifies one float64
    Rayleigh–Ritz pass by its residuals, else falls back to float64."""

    S = eigensystem._FLOAT32_SIDE_MIN
    Q = 300

    @pytest.fixture(scope="class")
    def certified(self):
        a = _gaussian_matrix(4.0, self.S)
        return a, _traced(a, self.Q), _traced(a, self.Q, method="dense")

    @pytest.fixture(scope="class")
    def below_float32(self):
        # Gaussian bandwidth 16 in 32-d: sigma_q / sigma_1 ~ 1e-5 at
        # q = 300, below what a float32 basis resolves.
        a = _gaussian_matrix(16.0, 2000)
        return a, _traced(a, self.Q)

    def test_auto_calls_lapack_on_float32(self, monkeypatch):
        dtypes = []
        real_eigh = scipy.linalg.eigh

        def spy(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        top_eigensystem(_gaussian_matrix(4.0, self.S), 20)
        assert dtypes == [np.float32]

    def test_certified_route_matches_dense(self, certified):
        a, (vals, vecs, attrs), (ref_vals, _, ref_attrs) = certified
        assert attrs == {
            "s": self.S, "q": self.Q, "route": "float32+ritz",
            "certified": True,
        }
        assert ref_attrs["route"] == "float64"
        assert ref_attrs["certified"] is None
        assert vals.dtype == vecs.dtype == np.float64
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-8, atol=0)
        assert (np.diff(vals) <= 0).all()
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert resid.max() <= eigensystem._RITZ_RTOL * vals[-1]
        np.testing.assert_allclose(
            vecs.T @ vecs, np.eye(self.Q), rtol=0, atol=1e-12
        )

    def test_certified_route_does_not_symmetrize(self, monkeypatch):
        """LAPACK reads one triangle and the Ritz pass sees only the
        symmetric part, so the float32 route casts ``a`` as it is, on a
        kernel matrix whose triangles differ in the last ulp."""
        a = _gaussian_matrix(4.0, self.S)
        assert not np.array_equal(a, a.T)
        calls = []

        def spy(m):
            calls.append(m.shape)
            return symmetrize(m)

        monkeypatch.setattr(eigensystem, "symmetrize", spy)
        vals, vecs, attrs = _traced(a, self.Q)
        assert (attrs["route"], attrs["certified"]) == ("float32+ritz", True)
        assert calls == []
        ref_vals, _, _ = _traced(a, self.Q, method="dense")
        assert calls == [a.shape]  # the dense solve still symmetrizes
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-8, atol=0)
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert resid.max() <= eigensystem._RITZ_RTOL * vals[-1]

    def test_below_float32_resolution_falls_back(self, below_float32):
        a, (vals, vecs, attrs) = below_float32
        assert attrs["route"] == "float64"
        assert attrs["certified"] is False
        ref_vals, ref_vecs = top_eigensystem(a, self.Q, method="dense")
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(vecs, ref_vecs)

    def test_large_side_small_q_is_certified(self):
        """A large side with a small ``q`` is solved in float32 and
        certified too: a randomized sketch of this matrix leaves
        residuals up to ~0.04·θ_q, four times the certificate."""
        a = _gaussian_matrix(4.0, 4097)
        vals, vecs, attrs = _traced(a, 20)
        assert (attrs["route"], attrs["certified"]) == ("float32+ritz", True)
        resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
        assert resid.max() <= eigensystem._RITZ_RTOL * vals[-1]

    @pytest.mark.parametrize(
        "method, dtype, side, route",
        [
            ("dense", np.float64, S, "float64"),
            ("auto", np.float32, S, "float32"),
            ("auto", np.float64, S - 1, "float64"),
        ],
    )
    def test_exact_routes_unchanged(self, method, dtype, side, route):
        a = _gaussian_matrix(4.0, side).astype(dtype)
        vals, vecs, attrs = _traced(a, 20, method=method)
        assert (attrs["route"], attrs["certified"]) == (route, None)
        assert vecs.dtype == dtype
        ref_vals, ref_vecs = _exact_subset(a, 20)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(vecs, ref_vecs)

    @pytest.mark.parametrize("case", ["certified", "below_float32"])
    def test_eig_ops_cubic(self, request, case):
        a = request.getfixturevalue(case)[0]
        with meter_scope() as meter:
            top_eigensystem(a, self.Q)
        assert meter.as_dict() == {"eig": a.shape[0] ** 3}

    def test_fit_history_matches_float64_setup(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2400, 32))
        y = np.tanh(x @ rng.standard_normal((32, 3)) / np.sqrt(32))

        def fit():
            tracer = Tracer()
            model = EigenPro2(GaussianKernel(bandwidth=4.0), s=2000, seed=0)
            with trace_scope(tracer):
                model.fit(x, y, epochs=2)
            (ev,) = [e for e in tracer.events if e.name == "eigensolve"]
            return model.history_.series("train_mse"), ev.attrs["route"]

        history, route = fit()
        monkeypatch.setattr(eigensystem, "_FLOAT32_SIDE_MIN", 2001)
        ref_history, ref_route = fit()
        assert (route, ref_route) == ("float32+ritz", "float64")
        np.testing.assert_allclose(history, ref_history, rtol=1e-6, atol=0)
