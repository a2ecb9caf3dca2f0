"""Property tests: a saved model reads back bit for bit, for every kind."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qforecast.baselines import LinearModel, MlpModel
from qforecast.modelfile import fields, load_any_model, save_model
from qforecast.pqc import VARIATIONAL_BLOCKS, PqcModel

# any finite double, with the edges drawn often: signed zero, the smallest
# subnormal, a mid-range subnormal and values near the largest double
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.79e308, -1.79e308,
         1.7976931348623157e308)
FINITE = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))

SIZE = st.integers(1, 5)
ROUND_TRIP = settings(max_examples=60, deadline=None, derandomize=True,
                      database=None)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


@st.composite
def linear_models(draw):
    return LinearModel(draw(arrays(draw(SIZE))))


@st.composite
def mlp_models(draw):
    n_in, h1, h2 = draw(SIZE), draw(SIZE), draw(SIZE)
    return MlpModel(w1=draw(arrays((h1, n_in))), b1=draw(arrays(h1)),
                    w2=draw(arrays((h2, h1))), b2=draw(arrays(h2)),
                    w3=draw(arrays(h2)), b3=draw(FINITE))


@st.composite
def pqc_models(draw):
    k = draw(SIZE)
    return PqcModel(theta=draw(arrays(VARIATIONAL_BLOCKS * 2 * k)), num_qubits=k)


def assert_round_trip(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_model(model, path)
        kind, back = load_any_model(path)
    want_kind, want_window, want = fields(model)
    _, window, got = fields(back)
    assert (kind, window) == (want_kind, want_window)
    for name, values in want.items():
        a = np.asarray(values, dtype=np.float64)
        b = np.asarray(got[name], dtype=np.float64)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@ROUND_TRIP
@given(linear_models())
def test_linear_round_trip_is_bitwise(model):
    assert_round_trip(model)


@ROUND_TRIP
@given(mlp_models())
def test_mlp_round_trip_is_bitwise(model):
    assert_round_trip(model)


@ROUND_TRIP
@given(pqc_models())
def test_pqc_round_trip_is_bitwise(model):
    assert_round_trip(model)
