import hashlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mezofit import verify
from mezofit.memory import ConfigError

# Entries of normal magnitude: every product and partial sum of v.q.v stays
# far from the subnormal range, where halving would round.
_ENTRY = st.just(0.0) | st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(arrays(np.float64, (n, n), elements=_ENTRY),
                        arrays(np.float64, n, elements=_ENTRY))))
def test_halving_after_the_dots_gives_the_matmul_quadratic_bitwise(case):
    # ((0.5 v) @ q) @ v == 0.5 ((v @ q) @ v): scaling by a power of two
    # commutes with rounding away from the subnormal range
    m, v = case
    q = m + m.T
    assert 0.5 * float(v.dot(q).dot(v)) == float(0.5 * v @ q @ v)


# sha256 of the projected gradients (float64, in call order) of the
# quadratic check's first 2,000 directions at seed 0 and the default epsilon,
# recorded with numpy 2.4.6 on x86-64 when its loss was `float(0.5 * v @ q @ v)`
QUADRATIC_GRADIENTS_SHA256 = "62b12e665c690d14b7ac749edaa90609d7e124d3e81d336654e3f4eceb68a7ee"


def test_quadratic_check_projected_gradients_match_golden_hash(monkeypatch):
    gs, estimate = [], verify.spsa_directional_derivative
    monkeypatch.setattr(verify, "spsa_directional_derivative",
                        lambda *a, **kw: gs.append(estimate(*a, **kw)) or gs[-1])
    result = verify.check_quadratic_unbiasedness(directions=2000, seed=0)
    assert len(gs) == 2000
    assert hashlib.sha256(np.array(gs).tobytes()).hexdigest() == QUADRATIC_GRADIENTS_SHA256
    assert result.detail == "relative error 0.0303 over 2000 directions (tolerance 0.02)"


@pytest.mark.parametrize("name, value", [("dim", True), ("dim", 2.0), ("seed", True),
                                         ("seed", 1.5), ("seed", "0"), ("dim", None),
                                         ("seed", None),
                                         # ints too long for repr, which once ended
                                         # the battery with Python's digit-limit error
                                         pytest.param("dim", 10 ** 5000, id="dim-huge"),
                                         pytest.param("seed", -10 ** 5000, id="seed--huge")],
                         ids=repr)
def test_the_battery_refuses_a_dim_or_seed_that_is_not_an_int_before_any_check(
        monkeypatch, name, value):
    for check in ("check_restoration", "check_quadratic_unbiasedness", "check_fd_gradient",
                  "check_cosine_positivity"):
        monkeypatch.setattr(verify, check, lambda **kw: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        verify.run_verification(**{name: value})


@pytest.mark.parametrize("integer", [np.int64, np.uint8], ids=lambda t: t.__name__)
def test_the_battery_runs_a_numpy_integer_dim_as_its_int(monkeypatch, integer):
    ran = []
    monkeypatch.setattr(verify, "check_restoration", lambda **kw: ran.append(kw))
    for check in ("check_quadratic_unbiasedness", "check_fd_gradient",
                  "check_cosine_positivity"):
        monkeypatch.setattr(verify, check, lambda **kw: None)
    verify.run_verification(dim=integer(8))
    verify.run_verification(dim=8)
    assert ran[0] == ran[1] and type(ran[0]["dim"]) is int


@pytest.mark.parametrize("epsilon", [True, Decimal("0.001"), "0.001"],
                         ids=["bool", "decimal", "str"])
def test_the_battery_refuses_an_epsilon_that_is_not_a_real_number_before_any_check(
        monkeypatch, epsilon):
    for name in ("check_restoration", "check_quadratic_unbiasedness", "check_fd_gradient",
                 "check_cosine_positivity"):
        monkeypatch.setattr(verify, name, lambda **kw: pytest.fail("a check ran"))
    with pytest.raises(ConfigError, match="epsilon"):
        verify.run_verification(epsilon=epsilon)
