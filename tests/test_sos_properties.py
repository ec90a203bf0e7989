"""Properties of the SoS identity both certificates share, over random
strategies drawn from Hypothesis-chosen seeds.

For every draw the identity closes (|residual| <= 1e-9), every square is
nonnegative, the norm defects of contractions are nonnegative, the noise
deficit stays above its trace-error floor, and the certified value stays
below the trace-corrected bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisygames.certificates import (
    chsh_sos_certificate,
    chsh_upper_bound,
    magic_square_upper_bound,
    ms_consistency_certificate,
)
from noisygames.games import (
    ChshStrategy,
    add_trace_bias,
    canonical_chsh_strategy,
    random_chsh_strategy,
    random_magic_square_strategy,
    trace_error,
)

TOL = 1e-9
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
RHOS = st.floats(0.05, 1.0)
BIASES = st.floats(0.0, 0.3)


def check_identity(cert):
    assert abs(cert.residual) <= TOL
    terms = dict(cert.terms)
    for label, value in terms.items():
        if label.startswith("square"):
            assert value >= -1e-12, label
        elif label.startswith("norm_defect"):
            assert value >= -TOL, label
    return terms["noise_deficit"]


@PROPERTY
@given(seed=SEEDS, rho=RHOS, n=st.integers(1, 3), kind=st.sampled_from(["binary", "bounded"]),
       bias=BIASES, noise_on=st.sampled_from(["bob", "alice"]))
def test_chsh_identity_closes_and_bounds_the_value(seed, rho, n, kind, bias, noise_on):
    strat = random_chsh_strategy(n, np.random.default_rng(seed), kind=kind, trace_bias=bias)
    cert = chsh_sos_certificate(strat, rho, noise_on=noise_on)
    eps = trace_error(strat)
    deficit = check_identity(cert)
    assert deficit >= -np.sqrt(2) * eps ** 2 / rho - TOL
    assert cert.value <= chsh_upper_bound(rho, eps) + TOL


@PROPERTY
@given(rho=RHOS, bias=st.floats(0.0, 1.0))
def test_chsh_bound_needs_its_trace_correction(rho, bias):
    # the canonical observables mixed toward the identity: at bias 1 the
    # value is 2, above the traceless bound 2 sqrt(2) rho once rho < 1/sqrt(2)
    base = canonical_chsh_strategy(1)
    ops = add_trace_bias(np.stack(base.alice + base.bob), bias)
    strat = ChshStrategy(1, (ops[0], ops[1]), (ops[2], ops[3]))
    cert = chsh_sos_certificate(strat, rho)
    check_identity(cert)
    assert cert.value <= chsh_upper_bound(rho, trace_error(strat)) + TOL


@PROPERTY
@given(seed=SEEDS, rho=RHOS, kind=st.sampled_from(["projective", "mixed", "raw"]),
       bias=BIASES, row=st.integers(1, 3))
def test_ms_identity_closes_and_bounds_the_consistency(seed, rho, kind, bias, row):
    strat = random_magic_square_strategy(1, np.random.default_rng(seed), kind=kind,
                                         trace_bias=bias)
    eps = trace_error(strat)
    for j in (1, 2, 3):
        cert = ms_consistency_certificate(strat, rho, (row, j))
        deficit = check_identity(cert)
        assert deficit >= -eps ** 2 / (2 * rho) - TOL
        # the variable's consistency probability is 1/2 + <C>/2
        assert 0.5 + cert.value / 2 <= magic_square_upper_bound(rho, eps) + TOL
