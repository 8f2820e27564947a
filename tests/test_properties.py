"""Property tests on random inputs: the CLI's exit codes, the variance algebra,
the Monte Carlo kernel against the decimal oracle, and the outcome law and
one-shot rule against the Fock-basis oracle.

Examples are derandomized, so every run draws the same inputs.
"""

import cmath
import math

import numpy as np
import pytest

from cvteleport import cli, experiments
from cvteleport.fidelity import avg_fidelity_unit_gain, one_shot_fidelity
from cvteleport.kernel import _one_shot_into
from cvteleport.measurement import component_sigma
from cvteleport.protocol import squeeze_from_lambda, variance_standard_gain, variances_tailored
from oracles import (
    ORACLE_BOUND,
    ORACLE_STRATEGIES,
    decimal_log_fidelity,
    fock_conditional,
    oracle_excess,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Valid grid and sample sizes are drawn at most this large, so that no
# example runs long; larger draws lie beyond the bounds and exit 2 at once.
_SMALL = {"lambda_points": 3, "samples": 2000}
_BOUND = {"lambda_points": experiments.MAX_LAMBDA_POINTS, "samples": experiments.MAX_SAMPLES}


def _values(key):
    """Flag values of every kind: ints of any size, floats with inf and nan, text."""
    if key in _SMALL:
        ints = st.integers(max_value=_SMALL[key]) | st.integers(min_value=_BOUND[key] + 1)
        # text without decimal digits cannot parse to a large valid size
        chars = st.characters(blacklist_categories=("Nd", "Cs"))
    else:
        ints = st.integers()
        chars = st.characters(blacklist_categories=("Cs",))
    # no path separator: an ``out`` value names a file in the working directory
    text = st.text(chars.filter(lambda c: c != "/"), max_size=8)
    special = st.sampled_from(["inf", "-inf", "nan", "", " ", "1e400", "0x10"])
    return ints.map(str) | st.floats().map(repr) | special | text


@st.composite
def _argv(draw):
    setting = draw(st.sampled_from(cli.SETTINGS))
    command = "gaussian" if setting.key == "s" else draw(st.sampled_from(sorted(cli._RUNNERS)))
    argv = [command, setting.flag, draw(_values(setting.key))]
    for key, value in _SMALL.items():
        if key != setting.key:
            argv += [cli._BY_KEY[key].flag, str(value)]
    return argv


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


@pytest.fixture(scope="module")
def scratch_cwd(tmp_path_factory):
    # the runs write their CSVs into a scratch working directory
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("cli-properties"))
        yield


@hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
@hypothesis.given(argv=_argv())
@hypothesis.example(argv=["fig3", "--out", "a\0b", "--lambda-points", "2", "--samples", "2000"])
@hypothesis.example(argv=["fig3", "--out", "", "--lambda-points", "2", "--samples", "2000"])
def test_cli_exit_code_contract(argv, scratch_cwd):
    # 0 ok, 2 bad input, 3 IO error; never a traceback
    assert _exit_code(argv) in (0, 2, 3)


@st.composite
def _config_file(draw):
    """Config file bytes: random bytes, or lines of known and unknown keys,
    with and without ``=``, duplicates included."""
    if draw(st.booleans()):  # invalid UTF-8 among them; no path separator
        return draw(st.binary(max_size=64)).replace(b"/", b"")
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from([*cli._BY_KEY, "config", "bogus"]))
        value = draw(_values(key if key in cli._BY_KEY else "seed"))
        lines.append(key + draw(st.sampled_from([" = ", "=", " ", ""])) + value)
    return "\n".join(lines).encode()


@hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
@hypothesis.given(command=st.sampled_from(sorted(cli._RUNNERS)), content=_config_file())
@hypothesis.example(command="fig3", content=b"out =\n")
def test_config_file_exit_code_contract(command, content, scratch_cwd):
    with open("fuzz.cfg", "wb") as fh:
        fh.write(content)
    argv = [command, "--config", "fuzz.cfg", "--lambda-points", "2", "--samples", "2000"]
    assert _exit_code(argv) in (0, 2, 3)


_gain = st.floats(0.0, 2.0)


@hypothesis.settings(derandomize=True, max_examples=500)
@hypothesis.given(
    lam=st.floats(0.0, 0.999), eta=st.floats(0.0, math.pi / 4), g=_gain, g2=_gain
)
def test_uncertainty_product_and_fidelity_bound(lam, eta, g, g2):
    sq = squeeze_from_lambda(lam)
    for v in (variances_tailored(sq, eta, g2), variance_standard_gain(sq, g)):
        assert v.v_plus * v.v_minus >= 1.0 - 1e-12
        assert avg_fidelity_unit_gain(v) <= 1.0


# the circle joins once its kernel works on centred noise too
@hypothesis.settings(derandomize=True, deadline=None, max_examples=250)
@hypothesis.given(
    ax=st.floats(-1e16, 1e16),
    ay=st.floats(-1e16, 1e16),
    lam=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_decimal_oracle(ax, ay, lam, seed):
    # every branch of the line kernel (alpha_x <= 0, alpha_y != 0) on random targets
    sigma = component_sigma(squeeze_from_lambda(lam))
    w = np.random.default_rng(seed).normal(0.0, sigma, (2, 64))
    w[:, 0] = -ax, -ay  # the outcome beta = 0
    work = np.empty((6, 64))
    for strategy in ORACLE_STRATEGIES:
        work[:2] = w  # the kernel overwrites its rows
        _one_shot_into(strategy, (ax, ay), lam, work)
        got = work[0]
        ref = decimal_log_fidelity(strategy, ax, ay, lam, *w)
        assert oracle_excess(got, ref) <= ORACLE_BOUND


# Fock-basis oracle (tests/oracles.fock_conditional) at FOCK_N_MAX photons.
# Over 342 draws of the domain below, random ones and its corners, the worst
# |F - one_shot_fidelity| was 3.8e-14 and the worst density 2.8e-13 relative
# (2-vCPU Xeon, numpy 2.4.6); the bounds leave a margin of about 25x.
FOCK_N_MAX = 220
FOCK_F_BOUND = 1e-12
FOCK_DENSITY_RTOL = 1e-11


def _disc(radius):
    """Complex points of modulus at most ``radius``."""
    return st.builds(cmath.rect, st.floats(0.0, radius), st.floats(-math.pi, math.pi))


def _stated_density(alpha, beta, lam):
    """P(beta | alpha) as the engine samples it: two normal components of
    standard deviation ``component_sigma`` about the target's."""
    var = component_sigma(squeeze_from_lambda(lam)) ** 2
    return math.exp(-abs(beta - alpha) ** 2 / (2.0 * var)) / (2.0 * math.pi * var)


def _fock_errors(alpha, beta, epsilon, lam, density, fidelity):
    """|dF| and the density's relative error against the Fock-basis oracle."""
    ref_density, ref_fidelity = fock_conditional(alpha, beta, lam, FOCK_N_MAX)
    return abs(fidelity - ref_fidelity(epsilon)), abs(density / ref_density - 1.0)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(alpha=_disc(2.9), w=_disc(3.0), epsilon=_disc(2.9), lam=st.floats(0.0, 0.9))
def test_outcome_law_and_one_shot_rule_match_fock_oracle(alpha, w, epsilon, lam):
    beta = alpha + w
    f = one_shot_fidelity(alpha, beta, epsilon, squeeze_from_lambda(lam))
    df, dp = _fock_errors(alpha, beta, epsilon, lam, _stated_density(alpha, beta, lam), f)
    assert df <= FOCK_F_BOUND
    assert dp <= FOCK_DENSITY_RTOL


@pytest.mark.parametrize("lam", [0.0, 0.9])
@pytest.mark.parametrize(
    "alpha, beta, epsilon",
    # corners of the drawn domain: |alpha| = |epsilon| = 2.9, |beta - alpha| = 3
    [(2.9, 5.9, -2.9j), (2.9j, -0.1j, 2.9), (-2.9, -5.9, 2.9)],
)
def test_fock_oracle_converged_in_truncation(alpha, beta, epsilon, lam):
    # n_max photons and twice as many agree within the bounds above
    density, fidelity = fock_conditional(alpha, beta, lam, 2 * FOCK_N_MAX)
    df, dp = _fock_errors(alpha, beta, epsilon, lam, density, fidelity(epsilon))
    assert df <= FOCK_F_BOUND
    assert dp <= FOCK_DENSITY_RTOL


def _stated_law_copy(alpha, beta, epsilon, lam):
    """A test-local copy of the stated density and one-shot rule,
    F = exp(-|(alpha - epsilon) - lam (alpha - beta)|^2)."""
    density = (1.0 - lam * lam) / math.pi * math.exp(-(1.0 - lam * lam) * abs(beta - alpha) ** 2)
    return density, math.exp(-abs((alpha - epsilon) - lam * (alpha - beta)) ** 2)


@pytest.mark.parametrize("variant", ["as stated", "beta conjugated", "lam negated"])
def test_fock_oracle_rejects_a_conjugated_or_sign_flipped_law(variant):
    # the oracle is not vacuous: the same copy with beta conjugated, or with
    # -lam (the resource's other phase convention), misses it by far
    alpha, beta, epsilon, lam = 1.3 - 0.4j, 0.2 + 1.1j, 0.7 + 0.5j, 0.6
    b = beta.conjugate() if variant == "beta conjugated" else beta
    sign = -1.0 if variant == "lam negated" else 1.0
    density, f = _stated_law_copy(alpha, b, epsilon, sign * lam)
    df, dp = _fock_errors(alpha, beta, epsilon, lam, density, f)
    if variant == "as stated":
        assert df <= FOCK_F_BOUND and dp <= FOCK_DENSITY_RTOL
    else:  # |dF| is 0.82 with beta conjugated and 0.99 with -lam
        assert df > 1e6 * FOCK_F_BOUND
    if variant == "beta conjugated":  # the density then misses by a factor 3
        assert dp > 1e6 * FOCK_DENSITY_RTOL
