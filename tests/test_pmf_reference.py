"""conditional_pmf against the loop it replaced.

The reference below is the earlier conditional_pmf and _pmf_term, kept
verbatim but for their names: the loop takes one Python step per term, the
leading terms that underflow to exactly 0.0 included. The new build jumps
over those, so both must give the same pmf bytes, k_max and tail_mass, and
the same error where the truncation cannot be reached.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from dcffair import ConditioningError, TruncationError, conditional_pmf
from dcffair.cli import main
from dcffair.fairness import (_EXACT_COMB_LIMIT, _K_CAP, ConditionalPmf,
                              _rise_end, _zero_head)
from dcffair.mac import MacParams, slot_distribution, solve_attempt_fixed_point
from dcffair.traceio import write_csv
from test_cli import BASE_CONFIG


# --- reference: the loop conditional_pmf replaced ---

def _ref_pmf_term(k: int, l: int, beta: float) -> float:
    # C(k+l-1, k) (1-beta)^l beta^k, exact combinatorics for small orders
    # and log-domain gammas beyond to avoid overflow.
    if k + l <= _EXACT_COMB_LIMIT:
        return math.comb(k + l - 1, k) * (1.0 - beta) ** l * beta ** k
    log_term = (
        math.lgamma(k + l) - math.lgamma(k + 1) - math.lgamma(l)
        + l * math.log1p(-beta) + k * math.log(beta)
    )
    return math.exp(log_term)


def _ref_conditional_pmf(q_tagged: float, q_contender: float, l: int,
                         trunc_tol: float = 1e-9) -> ConditionalPmf:
    """Distribution of contender successes in the l-th-tagged-success window.

    q_tagged and q_contender are the stations' success-ownership
    probabilities; only their ratio enters through
    beta = q_contender / (q_tagged + q_contender). The pmf is truncated at
    the smallest k_max whose remaining tail mass is <= trunc_tol.

    Sum(pmf) + tail_mass is 1 to within 1e-12 by construction. For
    distributions needing upward of ~1e5 entries the reported tail_mass is
    limited by per-term floating-point accuracy and can sit slightly above
    trunc_tol even though the true remaining mass is provably below it.
    """
    if not q_tagged > 0.0:
        raise ConditioningError(
            "tagged ownership probability must be positive to condition on "
            f"its successes, got {q_tagged}"
        )
    if not q_contender >= 0.0:
        raise ValueError("contender ownership probability must be >= 0")
    if q_tagged + q_contender > 1.0 + 1e-12:
        raise ValueError("ownership probabilities must sum to at most 1")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not trunc_tol > 0.0:
        raise ValueError(f"trunc_tol must be positive, got {trunc_tol}")

    beta = q_contender / (q_tagged + q_contender)
    if beta == 0.0:
        return ConditionalPmf(l=l, beta=0.0, k_max=0,
                              pmf=np.array([1.0]), tail_mass=0.0)

    # Exact integer combinatorics while k + l stays small; beyond that, a
    # log-domain seed term feeds the ratio recurrence
    # pmf_{k} = pmf_{k-1} * beta * (k + l - 1) / k, which never forms the
    # overflowing binomial and drifts by only ~1 ulp per step (re-running
    # lgamma per term would carry its absolute error at huge arguments into
    # every entry). Log-domain reseeding carries the recurrence across
    # stretches where the head of the distribution underflows.
    terms: list[float] = []
    cumulative = 0.0
    compensation = 0.0  # Kahan: tail terms must not be absorbed by the sum
    k = 0
    term = _ref_pmf_term(0, l, beta)
    while True:
        terms.append(term)
        y = term - compensation
        t = cumulative + y
        compensation = (t - cumulative) - y
        cumulative = t
        if 1.0 - cumulative <= trunc_tol:
            break
        if k + l > _EXACT_COMB_LIMIT and term > 0.0:
            # Past the mode the term ratio r < 1 keeps falling, so the true
            # remaining tail is at most term * r / (1 - r). This certifies
            # termination for huge distributions whose accumulated sum is
            # limited by floating-point term accuracy (~1e-9 relative once
            # lgamma arguments reach 1e6) rather than by mass.
            ratio = beta * (k + l) / (k + 1)
            if ratio < 1.0 and term * ratio / (1.0 - ratio) <= trunc_tol:
                break
        k += 1
        if k > _K_CAP:
            raise TruncationError(
                f"tail did not reach {trunc_tol} within {_K_CAP} terms "
                f"(l={l}, beta={beta})"
            )
        if k + l <= _EXACT_COMB_LIMIT or term < 1e-300:
            # below the normal float range the recurrence cannot even
            # climb out of the smallest denormal; reseed from log domain
            term = _ref_pmf_term(k, l, beta)
        else:
            term = term * beta * (k + l - 1) / k
    return ConditionalPmf(l=l, beta=beta, k_max=k,
                          pmf=np.array(terms), tail_mass=1.0 - cumulative)


def _assert_same(q_tagged: float, q_contender: float, l: int,
                 trunc_tol: float) -> None:
    try:
        want = _ref_conditional_pmf(q_tagged, q_contender, l, trunc_tol)
    except TruncationError as err:
        with pytest.raises(TruncationError) as got:
            conditional_pmf(q_tagged, q_contender, l, trunc_tol)
        assert str(got.value) == str(err)
        return
    got = conditional_pmf(q_tagged, q_contender, l, trunc_tol)
    assert got.pmf.tobytes() == want.pmf.tobytes()
    assert (got.l, got.beta, got.k_max, got.tail_mass) == (
        want.l, want.beta, want.k_max, want.tail_mass)


BETAS = (1e-6, 0.01, 0.1, 0.367, 0.5, 0.9, 0.99)
LS = (1, 2, 49, 50, 51, 100, 1_000, 10_000, 100_000)
# every (beta, l) whose mean l beta / (1 - beta) is at most 1e5 at
# trunc_tol 1e-9, and at most 1e4 at the two tighter ones, so the
# reference's step per term stays affordable; 20 of these 170 pmfs open
# with an underflowing head of 53 to 82,976 zeros
GRID = [(beta, l, trunc) for beta in BETAS for l in LS
        for trunc, mean_cap in ((1e-9, 1e5), (1e-15, 1e4), (1e-40, 1e4))
        if l * beta / (1.0 - beta) <= mean_cap]


@pytest.mark.parametrize("beta, l, trunc_tol", GRID)
def test_same_pmf_on_grid(beta, l, trunc_tol):
    _assert_same(1.0 - beta, beta, l, trunc_tol)


# pairs whose rising stretch, up to _rise_end, conditional_pmf runs
# without the ratio stop; what each stresses: (beta, l, trunc_tol)
STRETCH = {
    # (beta l - 1) / (1 - beta) = 2999: the term ratio is exactly 1 there
    "whole-bound": (0.75, 1001, 1e-9),
    # beta near 1 at small l: the stretch is most of a long pmf
    "beta-0.999-l2": (0.999, 2, 1e-9),
    "beta-0.999-l51": (0.999, 51, 1e-9),
    # the mass stop fires inside the stretch, some 14,000 terms in
    "beta-1-1e-9": (1.0 - 1e-9, 2, 1.0 - 1e-10),
    # after the zero head, hundreds of terms below 1e-300 reseed
    "reseed": (0.3, 20_000, 1e-9),
}


@pytest.mark.parametrize("beta, l, trunc_tol", STRETCH.values(),
                         ids=STRETCH.keys())
def test_same_pmf_in_the_rising_stretch(beta, l, trunc_tol):
    _assert_same(1.0 - beta, beta, l, trunc_tol)


def test_stretch_pairs_stress_what_they_name():
    beta, l, _ = STRETCH["whole-bound"]
    bound = (Fraction(beta) * l - 1) / (1 - Fraction(beta))
    assert bound.denominator == 1 and _rise_end(l, beta) == bound
    assert beta * (bound + l) / (bound + 1) == 1.0

    beta, l, trunc_tol = STRETCH["beta-1-1e-9"]
    cpmf = conditional_pmf(1.0 - beta, beta, l, trunc_tol)
    assert _EXACT_COMB_LIMIT - l < cpmf.k_max < _rise_end(l, cpmf.beta)

    beta, l, _ = STRETCH["reseed"]
    cpmf = conditional_pmf(1.0 - beta, beta, l)
    head, end = _zero_head(l, cpmf.beta), _rise_end(l, cpmf.beta)
    assert 100 < np.count_nonzero(cpmf.pmf[head:end] < 1e-300) < end - head


@pytest.mark.parametrize("beta, l", [(beta, l) for beta in BETAS for l in LS]
                         + [(beta, l) for beta, l, _ in STRETCH.values()])
def test_rise_end_is_the_last_k_with_ratio_at_least_1(beta, l):
    # up to _rise_end the computed ratio beta (k + l) / (k + 1) is >= 1.0,
    # so the ratio stop cannot fire; at the next k it is < 1 exactly
    end = _rise_end(l, beta)
    if end >= 0:
        assert beta * (end + l) / (end + 1) >= 1.0
    if end < _K_CAP:
        assert Fraction(beta) * (end + 1 + l) < end + 2


def test_same_error_when_the_stretch_reaches_the_cap():
    # beta = 1 - 1e-9 and l = 2 rise past _K_CAP, and trunc_tol is met at
    # _K_CAP + 1: a stretch that ran one k past the cap would stop there,
    # where the reference raises
    q_tagged, q_contender, l = 1e-9, 1.0 - 1e-9, 2
    beta = q_contender / (q_tagged + q_contender)
    assert _rise_end(l, beta) == _K_CAP
    k = np.arange(_K_CAP + 2, dtype=float)  # C(k + 1, k) = k + 1 at l = 2
    pmf = np.exp(np.log(k + 1.0) + l * math.log1p(-beta) + k * math.log(beta))
    below = math.fsum(pmf[:-1])
    trunc_tol = 1.0 - (below + 0.5 * float(pmf[-1]))
    assert 1.0 - below > trunc_tol >= 1.0 - (below + pmf[-1])
    _assert_same(q_tagged, q_contender, l, trunc_tol)


def test_same_error_when_the_zero_head_reaches_the_cap():
    # beta = 1 - 1e-6 and l = 1e5: every term up to _K_CAP underflows, so
    # the reference steps through 2M zeros before it raises
    _assert_same(1e-6, 1.0 - 1e-6, 100_000, 1e-9)


def test_cli_pmf_file_matches_reference(tmp_path):
    config = {**BASE_CONFIG, "fairness": {**BASE_CONFIG["fairness"],
                                          "l": 20_000}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["fairness", "--config", str(path), "--out", str(out)]) == 0

    params = MacParams(**BASE_CONFIG["mac"])
    n = BASE_CONFIG["sim"]["n"]
    tau = solve_attempt_fixed_point(params, n).tau
    q = slot_distribution(np.full(n, tau), params).q
    want = _ref_conditional_pmf(float(q[0]), float(q[1]), 20_000,
                                trunc_tol=1e-9)
    assert want.pmf[0] == 0.0  # the zero head is there to jump over
    write_csv(tmp_path / "want.csv",
              {"k": range(want.pmf.size), "probability": want.pmf})
    assert ((out / "fairness_pmf.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())
    report = json.loads((out / "fairness.json").read_text())
    assert (report["k_max"], report["tail_mass"]) == (want.k_max,
                                                      want.tail_mass)
