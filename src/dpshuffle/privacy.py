"""Closed-form privacy accounting and its Monte-Carlo cross-check.

The adversary's evidence about one row is whether it kept its slot.  In
a batch of size b shuffled by S independent permutations, the chance of
staying fixed in all S is (1/b)^S against ((b-1)/b)^S for being
displaced in all S, giving the likelihood ratio 1/(b-1)^S.  Each
attribute group's permutation of a batch is drawn independently and
uniformly (``shuffler``), which is all the ratio assumes.

Across runs the ratios aggregate to

    per-batch  IS:  t batches of size ~n1  ->  ratio t / (n1-1)^S
    cumulative CIS: prefixes absorb the batch count ->  1 / (n1-1)^S

with n1 the largest batch, and the privacy budget is the log of the
ratio.  The IS and CIS budgets therefore always differ by exactly
ln(t), and the CIS budget is negative whenever n1 > 2.

``mc_rr_estimate`` estimates the single-batch ratio by simulation, for
checking the closed forms rather than replacing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .partition import batch_runs
from .seeds import derive_rng

MIN_ORACLE_TRIALS = 10_000
# Uniform keys (8 bytes each) drawn per chunk of trials: at most this
# many, but a chunk holds at least one trial of S * n1 keys.
_ORACLE_KEYS = 1 << 21


def _check_scale(n1: int, num_shufflers: int) -> None:
    if n1 < 2:
        raise ValueError(
            f"batch size must be at least 2 for a defined ratio, got {n1}"
        )
    if num_shufflers < 2:
        raise ValueError(f"need at least 2 shufflers, got {num_shufflers}")


def _power_bits(n1: int, num_shufflers: int) -> int:
    """A lower bound on log2((n1-1)^S) that does not build the power."""
    return num_shufflers * ((n1 - 1).bit_length() - 1)


def rr_batch(n1: int, num_shufflers: int) -> float:
    """Likelihood ratio 1/(n1-1)^S for one batch of size n1.

    0.0 when (n1-1)^S is past the float range, where the ratio is below
    the smallest float anyway.
    """
    _check_scale(n1, num_shufflers)
    if _power_bits(n1, num_shufflers) >= 1024:  # past the float range
        return 0.0
    try:
        return 1.0 / (n1 - 1) ** num_shufflers
    except OverflowError:
        return 0.0


def _log_ratio(ratio: float, num_batches: int, n1: int, num_shufflers: int) -> float:
    """ln(ratio), where ratio = t / (n1-1)^S; from the logs of its factors
    only when the ratio underflowed to 0.0 or overflowed to inf, so every
    finite budget keeps the bits ``math.log(ratio)`` gives."""
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(num_batches) - num_shufflers * math.log(n1 - 1)


def epsilon_is(num_batches: int, n1: int, num_shufflers: int) -> float:
    """Privacy budget ln(t / (n1-1)^S) of per-batch shuffling."""
    _check_scale(n1, num_shufflers)
    if num_batches < 1:
        raise ValueError(f"batch count must be at least 1, got {num_batches}")
    if _power_bits(n1, num_shufflers) >= num_batches.bit_length() + 1076:
        ratio = 0.0  # t / (n1-1)^S < 2^-1076 rounds to 0.0
    else:
        try:
            ratio = num_batches / (n1 - 1) ** num_shufflers
        except OverflowError:
            ratio = math.inf
    return _log_ratio(ratio, num_batches, n1, num_shufflers)


def epsilon_cis(n1: int, num_shufflers: int) -> float:
    """Privacy budget ln(1 / (n1-1)^S) of cumulative shuffling."""
    return _log_ratio(rr_batch(n1, num_shufflers), 1, n1, num_shufflers)


@dataclass(frozen=True)
class PrivacyAccount:
    """Budget of one shuffle configuration."""

    mode: str
    num_batches: int
    n1: int
    num_shufflers: int
    epsilon: float

    @property
    def epsilon_report(self) -> float:
        """Magnitude reported alongside the signed budget."""
        return abs(self.epsilon)


def account(
    mode: str, n: int, num_batches: int, num_shufflers: int
) -> PrivacyAccount:
    """Account for a full run over n rows in ``num_batches`` batches.

    IS stages cover single batches; the paper's CIS stage i covers the
    prefix of batches 1..i, so its ratios use cumulative sizes; admissible
    CIS (n1 = 2) has epsilon and loss bound 0.  Every stage needs 2 rows.
    """
    if mode not in ("IS", "CIS"):
        raise ValueError(f"unknown accounting mode {mode!r}")
    runs = batch_runs(n, num_batches)
    n1 = runs[0][0]
    # Every batch holds a row, so a short stage covers 1: batch 1 when
    # n1 < 2, else for IS the first batch of the smaller size.
    if n1 < 2 or (mode == "IS" and runs[-1][0] < 2):
        stage = 1 if n1 < 2 else runs[0][1] + 1
        raise ValueError(f"stage {stage} covers 1 row(s); ratios need at least 2")
    if mode == "IS":
        epsilon = epsilon_is(num_batches, n1, num_shufflers)
    else:
        epsilon = epsilon_cis(n1, num_shufflers)
    return PrivacyAccount(
        mode=mode,
        num_batches=num_batches,
        n1=n1,
        num_shufflers=num_shufflers,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class RROracleEstimate:
    """Monte-Carlo estimate of the single-batch likelihood ratio."""

    n1: int
    num_shufflers: int
    trials: int
    fixed_runs: int
    displaced_runs: int
    ratio: float
    std_error: float
    analytic_ratio: float

    @property
    def deviation_in_se(self) -> float:
        return abs(self.ratio - self.analytic_ratio) / self.std_error


def mc_rr_estimate(
    n1: int, num_shufflers: int, trials: int, seed: int
) -> RROracleEstimate:
    """Simulate one batch and estimate P(fixed) / P(displaced).

    Each trial draws S independent permutations of the batch and tracks
    the first row: fixed means it kept slot 0 in every permutation,
    displaced means it lost slot 0 in every permutation.  Trials run in
    chunks of about ``_ORACLE_KEYS`` keys; the generator fills its output
    in order, so the counts do not depend on the chunk size.
    """
    _check_scale(n1, num_shufflers)
    if trials < MIN_ORACLE_TRIALS:
        raise ValueError(
            f"need at least {MIN_ORACLE_TRIALS} trials for a stable "
            f"estimate, got {trials}"
        )
    rng = derive_rng(seed, "rr-oracle", "perm", n1, num_shufflers)
    chunk_trials = max(1, _ORACLE_KEYS // (num_shufflers * n1))

    fixed = displaced = 0
    remaining = trials
    while remaining:
        chunk = min(remaining, chunk_trials)
        remaining -= chunk
        # Sorting iid uniform keys yields a uniform permutation per
        # (trial, shuffler); slot 0's occupant is the argmin key.
        keys = rng.random((chunk, num_shufflers, n1))
        slot0_source = keys.argmin(axis=2)
        fixed += int((slot0_source == 0).all(axis=1).sum())
        displaced += int((slot0_source != 0).all(axis=1).sum())

    if fixed == 0 or displaced == 0:
        raise ValueError(
            f"degenerate estimate (fixed={fixed}, displaced={displaced}); "
            f"increase trials"
        )
    conditioned = fixed + displaced
    q = fixed / conditioned
    ratio = fixed / displaced
    std_error = math.sqrt(q * (1 - q) / conditioned) / (1 - q) ** 2
    return RROracleEstimate(
        n1=n1,
        num_shufflers=num_shufflers,
        trials=trials,
        fixed_runs=fixed,
        displaced_runs=displaced,
        ratio=ratio,
        std_error=std_error,
        analytic_ratio=rr_batch(n1, num_shufflers),
    )
