"""Monte-Carlo familywise error of the plug-in critical values that ``scope``, ``insig`` and
``tests`` run by default: the SCoPE partition, whose law comes from each edge's union touch set,
and the plug-in band tests.  Gaussian data with sigma = 1, J = 80, alpha = 0.1, k = log(N)/3;
each cell draws 1,000 replications from its own child stream of one seed, fixed before any rate
was read.  The N = 1000 cells are gated at alpha + 3 SE; the others are reported beside them.
On the same draws the partition also runs at the SCB-level k (beta = 0.05), a candidate
finite-sample factor, with its power on model B beside that of log(N)/3: reported, not gated."""

import numpy as np
from conftest import record_rate

from scopesets.dist import Rng
from scopesets.domain import Domain, Field
from scopesets.excursion import ScopeBands
from scopesets.hypotests import BandSpec, Calibration, et, grt, let_, lrt
from scopesets.preimage import KPolicy, _partition_rows, resolve_k
from scopesets.sim import model_mu

SEED = 2023
ALPHA, REPS, J = 0.1, 1000, 80
BOUND = ALPHA + 3 * np.sqrt(ALPHA * (1 - ALPHA) / REPS)  # 0.128
GATED_N = 1000
SCB = KPolicy("scb_level", beta=0.05)


def _summaries(gen, reps, N, mu):
    """(reps, J) column means and sds of iid N(mu, 1) samples of size N, drawn from their
    sufficient statistics as ``sim._draw_tstats`` draws t-statistics."""
    z = gen.standard_normal((reps, mu.size))
    chi2 = gen.chisquare(N - 1, (reps, mu.size))
    return mu + z / np.sqrt(N), np.sqrt(chi2 / (N - 1))


def _report(what, N, rate, gated):
    se = np.sqrt(rate * (1 - rate) / REPS)
    record_rate(f"{what}, N={N}: {rate:.3f} +- {se:.3f}"
                + (f" (gate {BOUND:.3f})" if gated else " (reported)"))
    return rate <= BOUND or not gated


def test_the_partition_law_holds_the_familywise_rate():
    # a below (above) column whose target is not under (over) its edge is a false discovery
    j = np.arange(J)
    a, b = model_mu("A", J).values, model_mu("B", J).values
    nulls = {"A at level 0": (a, 0.0, 0.0), "B at level 0": (b, 0.0, 0.0),
             "B on [-0.3, 0.2]": (b, -0.3, 0.2),
             "B on a field band": (b, np.where(j < 40, b, -np.inf), np.where(j >= 40, b, np.inf))}
    failed = []
    for i, (name, (mu, lower, upper)) in enumerate(nulls.items()):
        alternatives = np.count_nonzero((mu < lower) | (mu > upper))
        for N in (30, 100, GATED_N):
            mean, sd = _summaries(Rng(SEED).child(i).child(N).generator(), REPS, N, mu)
            scb_k = resolve_k(SCB, N, J, N - 1)
            for what, k, gated in ((f"partition, {name}", np.log(N) / 3, N == GATED_N),
                                   (f"partition at the SCB-level k = {scb_k:.2f}, {name}", scb_k,
                                    False)):
                _, _, below, above = _partition_rows(mean, sd, lower, upper, ALPHA, k,
                                                     1 / np.sqrt(N), N - 1)
                wrong = (below & ~(mu < lower)).any(axis=1) | (above & ~(mu > upper)).any(axis=1)
                if not _report(what, N, wrong.mean(), gated):
                    failed.append((name, N, wrong.mean()))
                if alternatives:  # power: the mean number of true discoveries
                    true = np.count_nonzero(below & (mu < lower), axis=1) + np.count_nonzero(
                        above & (mu > upper), axis=1)
                    record_rate(f"{what}, N={N}: {true.mean():.2f} of {alternatives} true "
                                "discoveries (power, reported)")
    assert not failed


def _band_error_rate(kind, mu, b_minus, b_plus, N, stream):
    """How often plug-in ``kind`` errs: a rejected point where the null holds (lrT: target in
    the closed band, leT: target not strictly inside), or a global rejection (grT, eT)."""
    dom, tau = Domain(J), 1 / np.sqrt(N)
    band = BandSpec(Field.constant(dom, b_minus), Field.constant(dom, b_plus))
    null = {"lrT": (b_minus <= mu) & (mu <= b_plus),
            "leT": (mu <= b_minus) | (mu >= b_plus)}.get(kind)
    cal = Calibration(alpha=ALPHA, cov=("iid_t", N - 1), k=np.log(N) / 3)
    test = {"grT": grt, "lrT": lrt, "eT": et, "leT": let_}[kind]
    errors = 0
    for mean, sd in zip(*_summaries(stream.generator(), REPS, N, mu)):
        dec = test(Field(dom, mean), band, ScopeBands(0.0, tau, Field(dom, sd)), quantile=cal)
        errors += dec.global_reject if null is None else dec.rejected.mask(J)[null].any()
    return errors / REPS


def test_plugin_local_band_tests_hold_the_familywise_rate():
    # lrT and leT read the union of both touch sides of each shifted edge, and grT the
    # partition's touch sets; eT is reported beside them, ungated: its plug-in construction is
    # not yet valid
    mu = {m: model_mu(m, J).values for m in "ABC"}
    cells = [("lrT", "A", 0.0, 0.0), ("lrT", "B", 0.0, 0.0), ("lrT", "C", 0.0, 0.0),
             ("lrT", "B", -0.3, 0.2), ("leT", "B", -0.3, 0.2), ("grT", "A", 0.0, 0.0)]
    failed = []
    for i, cell in enumerate(cells):
        kind, model, lo, hi = cell
        for N in (100, GATED_N):
            rate = _band_error_rate(kind, mu[model], lo, hi, N, Rng(SEED).child(10 + i).child(N))
            if not _report(f"plug-in {kind}, model {model} on [{lo}, {hi}]", N, rate,
                           kind in ("grT", "lrT", "leT") and N == GATED_N):
                failed.append((cell, N, rate))
    for N in (100, GATED_N):
        # eT at its boundary null: half the target on b_plus = 2 tau, half at tau
        tau = 1 / np.sqrt(N)
        target = np.where(np.arange(J) < J // 2, 2 * tau, tau)
        rate = _band_error_rate("eT", target, 0.0, 2 * tau, N, Rng(SEED).child(20).child(N))
        _report("plug-in eT, half the target on b_plus = 2 tau", N, rate, False)
    assert not failed
