"""The local oscillation (Morrey-type) checks of :mod:`sobolab.morrey`."""

import hashlib
import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morrey_oracle import morrey_trial_oracle
from sobolab import bump, geometry, morrey, quadrature
from sobolab.errors import (
    ConfigInvalid,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    QuadratureNotConverged,
    SobolabError,
)
from sobolab.morrey import (
    MORREY_BLOCK,
    morrey_check,
    morrey_exact_trial,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_band_tables():
    """Each test builds the band tables it reads: a table cached by an
    earlier test would let a patched ladder pass or fail by test order."""
    bump._band_table.cache_clear()
    yield
    bump._band_table.cache_clear()


@st.composite
def _morrey_trial(draw):
    """One Morrey trial: 1-5 bumps in a row, some with exactly touching
    supports (dyadic centres and radii, so the touching is exact), and an
    interval [x0 - 2 delta, x0 + 2 delta] anywhere from inside one support
    to clear of every bump."""
    m = draw(st.integers(1, 5))
    radii = draw(st.lists(st.integers(16, 512), min_size=m, max_size=m))
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 400)),
                         min_size=m - 1, max_size=m - 1))
    centers = [draw(st.integers(-1536, 0)) + radii[0]]
    for gap, r0, r1 in zip(gaps, radii, radii[1:]):
        centers.append(centers[-1] + r0 + gap + r1)
    weights = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    u = bump.BumpSum(centers=np.array(centers)[:, None] / 1024.0,
                     radii=np.array(radii) / 1024.0, weights=weights)
    x0 = draw(st.floats(-3.0, 3.0))
    delta = draw(st.floats(0.005, 1.0))
    x1 = x0 + draw(st.floats(-1.0, 1.0)) * delta
    return u, x0, x1, delta


def _assert_matches_oracle(got, want):
    """The left-hand sides to the bit; the right-hand sides within 1e-9
    relative or 1e-300 absolute.

    The oracle integrates |u'|^p in x over breakpoint panels, the check the
    profile in s = |x - c| / r over band pieces, so their right-hand sides
    differ in the last bits.  The oracle's ladder tests sums below 1e-300
    in absolute terms only: it stops within about 1e-310 of the integral
    of a bump of tiny weight, which then differs from the check's in the
    seventh digit."""
    assert len(got) == len(want)
    for (lhs, rhs), (lhs_want, rhs_want) in zip(got, want):
        assert lhs == lhs_want
        assert math.isclose(rhs, rhs_want, rel_tol=1e-9, abs_tol=1e-300), \
            (rhs, rhs_want)


def _meets_no_band(u, x0, delta):
    """True when [x0 - 2 delta, x0 + 2 delta] meets the band of no bump of
    nonzero weight in more than a point: u' = 0 there, and the right-hand
    side is an exact 0."""
    a, b = x0 - 2.0 * delta, x0 + 2.0 * delta
    return all(w == 0.0 or ((b <= c - r or a >= c - r / 2.0)
                            and (b <= c + r / 2.0 or a >= c + r))
               for c, r, w in zip(u.centers[:, 0], u.radii, u.weights))


class TestMorrey:
    def test_constant_function_trivial(self, params_d1):
        u = bump.BumpSum(centers=[[0.0]], radii=[0.3], weights=[0.0])
        lhs, rhs = morrey_exact_trial(u, 0.1, 0.2, 0.3, params_d1.p)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_single_unit_bump_hand_case(self):
        # u = psi with support radius 1; x1 = 0.8 sits off the plateau so
        # the oscillation is genuinely positive
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        lhs, rhs = morrey_exact_trial(u, 0.0, 0.8, 0.9, 2.0)
        assert lhs <= rhs + 1e-9
        assert lhs > 0.0

    def test_unconverged_integral_raises(self, monkeypatch):
        # the smooth integrand settles to the last bit within six halvings,
        # so only a ladder with no halving left is out of reach; the table
        # is built first, so the trial's own partial pieces, s in
        # [0.890625, 0.9] on each side, fail
        bump._band_table("Morrey", 2.0)
        monkeypatch.setattr(bump, "_BAND_HALVINGS", 0)
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(QuadratureNotConverged,
                           match=r"over \[-0\.9, 0\.9\] not converged"):
            morrey_exact_trial(u, 0.0, 0.4, 0.45, 2.0)

    def test_unconverged_batch_names_first_trial(self, monkeypatch):
        # neither trial's partial pieces converge without a halving (s in
        # [0.890625, 0.9] for u, and the end of [0.5, 6/7] for v); the
        # error names the interval of the first
        bump._band_table("Morrey", 2.0)
        monkeypatch.setattr(bump, "_BAND_HALVINGS", 0)
        u = bump.BumpSum(centers=[[0.0]], radii=[2.0], weights=[1.0])
        v = bump.BumpSum(centers=[[0.5]], radii=[0.35], weights=[-2.0])
        block = _flat_block([(u, 0.0, 0.8, 0.9), (v, 0.4, 0.5, 0.1)])
        with pytest.raises(QuadratureNotConverged) as caught:
            morrey._exact_block(*block, 2.0)
        assert re.search(r"over \[-1\.8, 1\.8\] not converged to rel 1e-10 "
                         r"after 1 panels", str(caught.value))

    @pytest.mark.parametrize("x0, delta, panels", [
        (0.0, 0.5, slice(None)),        # both bands whole: every panel
        (65 / 256, 1 / 512, slice(1)),  # s in [0.5, 0.515625]: panel 0
    ])
    def test_whole_panels_run_no_ladder(self, monkeypatch, x0, delta,
                                        panels):
        # a piece made of whole panels adds the table's entries and runs no
        # ladder, so it needs no halving once the table is built
        _, table = bump._band_table("Morrey", 2.0)
        monkeypatch.setattr(bump, "_BAND_HALVINGS", 0)
        u = bump.BumpSum(centers=[[0.0]], radii=[0.5], weights=[1.0])
        _, rhs = morrey_exact_trial(u, x0, x0, delta, 2.0)
        sides = 2 if x0 == 0.0 else 1
        want = 2.0 * delta * sides * 2.0 * math.fsum(table[panels])
        assert rhs == pytest.approx(want, rel=1e-14)

    def test_unconverged_table_names_p_and_panel(self, monkeypatch):
        # with no halving left, the first panel of the table is out of reach
        monkeypatch.setattr(bump, "_BAND_HALVINGS", 0)
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(QuadratureNotConverged) as caught:
            morrey_exact_trial(u, 0.0, 0.8, 0.9, 2.0)
        assert str(caught.value) == (
            "Morrey band table at p = 2.0: panel [0.5, 0.515625] not "
            "converged to rel 1e-10 after 1 panels")

    def test_check_evaluates_few_nodes(self, params_d1, monkeypatch):
        # the morrey_d1 sweep's trials: one ladder over each whole band
        # piece took 624 720 nodes, and a ladder on both end panels of
        # every piece 212 336; the band table (built here) and the partial
        # panels alone take 7 264
        nodes = []
        rule = quadrature.rule_from_panels

        def counted(lo, hi, *args, **kwargs):
            out = rule(lo, hi, *args, **kwargs)
            nodes.append(len(out[0]))
            return out

        monkeypatch.setattr(quadrature, "rule_from_panels", counted)
        assert params_d1.p == 1.25
        rep = morrey_check(params_d1, trials=500, seed=780228)
        assert rep.violations == []
        assert sum(nodes) < 624720 // 20

    @pytest.mark.parametrize("x0, delta", [
        (2.0, 0.1),      # [a, b] meets no bump: the integral is exactly 0
        (0.35, 0.05),    # [a, b] covers the outer half of the band only
        (0.1, 0.05),     # inside the plateau: u' = 0 on all of [a, b]
        # s in [0.50625, 0.51125], inside the table's first panel, which
        # holds about 5e-25 of the band at p = 1.25
        (0.2035, 0.0005),
        # s in [0.9875, 0.9975], inside the table's last panel
        (0.397, 0.001),
        # s in [0.5025, 0.9975]: partial first and last panels round the
        # 30 full panels between
        (0.3, 0.0495),
    ])
    def test_edge_intervals_match_oracle(self, x0, delta):
        u = bump.BumpSum(centers=[[0.0]], radii=[0.4], weights=[1.5])
        got = morrey_exact_trial(u, x0, x0 + 0.5 * delta, delta, 1.25)
        want = morrey_trial_oracle(u, x0, x0 + 0.5 * delta, delta, 1.25)
        _assert_matches_oracle([got], [want])
        assert (got[1] == 0.0) == _meets_no_band(u, x0, delta)

    @pytest.mark.parametrize("weight, radius", [(1.0, 1.0), (-2.5, 0.3)])
    def test_rhs_at_p_one_is_the_total_variation(self, weight, radius):
        # p = 1: each side of a bump inside the interval adds |w|, the
        # variation of w psi from 1 to 0, whatever its radius
        u = bump.BumpSum(centers=[[0.2]], radii=[radius], weights=[weight])
        _, rhs = morrey_exact_trial(u, 0.2, 0.3, radius, 1.0)
        assert rhs == pytest.approx(2.0 * abs(weight), rel=1e-12)

    @given(st.sampled_from([1.0, 1.25, 2.0, 3.5]),
           st.sampled_from([1, 31, 32, 33]).flatmap(
               lambda size: st.lists(_morrey_trial(), min_size=size,
                                     max_size=size)))
    def test_batch_matches_oracle(self, p, trials):
        got = morrey._exact_block(*_flat_block(trials), p)
        want = [morrey_trial_oracle(*trial, p) for trial in trials]
        _assert_matches_oracle(got, want)
        for (u, x0, _, d), (_, rhs), (_, rhs_want) in zip(trials, got, want):
            if _meets_no_band(u, x0, d):
                assert rhs == rhs_want == 0.0
        # each trial gets the same bits alone as in the batch
        assert [morrey_exact_trial(*trial, p) for trial in trials] == got

    @pytest.mark.parametrize("seed", [0x5EE9, 781508])
    def test_check_matches_oracle_loop(self, params_d1, monkeypatch, seed):
        # three blocks of 16 and a partial fourth: the draws of
        # morrey_check, block by block, each trial through the oracle
        monkeypatch.setattr(morrey, "MORREY_BLOCK", 16)
        trials = 3 * 16 + 5
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
        violations = []
        for start in range(0, trials, 16):
            block = morrey._draw_block(rng, min(16, trials - start))
            checked = [morrey_trial_oracle(*trial, params_d1.p)
                       for trial in _block_trials(block)]
            _assert_matches_oracle(morrey._exact_block(*block, params_d1.p),
                                   checked)
            violations += [start + t for t, (lhs, rhs) in enumerate(checked)
                           if lhs > rhs + 1e-9]
        rep = morrey_check(params_d1, trials=trials, seed=seed)
        assert [v["trial"] for v in rep.violations] == violations

    @pytest.mark.parametrize("x0, x1, delta, p, error", [
        (0.1, 0.2, -0.3, 1.25, NonpositiveRadius),
        (0.1, 0.2, 0.0, 1.25, NonpositiveRadius),
        (math.nan, 0.2, 0.3, 1.25, MalformedInput),
        (0.1, math.inf, 0.3, 1.25, MalformedInput),
        (0.1, 0.2, math.nan, 1.25, MalformedInput),
        (0.1, 0.2, 0.3, 0.5, InvalidRange),
        (0.1, 0.2, 0.3, math.nan, InvalidRange),
        (0.1, 0.2, 0.3, math.inf, InvalidRange),
    ])
    def test_bad_trial_inputs_rejected(self, x0, x1, delta, p, error):
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(error):
                morrey_exact_trial(u, x0, x1, delta, p)

    def test_trial_takes_d1_sums_only(self):
        flat = bump.BumpSum(centers=[[0.0, 0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(MismatchedLengths):
            morrey_exact_trial(flat, 0.1, 0.2, 0.3, 2.0)

    @pytest.mark.parametrize("trials", [0, 2.5, True])
    @pytest.mark.parametrize("variant", ["exact", "diagnostic"])
    def test_bad_check_inputs_rejected(self, request, variant, trials):
        # the exact (d = 1) and the diagnostic (d = 2) route check the
        # count alike
        params = request.getfixturevalue(
            {"exact": "params_d1", "diagnostic": "params_d2"}[variant])
        with pytest.raises(ConfigInvalid, match="trials"):
            morrey_check(params, trials=trials, seed=1)

    def test_exact_variant_randomized(self, params_d1):
        rep = morrey_check(params_d1, trials=500, seed=11)
        assert rep.variant == "exact"
        assert rep.violations == []

    def test_diagnostic_variant(self, params_d2):
        rep = morrey_check(params_d2, trials=2, seed=13)
        assert rep.variant == "diagnostic"
        assert rep.passed
        assert rep.ratio_fine_max > 0.0


def _load_bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDraws:
    """The exact variant's rows record only a violation count, which a
    reordered draw would leave at 0; these pin the draws themselves.

    Each hash covers the bytes of the centres, radii, weights, x0, x1 and
    delta of one block of 64 trials (:func:`morrey._draw_block`), trial by
    trial, drawn with one generator call per quantity of the block.  The
    stream depends on the block size, so the hashes pin it at 64.
    ``bench/tracing.py`` keeps its own copy of the one-trial-at-a-time
    draw :func:`morrey._random_bump_sum`, which must stay equal to it."""

    @pytest.mark.parametrize("seed, want", [
        (0, "005d2a8d8b141488652a755266a71c54ad639c97337caef2b5114b313884f569"),
        (781508,
         "ad03d0d1e2e3ca92678711f5b88fabb7c540c61be30cced411253117816b7ba0"),
    ], ids=["0", "781508"])
    def test_exact_draws_pinned(self, seed, want):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
        centers, radii, weights, owner, x0, x1, delta = morrey._draw_block(
            rng, 64)
        h = hashlib.sha256()
        for t in range(64):
            mine = owner == t
            for a in (centers[mine], radii[mine], weights[mine],
                      [x0[t], x1[t], delta[t]]):
                h.update(np.asarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == want

    def test_bench_replay_draws_the_same_sums(self):
        tracing = _load_bench_tracing()
        seed = np.random.SeedSequence([781508, 0x30])
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            u = morrey._random_bump_sum(ours, 1)
            v = tracing._random_bump_sum_1d(theirs)
            for a, b in ((u.centers, v.centers), (u.radii, v.radii),
                         (u.weights, v.weights)):
                assert a.tobytes() == b.tobytes()


def _block_trials(block):
    """Each trial of a drawn block as (BumpSum, x0, x1, delta)."""
    centers, radii, weights, owner, x0, x1, delta = block
    return [(bump.BumpSum(centers=centers[owner == t],
                          radii=radii[owner == t],
                          weights=weights[owner == t]),
             x0[t], x1[t], delta[t]) for t in range(len(x0))]


def _flat_block(trials):
    """Trials (BumpSum, x0, x1, delta) as the flat arrays of a block, the
    inverse of :func:`_block_trials`."""
    sums, x0, x1, delta = zip(*trials)
    return (np.concatenate([u.centers for u in sums]),
            np.concatenate([u.radii for u in sums]),
            np.concatenate([u.weights for u in sums]),
            np.repeat(np.arange(len(sums)), [u.n for u in sums]),
            *(np.array(v, dtype=float) for v in (x0, x1, delta)))


class _RiggedRng:
    """Draws as ``rng`` does, except that every call of ``method`` whose
    leading arguments are ``args`` returns ``value`` in the drawn shape."""

    def __init__(self, rng, method, args, value):
        self._rng, self._method, self._args = rng, method, args
        self._value = value

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name != self._method:
            return draw

        def rigged(*args, **kwargs):
            out = draw(*args, **kwargs)
            if args[:len(self._args)] != self._args:
                return out
            if np.ndim(out):
                return np.full_like(out, self._value)
            return type(out)(self._value)
        return rigged


class TestBlock:
    """The exact route draws each block into flat arrays
    (:func:`morrey._draw_block`) and checks it with
    :func:`morrey._exact_block`, with no bump-sum object per trial."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 5, 32]),
           st.sampled_from([1.0, 1.25, 2.0, 3.5]))
    def test_block_matches_bump_sums(self, seed, count, p):
        block = morrey._draw_block(np.random.default_rng(seed), count)
        got = np.array(morrey._exact_block(*block, p))
        trials = _block_trials(block)
        alone = np.array([morrey_exact_trial(*trial, p) for trial in trials])
        assert alone.tobytes() == got.tobytes()

    @given(st.lists(st.lists(st.one_of(
        st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 0.5, 2.0 ** -60])),
        min_size=1, max_size=5), min_size=1, max_size=64))
    def test_trial_gaps_are_the_nn_bits(self, trials):
        centers = np.array([c for trial in trials for c in trial])
        owner = np.repeat(np.arange(len(trials)), [len(t) for t in trials])
        got = morrey._trial_nn_sq(centers, owner)
        for t, trial in enumerate(trials):
            want = (geometry._nn_sq_dists(np.array(trial)[:, None])
                    if len(trial) > 1 else np.array([math.inf]))
            assert got[owner == t].tobytes() == want.tobytes()

    def test_zero_gap_redraws_that_trial_alone(self):
        # plant a repeated centre in one trial of the first centres call
        seed = np.random.SeedSequence([781508, 0x30])
        clean = morrey._draw_block(np.random.default_rng(seed), 64)
        owner = clean[3]
        t = int(np.bincount(owner).argmax())
        first = int(np.flatnonzero(owner == t)[0])
        calls = []

        class Planted:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def uniform(self, *args, **kwargs):
                out = self._rng.uniform(*args, **kwargs)
                calls.append(args)
                if len(calls) == 1:
                    assert args == (-1.0, 1.0) and len(out) == len(owner)
                    out[first + 1] = out[first]
                return out

        block = morrey._draw_block(Planted(np.random.default_rng(seed)), 64)
        # one round redraws trial t's centres, between the first centres
        # call and the radii
        assert calls[:3] == [(-1.0, 1.0), (-1.0, 1.0), (0.1, 0.5)]
        assert np.array_equal(block[3], owner)
        mine = owner == t
        assert np.array_equal(block[0][~mine], clean[0][~mine])
        assert not np.array_equal(block[0][mine], clean[0][mine])
        assert np.all(geometry._nn_sq_dists(block[0][mine]) > 0.0)

    def test_generator_calls_grow_with_blocks(self, params_d1, monkeypatch):
        # each quantity of a block is one call, whatever the block's size
        calls = []
        default_rng = np.random.default_rng

        class Counted:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                draw = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return draw(*args, **kwargs)
                return counted

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Counted(default_rng(seed)))
        for trials, blocks in ((1, 1), (MORREY_BLOCK, 1),
                               (2 * MORREY_BLOCK + 3, 3)):
            calls.clear()
            morrey_check(params_d1, trials=trials, seed=5)
            assert len(calls) == 8 * blocks

    @pytest.mark.parametrize("method, args, value, bad_sum", [
        # every radius 3/4 of its nearest gap: neighbours overlap
        ("uniform", (0.3, 0.999), 1.5,
         dict(centers=[[0.0], [0.5]], radii=[0.375, 0.375],
              weights=[1.0, 1.0])),
        ("normal", (), math.nan,
         dict(centers=[[0.0]], radii=[0.5], weights=[math.nan])),
        ("uniform", (0.1, 0.5), 0.0,
         dict(centers=[[0.0]], radii=[0.0], weights=[1.0])),
        # every centre inf: each gap is NaN, which redraws nothing
        ("uniform", (-1.0, 1.0), math.inf,
         dict(centers=[[math.inf], [math.inf]], radii=[0.5, 0.5],
              weights=[1.0, 1.0])),
    ], ids=["overlap", "nan-weight", "zero-radius", "inf-centre"])
    def test_guard_raises_what_bump_sum_raises(self, method, args, value,
                                               bad_sum):
        with pytest.raises(SobolabError) as want:
            bump.BumpSum(**bad_sum)
        rng = _RiggedRng(np.random.default_rng(3), method, args, value)
        with pytest.raises(want.type):
            morrey._draw_block(rng, MORREY_BLOCK)

    @pytest.mark.parametrize("args, value, error", [
        ((-1.5, 1.5), math.nan, MalformedInput),
        ((0.01, 0.75), 0.0, NonpositiveRadius),
    ], ids=["nan-x0", "zero-delta"])
    def test_guard_checks_the_balls(self, args, value, error):
        # as morrey_exact_trial checks its x0, x1 and delta
        rng = _RiggedRng(np.random.default_rng(3), "uniform", args, value)
        with pytest.raises(error):
            morrey._draw_block(rng, MORREY_BLOCK)

    def test_exact_route_builds_no_bump_sum(self, params_d1, monkeypatch):
        built = []
        init = bump.BumpSum.__post_init__

        def counted(self, _nn_sq):
            built.append(self)
            init(self, _nn_sq)

        monkeypatch.setattr(bump.BumpSum, "__post_init__", counted)
        bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        assert len(built) == 1
        morrey_check(params_d1, trials=2 * MORREY_BLOCK + 3, seed=5)
        assert len(built) == 1

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan),
                                          (1.0, math.inf)])
    def test_non_finite_check_is_a_violation(self, params_d1, monkeypatch,
                                             lhs, rhs):
        # a NaN on either side must not pass the inequality, nor an
        # infinite right-hand side, which every left-hand side meets
        monkeypatch.setattr(
            morrey, "_exact_block",
            lambda *block: [(lhs, rhs)] * len(block[4]))
        rep = morrey_check(params_d1, trials=MORREY_BLOCK + 1, seed=5)
        assert [v["trial"] for v in rep.violations] == list(
            range(MORREY_BLOCK + 1))
        assert not rep.passed
