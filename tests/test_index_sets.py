import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opwls.index_sets import (
    IndexSetSpec,
    generate,
    indices_to_text,
    is_monotone_lower,
)


def uniform_spec(kind, radius, d, cap=10, p=1.0):
    return IndexSetSpec(
        kind=kind, radius=float(radius), gamma=np.ones(d), degree_cap=cap, p=p
    )


def brute_force_hc(radius, d, cap):
    """Oracle: scan the full cap box against the membership predicate."""
    out = []
    for idx in itertools.product(range(cap + 1), repeat=d):
        if np.sum(np.log(np.array(idx) + 1.0)) <= math.log(radius + 1.0) + 1e-12:
            out.append(idx)
    return set(out)


def brute_force_lp(radius, d, cap, p, gamma=None):
    gamma = np.ones(d) if gamma is None else np.asarray(gamma)
    out = []
    for idx in itertools.product(range(cap + 1), repeat=d):
        weighted = gamma * np.array(idx, dtype=float)
        norm = weighted.max() if math.isinf(p) else np.sum(weighted**p) ** (1 / p)
        if norm <= radius + 1e-12:
            out.append(idx)
    return set(out)


class TestGenerate:
    def test_one_dimensional_l1(self):
        idx = generate(uniform_spec("lp_ball", 2, 1))
        assert [tuple(r) for r in idx] == [(0,), (1,), (2,)]
        assert len(idx) == 3

    def test_hyperbolic_cross_zero_radius(self):
        for d in (1, 2, 4):
            idx = generate(uniform_spec("hyperbolic_cross", 0, d))
            assert idx.shape == (1, d)
            assert np.all(idx == 0)

    def test_hyperbolic_cross_k3_d2_against_brute_force(self):
        idx = generate(uniform_spec("hyperbolic_cross", 3, 2))
        expected = brute_force_hc(3, 2, 10)
        assert {tuple(r) for r in idx} == expected
        assert len(idx) == 8
        assert expected == {
            (0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 0), (0, 3),
        }

    @pytest.mark.parametrize("kind,p", [("lp_ball", 1.0), ("lp_ball", 2.0),
                                        ("lp_ball", math.inf),
                                        ("hyperbolic_cross", 1.0)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_membership_against_brute_force(self, kind, p, d):
        radius, cap = 4, 6
        idx = generate(uniform_spec(kind, radius, d, cap=cap, p=p))
        if kind == "hyperbolic_cross":
            expected = brute_force_hc(radius, d, cap)
        else:
            expected = brute_force_lp(radius, d, cap, p)
        assert {tuple(r) for r in idx} == expected

    def test_linf_cardinality(self):
        for d, k in [(1, 3), (2, 3), (3, 2)]:
            idx = generate(uniform_spec("lp_ball", k, d, cap=10, p=math.inf))
            assert len(idx) == (k + 1) ** d

    def test_canonical_ordering(self):
        idx = generate(uniform_spec("lp_ball", 2, 2, p=1.0))
        keys = [(int(r.sum()), tuple(r)) for r in idx]
        assert keys == sorted(keys)

    def test_rerun_identical(self):
        spec = uniform_spec("hyperbolic_cross", 5, 3)
        assert np.array_equal(generate(spec), generate(spec))

    def test_no_duplicates(self):
        idx = generate(uniform_spec("hyperbolic_cross", 6, 3))
        assert len({tuple(r) for r in idx}) == len(idx)

    def test_degree_cap_binds(self):
        idx = generate(uniform_spec("lp_ball", 9, 1, cap=4))
        assert idx[:, 0].max() == 4

    def test_anisotropic_decay_radii(self):
        # linearly decaying weights produce irrational-looking thresholds;
        # slack keeps boundary members stable
        d = 8
        gamma = 1.0 - np.arange(d) * (0.99 / 20.0)
        spec = IndexSetSpec(
            kind="hyperbolic_cross", radius=6.0, gamma=gamma, degree_cap=10
        )
        idx = generate(spec)
        weighted = (gamma * np.log1p(idx)).sum(axis=1)
        assert np.all(weighted <= math.log(7.0) + 1e-12)
        assert is_monotone_lower(idx)

    def test_hard_limit(self, monkeypatch):
        monkeypatch.setattr("opwls.index_sets.MAX_SIZE", 10_000)
        spec = IndexSetSpec(
            kind="lp_ball", p=math.inf, radius=9.0, gamma=np.ones(7),
            degree_cap=9,
        )
        with pytest.raises(ValueError, match="hard limit"):
            generate(spec)

    def test_nesting_in_radius(self):
        for kind in ("lp_ball", "hyperbolic_cross"):
            small = {tuple(r) for r in generate(uniform_spec(kind, 2, 2))}
            large = {tuple(r) for r in generate(uniform_spec(kind, 4, 2))}
            assert small <= large

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            uniform_spec("banana", 1, 2)
        with pytest.raises(ValueError):
            IndexSetSpec(kind="lp_ball", radius=1.0, gamma=np.array([1.0, -1.0]),
                         degree_cap=3)
        with pytest.raises(ValueError):
            uniform_spec("lp_ball", -1, 2)
        with pytest.raises(ValueError):
            IndexSetSpec(kind="lp_ball", radius=1.0, gamma=np.ones(2),
                         degree_cap=3, p=0.5)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError, match="radius"):
                IndexSetSpec(kind="hyperbolic_cross", radius=radius,
                             gamma=np.ones(2), degree_cap=3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                IndexSetSpec(kind="lp_ball", radius=1.0,
                             gamma=np.array([1.0, bad]), degree_cap=3)
        IndexSetSpec(kind="lp_ball", radius=1.0, gamma=np.ones(2), degree_cap=3,
                     p=math.inf)


class TestMonotoneLower:
    def test_examples(self):
        assert is_monotone_lower(np.array([[0, 0], [1, 0]]))
        assert not is_monotone_lower(np.array([[1, 0]]))

    @pytest.mark.parametrize("kind,p", [("lp_ball", 1.0), ("lp_ball", 2.0),
                                        ("lp_ball", math.inf),
                                        ("hyperbolic_cross", 1.0)])
    def test_uniform_weights_always_monotone(self, kind, p):
        for d in (1, 2, 3):
            for k in range(6):
                idx = generate(uniform_spec(kind, k, d, cap=5, p=p))
                assert is_monotone_lower(idx)

    def test_canonical_prefixes_are_monotone(self):
        idx = generate(uniform_spec("hyperbolic_cross", 6, 3))
        for n in (1, 5, len(idx) // 2, len(idx)):
            assert is_monotone_lower(idx[:n])


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 3),
    k=st.floats(0.0, 6.0),
    kind=st.sampled_from(["lp_ball", "hyperbolic_cross"]),
)
def test_generated_sets_contain_zero_and_nest(d, k, kind):
    spec = uniform_spec(kind, k, d, cap=6)
    idx = generate(spec)
    members = {tuple(r) for r in idx}
    assert (0,) * d in members
    smaller = {tuple(r) for r in generate(uniform_spec(kind, k / 2.0, d, cap=6))}
    assert smaller <= members


class TestSerialization:
    def test_round_trip(self):
        idx = generate(uniform_spec("hyperbolic_cross", 4, 3))
        text = indices_to_text(idx)
        parsed = [[int(tok) for tok in line.split()] for line in text.splitlines()]
        assert np.array_equal(np.array(parsed), idx)
        first = text.splitlines()[0]
        assert first == "0 0 0"
