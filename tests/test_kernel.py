"""The coefficient-level kernel against its einsum definitions, for n = 2-16.

The einsum functions below spell out each index sum of the curvature parts,
pi(A) and the Jacobi cyclic sum; they are the oracles for the reshape/matmul
kernel in `curvature.coeff_parts`, `brackets.pi_apply` and
`brackets.jacobi_norm`.  `brackets.act_apply` is held to the einsum that
`act` used to call, bit for bit.  Every bound is relative to 1 + ||mu||^2.
"""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies as st

from bracketflow import (
    BracketTensor,
    FlowSpec,
    Variant,
    act,
    brackets,
    catalog,
    derivation_space,
    integrate,
    pi_action,
    stratum_label,
)
from bracketflow.brackets import (
    COEFF_CAP,
    DIM_CAP,
    act_apply,
    bracket_stack,
    derivation_matrix,
    ensure_lie,
    jacobi_norm,
    neg_pi_apply,
    pi_apply,
)
from bracketflow.catalog import random_solvable_bracket
from bracketflow.curvature import (
    coeff_ad_h_t,
    coeff_moment,
    coeff_parts,
    coeff_ric_star,
    coeff_ricci,
    coeff_scal_star,
    moment_map_fast,
    ricci_from,
)
from bracketflow.errors import NotALieBracket
from bracketflow.flows import _endomorphism, _field, _shifted, flow_field
from bracketflow.strata import beta_decomposition, label_from_beta, project_qbeta
from bracketflow.linalg import RANK_TOL, expm_stack, null_space, subspace_distance

from oracles import (
    DIM,
    PROPERTY,
    SEED,
    draw_bracket,
    expm_digits,
    field_reference,
    lie_bracket,
    null_space_full_svd,
    oracle_ricci,
    pi_matrix,
    random_antisymmetric_bracket,
)

KERNEL_TOL = 1e-12
PI_MATRIX_MAX_DIM = 10  # pi_matrix is a dense n^6 array: 134 MB at n = 16
# A full SVD of the n = 16 derivation matrix (3,375 x 225) holds a 91 MB left
# factor; the thin one needs about 12 MB at its peak.
DERIVATION_PEAK_MB = 32



def einsum_parts(c):
    """(M, K, H, Ric, Ric*) by one einsum per index sum."""
    m = -0.5 * np.einsum("pij,qij->pq", c, c) + 0.25 * np.einsum("ijp,ijq->pq", c, c)
    ads = np.transpose(c, (0, 2, 1))  # ads[p] = ad(e_p)
    k = np.einsum("pij,qji->pq", ads, ads)
    h = np.einsum("pjj->p", c)
    ric_star = m - 0.5 * k
    ad_h = np.einsum("i,ijk->kj", h, c)
    ric = ric_star - 0.5 * (ad_h + ad_h.T)
    return m, k, h, ric, ric_star


def einsum_pi_apply(a, c):
    return (
        np.einsum("kc,ijc->ijk", a, c)
        - np.einsum("ai,ajk->ijk", a, c)
        - np.einsum("bj,ibk->ijk", a, c)
    )


def einsum_jacobi(c):
    """Norm of the cyclic sum over all basis triples, repeated indices included."""
    t = np.einsum("xyk,kzw->xyzw", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.linalg.norm(cyc))


def _assert_close(got, want, mu):
    assert np.max(np.abs(np.asarray(got) - want)) <= KERNEL_TOL * (1.0 + mu.norm_sq)


class TestKernelProperties:
    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_parts_match_einsum(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        for got, want in zip(coeff_parts(mu.coeffs), einsum_parts(mu.coeffs)):
            _assert_close(got, want, mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_ricci_matches_koszul(self, seed, dim):
        mu = lie_bracket(np.random.default_rng(seed), dim)
        if mu is None:
            return
        _assert_close(coeff_parts(mu.coeffs)[3], oracle_ricci(mu), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM)
    def test_pi_apply_matches_einsum_and_pi_matrix(self, seed, dim):
        rng = np.random.default_rng(seed)
        mu = random_antisymmetric_bracket(rng, dim)
        a = rng.standard_normal((dim, dim))
        got = pi_apply(a, mu.coeffs)
        _assert_close(got, einsum_pi_apply(a, mu.coeffs), mu)
        if dim <= PI_MATRIX_MAX_DIM:
            want = (pi_matrix(a, dim) @ mu.coeffs.ravel()).reshape(got.shape)
            _assert_close(got, want, mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_chain_rule_finite_difference(self, seed, dim, lie):
        # d/dt act(exp tA, mu) at t = 0 is pi(A)mu: the identity that lets
        # linearize differentiate Ric* along pi(A)mu instead of the group path.
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        a = np.random.default_rng([seed, 1]).standard_normal((dim, dim))
        a /= np.linalg.norm(a)
        step = 1e-5
        fd = (act(sla.expm(step * a), mu).coeffs - act(sla.expm(-step * a), mu).coeffs) / (
            2.0 * step
        )
        exact = pi_apply(a, mu.coeffs)
        assert np.linalg.norm(fd - exact) <= 1e-6 * (1.0 + np.linalg.norm(exact))

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_derivation_matrix_equals_pi_action_columns(self, seed, dim, lie):
        # Bit for bit: the derivation solves of random_solvable_bracket, and
        # every draw built on them, must not move.
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
        want = np.column_stack([pi_action(e, mu).coeffs.ravel() for e in units])
        assert np.array_equal(derivation_matrix(mu), want)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_jacobi_norm_matches_full_cyclic_sum(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        _assert_close(jacobi_norm(mu.coeffs), einsum_jacobi(mu.coeffs), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, lie=st.booleans())
    def test_closed_form_scal_star_is_trace_of_ricci_star(self, seed, dim, lie):
        mu = draw_bracket(seed, dim, lie)
        if mu is None:
            return
        _assert_close(coeff_scal_star(mu.coeffs), np.trace(einsum_parts(mu.coeffs)[4]), mu)

    @PROPERTY
    @given(seed=SEED, dim=DIM, scale=st.floats(1e-3, 1e3))
    def test_normalized_moment_map_has_trace_minus_one(self, seed, dim, scale):
        mu = random_antisymmetric_bracket(np.random.default_rng(seed), dim, scale=scale)
        assert abs(np.trace(moment_map_fast(mu)) + 1.0) <= KERNEL_TOL

    @PROPERTY
    @given(seed=SEED, dim=DIM, t=st.floats(0.1, 10.0), k=st.integers(-8, 8))
    def test_raw_field_is_homogeneous_of_degree_three(self, seed, dim, t, k):
        c = random_antisymmetric_bracket(np.random.default_rng(seed), dim).coeffs
        field = flow_field(c, Variant.RAW, None)
        # Scaling by a power of two is exact in every product and sum.
        assert np.array_equal(flow_field(2.0**k * c, Variant.RAW, None), 2.0 ** (3 * k) * field)
        bound = KERNEL_TOL * t**3 * (1.0 + float(np.sum(c * c))) ** 1.5
        assert np.max(np.abs(flow_field(t * c, Variant.RAW, None) - t**3 * field)) <= bound


def _draw_field_input(rng, dim, variant, count):
    """An exactly antisymmetric c (one state, or a stack of count) and, off the raw
    variant, a beta decomposition with repeated eigenvalues, so that g_beta, u_beta
    and u_beta^t all show."""
    shape = (dim,) * 3 if count is None else (count,) + (dim,) * 3
    c = rng.standard_normal(shape)
    c = 0.5 * (c - c.swapaxes(-3, -2))
    if variant == Variant.RAW:
        return c, None
    weights = np.sort(rng.integers(1, 4, dim)).astype(float)
    return c, beta_decomposition(label_from_beta(-weights / weights.sum()))


def _ricci_of(c, ric_star, gauged):
    """R = Ric + ||Ric*||^2 Id as an accepted step forms it from a stage's state c and the
    Ric* that _field returns there, when gauged; else None."""
    return _shifted(ricci_from(ric_star, coeff_ad_h_t(c)), ric_star) if gauged else None


FIELD_VARIANTS = st.sampled_from([Variant.RAW, Variant.GAUGED, Variant.SCALSTAR])
COUNT = st.none() | st.integers(1, 5)


class TestFieldKernel:
    """flows._field, with R formed as an accepted step forms it, against the stage composed
    step by step (oracles.field_reference): A and R bit for bit; the slopes, which take two
    products where the reference's pi_apply takes three, within a rounding bound, and
    exactly antisymmetric."""

    @PROPERTY
    @given(dim=DIM, seed=SEED, variant=FIELD_VARIANTS, gauged=st.booleans(), count=COUNT)
    def test_slopes_and_endomorphisms_match_the_reference(self, dim, seed, variant, gauged, count):
        c, dec = _draw_field_input(np.random.default_rng(seed), dim, variant, count)
        gauged = gauged and variant != Variant.RAW  # raw runs carry no gauge
        slopes, a, ric_star = _field(c, variant, dec)
        want_slopes, want_a, want_r = field_reference(c, variant, dec, gauged)
        assert a.shape == want_a.shape and a.tobytes() == want_a.tobytes()
        r = _ricci_of(c, ric_star, gauged)
        assert (r is None and want_r is None) or (r.shape == want_r.shape
                                                  and r.tobytes() == want_r.tobytes())
        # Each entry of pi(A)c is three length-n sums; either composition is within
        # (n + 2) eps times the sum of the absolute terms, so they differ by at most
        # twice that.  The values are compared, as an exact zero may change its sign.
        abs_a, abs_c = np.abs(a), np.abs(c)
        terms = (np.einsum("...kl,...ijl->...ijk", abs_a, abs_c)
                 + np.einsum("...li,...ljk->...ijk", abs_a, abs_c)
                 + np.einsum("...lj,...ilk->...ijk", abs_a, abs_c))
        assert slopes.shape == want_slopes.shape
        assert np.all(np.abs(slopes - want_slopes) <= 2 * (dim + 2) * np.finfo(float).eps * terms)

    @pytest.mark.parametrize("dim", range(2, DIM_CAP + 1))
    @pytest.mark.parametrize("variant", [Variant.RAW, Variant.GAUGED, Variant.SCALSTAR])
    def test_slopes_are_exactly_antisymmetric(self, dim, variant):
        rng = np.random.default_rng(dim)
        for count in (None, 1, 2, 5):
            c, dec = _draw_field_input(rng, dim, variant, count)
            slopes = _field(c, variant, dec)[0]
            assert np.array_equal(slopes, -slopes.swapaxes(-3, -2))

    @PROPERTY
    @given(dim=DIM, seed=SEED, variant=FIELD_VARIANTS, gauged=st.booleans())
    def test_one_state_has_the_bits_of_a_stack_of_one(self, dim, seed, variant, gauged):
        c, dec = _draw_field_input(np.random.default_rng(seed), dim, variant, None)
        gauged = gauged and variant != Variant.RAW
        one, stacked = _field(c, variant, dec), _field(c[None], variant, dec)
        for g, w in zip(one + (_ricci_of(c, one[2], gauged),),
                        stacked + (_ricci_of(c[None], stacked[2], gauged),)):
            assert (g is None and w is None) or g.tobytes() == w[0].tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 9, DIM_CAP])
    def test_r_formed_for_a_step_at_once_has_each_stage_bits(self, dim):
        # An accepted step forms R for its six new stages as one (B, 6, n, n) stack,
        # from their states and the Ric* each stage kept.
        rng = np.random.default_rng(dim)
        for variant in (Variant.GAUGED, Variant.SCALSTAR):
            c, dec = _draw_field_input(rng, dim, variant, 12)
            ric_stars = [_field(state, variant, dec)[2] for state in c]
            stack = np.array(ric_stars).reshape(2, 6, dim, dim)
            r = _ricci_of(c.reshape(2, 6, dim, dim, dim), stack, True).reshape(12, dim, dim)
            for got, state, ric_star in zip(r, c, ric_stars, strict=True):
                assert got.tobytes() == _ricci_of(state, ric_star, True).tobytes()

    @pytest.mark.parametrize("dim", [3, 9])
    def test_scalstar_a_of_a_stack_in_any_layout(self, dim):
        # A (P, 7, n, n) view of a stage-major (7, P, n, n) Ric* stack, on which
        # project_qbeta returns a stack that is not C-contiguous: _shifted still
        # adds ||Ric*||^2 on its diagonals in place, with each slice's bits.
        c, dec = _draw_field_input(np.random.default_rng(dim), dim, Variant.SCALSTAR, 14)
        ric_stars = np.stack([_field(state, Variant.SCALSTAR, dec)[2] for state in c])
        stack = ric_stars.reshape(7, 2, dim, dim).swapaxes(0, 1)
        assert not project_qbeta(stack, dec).flags.c_contiguous
        a = _endomorphism(None, stack, Variant.SCALSTAR, dec)
        for got, ric_star in zip(a.reshape(14, dim, dim), stack.reshape(14, dim, dim)):
            assert got.tobytes() == _endomorphism(None, ric_star, Variant.SCALSTAR, dec).tobytes()

    def test_slopes_are_written_into_out(self):
        c, _ = _draw_field_input(np.random.default_rng(4), 5, Variant.RAW, 2)
        rows = np.zeros((2, 3, c[0].size))
        out = rows[:, 1].reshape(c.shape)
        slopes = _field(c, Variant.RAW, None, out=out)[0]
        assert slopes is out and slopes.tobytes() == _field(c, Variant.RAW, None)[0].tobytes()
        assert not rows[:, 0].any() and not rows[:, 2].any()

    @pytest.mark.parametrize("signs", ["constant", "random"])
    def test_at_cap_input_stays_finite_without_warnings(self, signs):
        # |c[i, j, k]| = COEFF_CAP for i != j at n = DIM_CAP: the kernel's
        # intermediates (c + c^T, ||Ric*||^2, the degree-5 scalstar field) stay
        # finite, and a RuntimeWarning is an error.
        n = DIM_CAP
        rng = np.random.default_rng(23)
        sign = np.ones((n,) * 3) if signs == "constant" else rng.choice([-1.0, 1.0], (n,) * 3)
        c = COEFF_CAP * np.triu(np.ones((n, n)), 1)[:, :, None] * sign
        c = c - c.swapaxes(0, 1)
        assert np.max(np.abs(c)) == COEFF_CAP and np.array_equal(c, -c.swapaxes(0, 1))
        weights = np.sort(rng.integers(1, 4, n)).astype(float)
        dec = beta_decomposition(label_from_beta(-weights / weights.sum()))
        for variant, gauged in ((Variant.RAW, False), (Variant.GAUGED, False),
                                (Variant.GAUGED, True), (Variant.SCALSTAR, False),
                                (Variant.SCALSTAR, True)):
            slopes, a, ric_star = _field(c, variant, None if variant == Variant.RAW else dec)
            for out in (slopes, a, ric_star, _ricci_of(c, ric_star, gauged)):
                assert out is None or np.all(np.isfinite(out))


class TestRicciKernels:
    """coeff_ric_star and coeff_ricci, the flows' one curvature kernel, against the einsum
    M - K/2 and the Koszul Ricci; each slice of a stack has the bits of its one-state call."""

    @pytest.mark.parametrize("dim", range(1, DIM_CAP + 1))
    def test_match_einsum_and_koszul_slice_by_slice(self, dim):
        rng = np.random.default_rng(dim)
        if dim == 1:
            mus = [BracketTensor.zero(1)] * 5
        else:
            mus = [mu for mu in (lie_bracket(rng, dim) for _ in range(8)) if mu is not None][:5]
        mus += [random_antisymmetric_bracket(rng, dim) for _ in range(2)]
        for j, mu in enumerate(mus):
            m, k, _, ric, _ = einsum_parts(mu.coeffs)
            got_ric, got_star = coeff_ricci(mu.coeffs)
            assert got_star.tobytes() == coeff_ric_star(mu.coeffs).tobytes()
            _assert_close(got_star, m - 0.5 * k, mu)
            _assert_close(got_ric, ric, mu)
            if j < 5:
                _assert_close(got_ric, oracle_ricci(mu), mu)
        for count in range(1, 6):
            for first in (0, len(mus) - count):
                cs = np.stack([mu.coeffs for mu in mus[first: first + count]])
                stars, (rics, stars_too) = coeff_ric_star(cs), coeff_ricci(cs)
                for j, c in enumerate(cs):
                    ric, ric_star = coeff_ricci(c)
                    assert stars[j].tobytes() == stars_too[j].tobytes() == ric_star.tobytes()
                    assert rics[j].tobytes() == ric.tobytes()


class TestStackedKernels:
    """A stack (B, n, n, n) is one more input: each slice of a stacked call
    equals the one-state call bit for bit."""

    @pytest.mark.parametrize("dim", range(1, DIM_CAP + 1))
    def test_each_slice_equals_the_single_call(self, dim):
        rng = np.random.default_rng(dim)
        for count in (1, int(rng.integers(2, 13))):
            cs = np.stack([
                random_antisymmetric_bracket(rng, dim, scale=rng.uniform(0.1, 10.0)).coeffs
                for _ in range(count)
            ])
            a = rng.standard_normal((count, dim, dim))
            h = np.eye(dim) + 0.3 * rng.standard_normal((count, dim, dim))
            parts, moment = coeff_parts(cs), coeff_moment(cs)
            scal, jac, pis = coeff_scal_star(cs), jacobi_norm(cs), pi_apply(a, cs)
            negs = neg_pi_apply(a, cs)
            acts = act_apply(h, cs)
            for j, c in enumerate(cs):
                for got, want in zip(parts, coeff_parts(c)):
                    assert np.array_equal(got[j], want)
                assert np.array_equal(moment[j], coeff_moment(c))
                assert scal[j] == coeff_scal_star(c)
                assert jac[j] == jacobi_norm(c)
                assert np.array_equal(pis[j], pi_apply(a[j], c))
                assert negs[j].tobytes() == neg_pi_apply(a[j], c).tobytes()
                assert np.array_equal(acts[j], act_apply(h[j], c))

    def test_bracket_stack_checks_each_slice_as_bracket_tensor(self):
        # Each slice of an antisymmetric stack passes or fails as BracketTensor and
        # ensure_lie decide, with their messages: the size cap, then the Jacobi identity.
        lie = catalog("s3").bracket.coeffs
        not_lie = random_antisymmetric_bracket(np.random.default_rng(5), 3).coeffs
        nan = lie.copy()
        nan[1, 2, 0] = np.nan
        inf = np.where(lie != 0.0, np.inf, 0.0)
        # max |c| of s3 is 1: the cap itself is accepted, twice it is not.
        slices = [lie, not_lie, nan, inf, COEFF_CAP * lie, 2.0 * COEFF_CAP * lie]
        norm_sq, items = bracket_stack(np.stack(slices))
        kinds = []
        for c, sq, got in zip(slices, norm_sq, items, strict=True):
            try:
                want = BracketTensor(c)
                ensure_lie(want)
            except (ValueError, NotALieBracket) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                assert sq == 0.0 or type(exc) is NotALieBracket  # a failed size check zeroes
                kinds.append(type(exc))
                continue
            assert np.array_equal(got.coeffs, want.coeffs) and not got.coeffs.flags.writeable
            assert got.jacobi_residual() == want.jacobi_residual()
            assert sq == want.norm_sq
            kinds.append(BracketTensor)
        assert kinds == [BracketTensor, NotALieBracket, ValueError, ValueError, BracketTensor,
                         ValueError]
        assert str(items[2]) == str(items[3]) == "structure constants must be finite"
        assert str(items[5]) == "largest |coefficient| 2.000e+25 exceeds the cap 1e+25"

    def test_bracket_stack_keeps_its_stack_read_only_without_copy_or_projection(self):
        # The stack is the brackets' storage, and a symmetric part, which the
        # integrator's states never have, is neither checked nor projected.
        lie = catalog("s3").bracket.coeffs
        tilted = lie.copy()
        tilted[0, 1, 2] += 1e-3
        cs = np.stack([lie, tilted, 2.0 * lie])
        want = cs.copy()
        _, items = bracket_stack(cs)
        assert not cs.flags.writeable and cs.tobytes() == want.tobytes()
        for mu, c in zip(items, cs, strict=True):
            assert mu.coeffs.base is cs and np.shares_memory(mu.coeffs, c)
        assert items[1].coeffs.tobytes() == tilted.tobytes()

    def test_no_record_runs_the_bracket_tensor_validator(self, monkeypatch):
        # Records check their stacks through bracket_stack alone: no call of
        # BracketTensor's validator comes from one.
        callers, validated = [], brackets._validated

        def watching(*args, **kwargs):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return validated(*args, **kwargs)

        mu = catalog("s3").bracket
        spec = FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=stratum_label(mu))
        monkeypatch.setattr(brackets, "_validated", watching)
        assert len(integrate(mu, spec).samples) == 21
        assert [names for names in callers if "_record_stack" in names] == []


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_zero_bracket_derivations_equal_null_space(dim):
    # The shortcut must return the very basis the null space gives, so that
    # random_solvable_bracket's abelian draws do not move.
    zero = BracketTensor.zero(dim)
    ker = null_space(derivation_matrix(zero), RANK_TOL)
    got = derivation_space(zero)
    assert len(got) == dim * dim
    assert all(np.array_equal(d, ker[:, i].reshape(dim, dim)) for i, d in enumerate(got))


def _rank_deficient(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank, nonzero singular values 1-10 times a scale."""
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    return (u * (scale * 10.0 ** rng.uniform(0.0, 1.0, rank))) @ v.T


# Row counts against the column count N: gesdd bidiagonalizes the matrix itself
# up to 11N/6 rows ("tall") and takes a QR first above that ("very_tall").
_ROWS = {
    "wide": lambda n: (1, n - 1),
    "square": lambda n: (n, n),
    "tall": lambda n: (n + 1, max(n + 1, 11 * n // 6)),
    "very_tall": lambda n: (11 * n // 6 + 1, 4 * n),
}


@PROPERTY
@given(seed=SEED, cols=st.integers(1, 40), shape=st.sampled_from(sorted(_ROWS)), data=st.data())
def test_null_space_matches_full_svd(seed, cols, shape, data):
    # The wide cases are nilradical's complements: a thin SVD there would drop
    # the kernel rows past min(rows, cols).
    lo, hi = _ROWS[shape](cols)
    assume(lo <= hi)
    rows = data.draw(st.integers(lo, hi), label="rows")
    rank = data.draw(st.integers(0, min(rows, cols - 1)), label="rank")
    mat = _rank_deficient(np.random.default_rng(seed), rows, cols, rank)
    ker = null_space(mat)
    assert ker.shape == (cols, cols - rank)
    assert np.linalg.norm(ker.T @ ker - np.eye(cols - rank)) <= KERNEL_TOL
    assert np.linalg.norm(mat @ ker) <= KERNEL_TOL * (1.0 + np.linalg.norm(mat))
    assert subspace_distance(ker, null_space_full_svd(mat)) <= KERNEL_TOL


def _two_step_draw():
    """A seeded n = 16 random_solvable_bracket draw on a two-step ideal."""
    return random_solvable_bracket(np.random.default_rng(1), DIM_CAP)


def test_derivation_spaces_at_dim_cap_stay_small(monkeypatch):
    solved = []

    def recording_null_space(mat, *args):
        solved.append(mat.shape)
        return null_space(mat, *args)

    monkeypatch.setattr(brackets, "null_space", recording_null_space)
    tracemalloc.start()
    try:
        ders = derivation_space(catalog("heisenberg", dim=15).bracket)
        _two_step_draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved == [(15**3, 15**2)] * 2
    assert len(ders) > 0
    assert peak < DERIVATION_PEAK_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_two_step_draw_equals_full_svd_draw(monkeypatch):
    # The bench inputs at n = 8-16 are such draws: the thin SVD must not move them.
    thin = _two_step_draw()
    monkeypatch.setattr(brackets, "null_space", null_space_full_svd)
    assert np.array_equal(thin.coeffs, _two_step_draw().coeffs)


@pytest.mark.parametrize("dim", [3, 5, 9, 13, DIM_CAP])
def test_act_equals_einsum_planned_per_call(dim):
    # act_apply contracts by three products in the order einsum(optimize=True)
    # plans; act's result must be the bits of that einsum.
    rng = np.random.default_rng(dim)
    mu = random_antisymmetric_bracket(rng, dim)
    h = sla.expm(0.3 * rng.standard_normal((dim, dim)))
    hinv = np.linalg.inv(h)
    want = np.einsum("ai,bj,kc,abc->ijk", hinv, hinv, h, mu.coeffs, optimize=True)
    assert np.array_equal(act(h, mu).coeffs, BracketTensor(want, antisymmetrize=True).coeffs)


def test_stepper_builds_no_bracket_tensor(monkeypatch):
    # Only the sampler validates its samples, as one stack; stage states, the
    # scal* renormalization and the per-step Jacobi check stay on raw arrays.
    mu0 = catalog("s3").bracket
    label = stratum_label(mu0)
    spec = FlowSpec(variant=Variant.SCALSTAR, t_end=10.0, label=label, record_every=0.25)
    built = []
    init = BracketTensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BracketTensor, "__init__", counting_init)
    traj = integrate(mu0, spec)
    assert traj.steps > len(traj.samples)
    assert len(built) <= len(traj.samples) + 2


def test_public_names_resolve_and_oracles_stay_in_tests():
    # The loop-by-loop oracles live in tests/oracles.py, not in the package.
    import bracketflow
    from bracketflow import brackets, curvature, linearize, strata

    for name in bracketflow.__all__:
        assert hasattr(bracketflow, name), name
    moved = {
        brackets: ["pi_matrix"],
        curvature: ["oracle_ricci", "moment_map", "moment_part"],
        linearize: ["delta_apply", "k_beta_basis", "P_FD_STEP", "FLOW_FD_STEP", "_ricstar_q",
                    "expm", "act"],
        strata: ["_clustered"],
    }
    # The old P check's group path: act stays public, but linearize no longer imports it.
    public = {"act"}
    for module, names in moved.items():
        for name in names:
            assert name in public or not hasattr(bracketflow, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestExpmStack:
    """linalg.expm_stack, the gauges' one batched exponential: Pade-13 with scaling and
    squaring chosen per slice, within 1e-13 of scipy.linalg.expm slice by slice (Frobenius
    norm, relative).  Where scipy misses by more, the 40-digit exponential decides: scipy
    then errs itself (it scales some non-normal slices of 1-norm 5-60 less, and misses the
    40-digit exponential by up to 6e-13), and a slice whose exponential is that ill-conditioned
    may also miss it by up to twice scipy's own error."""

    @PROPERTY
    @given(n=st.integers(2, 16), size=st.integers(0, 40), seed=SEED)
    def test_matches_scipy_slice_by_slice(self, n, size, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((size, n, n))
        # 1-norms from 1e-8 to 60, mixed in one stack
        norms = 10.0 ** rng.uniform(-8.0, np.log10(60.0), size)
        a *= (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        got = expm_stack(a)
        assert got.shape == a.shape
        for x, e in zip(a, got):
            want = sla.expm(x)
            if np.linalg.norm(e - want) > 1e-13 * np.linalg.norm(want):
                exact = expm_digits(x)
                scale = np.linalg.norm(exact)
                bound = max(1e-13, 2.0 * np.linalg.norm(want - exact) / scale)
                assert np.linalg.norm(e - exact) <= bound * scale

    @PROPERTY
    @given(n=st.integers(2, 16), seed=SEED)
    def test_zero_and_diagonal_slices(self, n, seed):
        d = np.random.default_rng(seed).uniform(-60.0, 60.0, (2, n))
        d[1] *= 1e-3
        a = np.zeros((3, n, n))
        a[1:, range(n), range(n)] = d
        got = expm_stack(a)
        assert np.array_equal(got[0], np.eye(n))
        for e, diag in zip(got[1:], d):
            assert np.array_equal(e, np.diag(np.diagonal(e)))
            want = np.exp(diag)
            assert np.linalg.norm(np.diagonal(e) - want) <= 1e-13 * np.linalg.norm(want)
