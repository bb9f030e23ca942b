import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcalc import expr as E
from fcalc.cover import (
    OpenCover,
    binding_pair,
    finite_subcover,
    lebesgue_number,
    length_inequality,
    step_approximation,
    sup_error,
    uniform_modulus,
    validate_lebesgue,
    verify_cover,
)
from fcalc.errors import CoverError, MathError, PreconditionError
from fcalc.interval import Interval, OpenInterval
from helpers import expr_trees


def cover_of(target, pieces):
    return OpenCover(Interval(*target), [OpenInterval(*p) for p in pieces])


TWO_PIECE = ([0, 1], [(-0.1, 0.6), (0.4, 1.1)])


def random_verified_cover(rng):
    """Chained overlapping pieces plus noise; always a true cover of [0,1]."""
    pieces = []
    left = -float(rng.uniform(0.02, 0.2))
    while True:
        width = float(rng.uniform(0.15, 0.5))
        pieces.append((left, left + width))
        if left + width > 1.0:
            break
        left = float(rng.uniform(left + 0.01, left + width - 0.01))
    for _ in range(int(rng.integers(0, 4))):
        lo = float(rng.uniform(-0.2, 0.9))
        pieces.append((lo, lo + float(rng.uniform(0.05, 0.4))))
    cov = cover_of([0, 1], pieces)
    ok, _ = verify_cover(cov)
    assert ok
    return cov


def test_verify_cover_examples():
    ok, witness = verify_cover(cover_of(*TWO_PIECE))
    assert ok and witness is None
    ok, witness = verify_cover(cover_of([0, 1], [(-0.1, 0.4), (0.6, 1.1)]))
    assert not ok and 0.4 <= witness <= 0.6
    ok, _ = verify_cover(cover_of([0, 0], [(-1, 1)]))
    assert ok
    ok, witness = verify_cover(OpenCover(Interval(0, 1), []))
    assert not ok and witness == 0.0


def test_shared_endpoint_is_a_gap():
    # (0, 0.5) and (0.5, 1) both miss the point 0.5
    ok, witness = verify_cover(cover_of([0, 1], [(-0.1, 0.5), (0.5, 1.1)]))
    assert not ok and witness == 0.5


def test_length_inequality_examples():
    cov = cover_of([0, 1], [(k / 10 - 0.15, k / 10 + 0.15) for k in range(1, 10, 2)])
    verify_cover(cov)
    assert length_inequality(cov)
    cov = cover_of([0, 1], [(-1, 2)])
    verify_cover(cov)
    assert length_inequality(cov)
    cov = cover_of([0, 0], [(-0.5, 0.5)])
    verify_cover(cov)
    assert length_inequality(cov)
    with pytest.raises(CoverError):
        length_inequality(cover_of(*TWO_PIECE))  # not verified yet


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("empty", [(5, -5), (math.nan, 3), (math.inf, math.inf)])
def test_length_inequality_counts_an_empty_piece_as_length_zero(empty):
    cov = OpenCover(Interval(0, 1), [(-1, 2), empty])
    assert verify_cover(cov)[0]
    assert length_inequality(cov)  # total length 3, not 3 - 10, nan or inf - inf


def test_finite_subcover_examples():
    cov = cover_of([0, 1], [(k / 10 - 0.15, k / 10 + 0.15) for k in range(11)])
    verify_cover(cov)
    assert finite_subcover(cov) == [1, 3, 5, 7, 9]
    cov = cover_of([0, 1], [(-1, 2)])
    verify_cover(cov)
    assert finite_subcover(cov) == [0]
    cov = cover_of([0, 1], [(-0.1, 0.6), (0.4, 1.1), (0.45, 0.55)])
    verify_cover(cov)
    assert finite_subcover(cov) == [0, 1]


def test_finite_subcover_reverifies_and_shrinks():
    rng = np.random.default_rng(13)
    for _ in range(25):
        cov = random_verified_cover(rng)
        assert length_inequality(cov)  # holds for every verified cover
        idx = finite_subcover(cov)
        assert len(idx) <= len(cov.pieces)
        sub = OpenCover(cov.target, [cov.pieces[i] for i in idx])
        ok, _ = verify_cover(sub)
        assert ok


def test_lebesgue_exact_example():
    cov = cover_of(*TWO_PIECE)
    verify_cover(cov)
    assert abs(lebesgue_number(cov, "exact") - 0.2) <= 1e-9


def test_lebesgue_single_piece_cap():
    cov = cover_of([0, 1], [(-1, 2)])
    verify_cover(cov)
    assert lebesgue_number(cov, "exact") == 1.0


def test_lebesgue_exact_is_maximal():
    cov = cover_of(*TWO_PIECE)
    verify_cover(cov)
    delta = lebesgue_number(cov, "exact")
    pair = binding_pair(cov, delta * 1.01)
    assert pair is not None
    x, y = pair
    assert abs(x - y) < delta * 1.01
    assert not any(p.lo < x < p.hi and p.lo < y < p.hi for p in cov.pieces)


def test_lebesgue_paper_mode_conservative_and_valid():
    rng = np.random.default_rng(29)
    for _ in range(30):
        cov = random_verified_cover(rng)
        exact = lebesgue_number(cov, "exact")
        paper = lebesgue_number(cov, "paper", sample=128)
        assert paper <= exact + 1e-15
        assert validate_lebesgue(cov, exact, pairs=2000, seed=5) == 0
        assert validate_lebesgue(cov, paper, pairs=2000, seed=6) == 0


@pytest.mark.parametrize("target, pieces, sample, delta", [
    ([0, 1], [(-0.1, 0.4), (0.8, 1.5), (0.5, 1.2), (0.8, 1.6), (0.6, 0.6), (0.9, 1.2),
              (0.3, 0.5), (0.3, 1.0), (-0.3, -0.2), (-0.0, 0.5)], 256, 0.05),
    ([0.2, 0.5], [(0.3, 0.5), (-0.1, 0.5), (0.1, 0.4), (0.0, 0.2), (0.1, 0.9), (0.4, 0.9)],
     2, 0.1),
    ([0.2, 0.35], [(0.15, 0.45), (0.1, 0.3), (0.55, 0.7), (0.1, 0.25), (-0.3, 0.1)],
     2, 0.04999999999999999),
])
def test_lebesgue_paper_mode_on_tie_covers_is_exact(target, pieces, sample, delta):
    # samples fall on pieces' midpoints, where t - lo and hi - t tie up to
    # rounding; keying each piece on its rounded midpoint instead of the exact
    # split moves the last two answers (to 0.15000000000000002 and 0.05)
    cov = cover_of(target, pieces)
    assert verify_cover(cov)[0]
    assert lebesgue_number(cov, "paper", sample=sample) == delta


def test_lebesgue_paper_mode_splits_a_piece_centred_on_zero_quickly():
    # for (-0.1, 0.1), t + 0.1 and 0.1 - t both round to 0.1 over about 2^56
    # doubles around 0, so a one-ulp walk from the midpoint never ends
    import time

    cov = cover_of([-0.5, 0.5], [(0.1, 0.7), (0.7, 0.9), (0.0, 0.6), (0.8, 1.2), (-0.7, -0.4),
                                 (-0.6, -0.3), (-0.4, 0.1), (-0.2, 0.0), (-0.1, 0.1),
                                 (0.0, 0.3), (0.1, 0.5), (0.2, 0.5), (0.4, 0.9)])
    assert verify_cover(cov)[0]
    start = time.process_time()
    assert lebesgue_number(cov, "paper", sample=8) == 0.03333333333333334
    assert time.process_time() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_infinity=True, allow_nan=True, width=64),
                          st.floats(allow_infinity=True, allow_nan=True, width=64)),
                max_size=12))
def test_split_keys_are_the_last_doubles_bound_by_the_left_end(pieces):
    from fcalc.cover import _split_keys

    pieces += [(-0.1, 0.1), (-1e308, 1.7e308), (5e-324, 1e-323), (1.0, math.nextafter(1, 2))]
    los, his = (np.array(v, dtype=float) for v in zip(*pieces))
    keep = los < his
    los, his = los[keep], his[keep]
    keys = _split_keys(los, his)
    for lo, hi, s in zip(los.tolist(), his.tolist(), keys.tolist()):
        if lo == -math.inf:
            assert s == -math.inf
        elif hi == math.inf:
            assert s == math.inf
        else:
            assert s - lo <= hi - s
            after = math.nextafter(s, math.inf)
            assert not after - lo <= hi - after


@st.composite
def _odd_covers(draw):
    """Grid covers with some pieces given an infinite end, emptied or made NaN."""
    cov = draw(_grid_covers())
    inf, nan = math.inf, math.nan
    pieces = []
    for p in cov.pieces:
        lo, hi = p.lo, p.hi
        pieces.append(draw(st.sampled_from([
            (lo, hi), (lo, hi), (lo, hi), (-inf, hi), (lo, inf), (-inf, inf), (nan, hi),
            (lo, nan), (hi, lo), (lo, lo), (inf, inf), (-inf, -inf)])))
    return OpenCover(cov.target, [OpenInterval(lo, hi) for lo, hi in pieces])


@settings(max_examples=300, deadline=None)
@given(_odd_covers(), st.sampled_from([2, 8, 256]))
def test_lebesgue_paper_mode_with_infinite_and_empty_pieces_matches_oracle(cov, sample):
    if not verify_cover(cov)[0] or cov.target.lo == cov.target.hi:
        return
    assert lebesgue_number(cov, "paper", sample=sample) == _oracle_half_radius(cov, sample)


def test_uniform_modulus_identity():
    delta = uniform_modulus(E.parse("x"), 0.0, 1.0, 0.25)
    assert delta >= 0.1
    xs = np.random.default_rng(0).uniform(0, 1, 10**4)
    cs = np.clip(xs + np.random.default_rng(1).uniform(-delta, delta, 10**4), 0, 1)
    mask = np.abs(xs - cs) < delta
    assert np.all(np.abs(xs[mask] - cs[mask]) < 0.25)


def test_uniform_modulus_constant_caps_at_length():
    delta = uniform_modulus(E.parse("5"), 0.0, 1.0, 0.07)
    assert delta == 1.0


def test_uniform_modulus_square():
    f = E.parse("x^2")
    eps = 0.2
    delta = uniform_modulus(f, 0.0, 1.0, eps)
    assert delta <= 0.11  # true modulus is about eps/2 at the right edge
    rng = np.random.default_rng(3)
    xs = rng.uniform(0, 1, 10**4)
    cs = np.clip(xs + rng.uniform(-delta, delta, 10**4), 0, 1)
    mask = np.abs(xs - cs) < delta
    assert np.all(np.abs(xs[mask] ** 2 - cs[mask] ** 2) < eps)


def test_step_approximation_identity_trace():
    f = E.parse("x")
    phi = step_approximation(f, 0.0, 1.0, 0.25, delta=0.25)
    assert phi.partition.cell_count == 5
    err = sup_error(f, phi)
    assert abs(err - 0.2) <= 1e-12
    assert err < 0.25


def test_step_approximation_constant():
    f = E.parse("3")
    phi = step_approximation(f, 0.0, 1.0, 0.1)
    assert phi.partition.cell_count == 1
    assert sup_error(f, phi) == 0.0


def test_step_approximation_sin():
    f = E.parse("sin(x)")
    phi = step_approximation(f, 0.0, 3.0, 0.01, grid=1024)
    assert sup_error(f, phi) < 0.01


@pytest.mark.parametrize("eps,grid,b", [(0.0, 256, 1.0), (math.nan, 256, 1.0), (0.1, 1, 1.0),
                                        (0.1, 10**8, 1.0), (0.1, 256, math.inf)])
def test_uniform_modulus_rejects_bad_arguments_at_once(eps, grid, b):
    with pytest.raises(PreconditionError):
        uniform_modulus(E.parse("x"), 0.0, b, eps, grid=grid)


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, 1e-300])
def test_step_approximation_rejects_a_bad_delta_at_once(delta):
    with pytest.raises(PreconditionError):
        step_approximation(E.parse("x"), 0.0, 1.0, 0.1, delta=delta)


def _pairs_within(f, xs, delta, a, b):
    """Largest |f(x) - f(y)| over y = x + s, s a few fractions of delta."""
    fx = E.evaluate(f, xs)
    worst = 0.0
    for s in (0.1, 0.5, 0.9, 1 - 1e-9):
        ys = np.clip(xs + s * delta, a, b)
        worst = max(worst, float(np.max(np.abs(E.evaluate(f, ys) - fx))))
    return worst


def test_uniform_modulus_sin_at_the_default_grid():
    delta = uniform_modulus(E.parse("sin(x)"), 0.0, 3.0, 0.01)
    assert 0 < delta and 2 * math.sin(delta / 2) < 0.01  # |sin x - sin y| <= 2 sin(|x-y|/2)


def test_uniform_modulus_certifies_a_narrow_spike():
    f = E.parse("exp(-((x-0.3)*100000)^2)")
    delta = uniform_modulus(f, 0.0, 1.0, 0.1)
    assert 0 < delta < 2e-6
    xs = np.linspace(0.3 - 5e-5, 0.3 + 5e-5, 20001)
    assert _pairs_within(f, xs, delta, 0.0, 1.0) < 0.1


@pytest.mark.parametrize("text,a,b", [("1/x", -1.0, 1.0), ("ln(x)", 0.0, 1.0)])
def test_uniform_modulus_fails_fast_where_f_blows_up(text, a, b):
    import time

    start = time.process_time()
    with pytest.raises(MathError):
        uniform_modulus(E.parse(text), a, b, 0.1)
    assert time.process_time() - start < 1.0


@settings(max_examples=60, deadline=5000)
@given(expr_trees((0.0, 1.0, -1.0, 2.5), max_leaves=6),
       st.floats(-2.0, 2.0), st.floats(0.01, 2.0), st.sampled_from([0.05, 0.2, 1.0]))
def test_uniform_modulus_is_a_modulus_or_raises(f, a, width, eps):
    b = a + width
    try:
        delta = uniform_modulus(f, a, b, eps)
    except MathError:
        return
    assert 0 < delta <= b - a
    assert _pairs_within(f, np.linspace(a, b, 4001), delta, a, b) < eps


def test_cover_json_round_trip():
    cov = cover_of(*TWO_PIECE)
    data = cov.to_json()
    back = OpenCover.from_json(data)
    assert back.target == cov.target and back.pieces == cov.pieces


@pytest.mark.parametrize("pieces", [[[0, 1, 2, 3]], [[0, 1], [2]], [0, 1], [[[0, 1]]],
                                    [[0, 1], "ab"], [[0, "x"]], 7],
                         ids=["four-ends", "ragged", "flat", "nested", "string", "word", "int"])
def test_cover_pieces_must_be_pairs(pieces):
    with pytest.raises(PreconditionError, match="pairs"):
        OpenCover(Interval(0, 1), pieces)
    with pytest.raises(PreconditionError, match="pairs"):
        OpenCover.from_json({"target": [0, 1], "pieces": pieces})


def test_cover_endpoints_are_read_only_arrays():
    cov = cover_of(*TWO_PIECE)
    assert cov.los.tolist() == [-0.1, 0.4] and cov.his.tolist() == [0.6, 1.1]
    with pytest.raises(ValueError):
        cov.los[0] = 0.5
    with pytest.raises(AttributeError):
        cov.pieces = []
    assert cov.pieces == [OpenInterval(-0.1, 0.6), OpenInterval(0.4, 1.1)]
    p = cov.pieces[1]
    assert (p.lo, p.hi, p.length, p.to_json()) == (0.4, 1.1, 1.1 - 0.4, [0.4, 1.1])


# Brute-force reference: the direct definitions, rescanning every piece
# for every query point.


def _containing(cov, x):
    """(largest right endpoint, lowest index attaining it) over pieces
    containing x, or (-inf, -1)."""
    best = (-math.inf, -1)
    for i, p in enumerate(cov.pieces):
        if p.lo < x < p.hi and p.hi > best[0]:
            best = (p.hi, i)
    return best


def _oracle_verify(cov):
    # the least uncovered target point, if any, is the left end or a right endpoint
    a, b = cov.target.lo, cov.target.hi
    for x in sorted({a} | {p.hi for p in cov.pieces if a <= p.hi <= b}):
        if _containing(cov, x)[1] < 0:
            return False, x
    return True, None


def _oracle_subcover(cov):
    chosen, r = [], cov.target.lo
    while True:
        hi, i = _containing(cov, r)
        chosen.append(i)
        if hi > cov.target.hi:
            return chosen
        r = hi


def _oracle_breaks(cov):
    a, b = cov.target.lo, cov.target.hi
    return sorted({a, b} | {v for p in cov.pieces for v in (p.lo, p.hi) if a <= v <= b})


def _oracle_lebesgue(cov):
    # inf of y - x over target pairs x < y sharing no piece: y is x's reach,
    # taken at each breakpoint and at the right end of each open cell
    breaks = _oracle_breaks(cov)
    ends = [(_containing(cov, x)[0], x) for x in breaks]
    ends += [(max(c.hi for c in cov.pieces if c.lo <= p and c.hi >= q), q)
             for p, q in zip(breaks, breaks[1:])]
    gaps = [reach - x for reach, x in ends if reach <= cov.target.hi]
    return min(gaps) if gaps else cov.target.length


def _shared(cov, x, y):
    return any(p.lo < x < p.hi and p.lo < y < p.hi for p in cov.pieces)


def _oracle_binding_pair(cov, delta):
    b = cov.target.hi
    breaks = _oracle_breaks(cov)
    xs = breaks + [q - min(delta * 1e-3, (q - p) / 2) for p, q in zip(breaks, breaks[1:])]
    for x in xs:
        reach, i = _containing(cov, x)
        if i < 0:
            continue
        for y in (min(reach, b), x + delta * (1 - 1e-12)):
            if x <= y <= b and y - x < delta and not _shared(cov, x, y):
                return (x, y)
    return None


def _oracle_half_radius(cov, sample):
    a, b = cov.target.lo, cov.target.hi
    n = sample
    while True:
        ts = np.linspace(a, b, n)
        radii = [max(min(t - p.lo, p.hi - t) if p.lo < t < p.hi else 0.0 for p in cov.pieces)
                 for t in ts]
        if (b - a) / (n - 1) < min(radii):
            return min(radii) / 2
        n *= 2


def _oracle_validate(cov, delta, pairs, seed):
    rng = np.random.default_rng(seed)
    a, b = cov.target.lo, cov.target.hi
    xs = rng.uniform(a, b, pairs)
    cs = np.clip(xs + rng.uniform(-delta, delta, pairs) * (1 - 1e-12), a, b)
    return sum(1 for x, c in zip(xs, cs) if abs(x - c) < delta and not _shared(cov, x, c))


@st.composite
def _grid_covers(draw):
    """Covers with endpoints on a 0.1 grid: ties, shared endpoints, empty
    and degenerate pieces and targets, non-covers, and (half the time) a
    shuffled chain that covers the target."""
    a = draw(st.integers(-5, 5))
    b = a + draw(st.integers(0, 10))
    pieces = draw(st.lists(st.tuples(st.integers(-8, 18), st.integers(0, 8)), max_size=8))
    pieces = [(lo, lo + w) for lo, w in pieces]
    if draw(st.booleans()):
        lo = a - draw(st.integers(1, 3))
        while True:
            w = draw(st.integers(2, 6))
            pieces.append((lo, lo + w))
            if lo + w > b:
                break
            lo += w - draw(st.integers(1, w - 1))
    pieces = draw(st.permutations(pieces))
    return cover_of([a / 10, b / 10], [(lo / 10, hi / 10) for lo, hi in pieces])


@settings(max_examples=400, deadline=None)
@given(_grid_covers())
def test_cover_queries_match_brute_force_oracle(cov):
    assert verify_cover(cov) == _oracle_verify(cov)
    assert binding_pair(cov, 0.25) == _oracle_binding_pair(cov, 0.25)
    assert validate_lebesgue(cov, 0.25, 300, 1) == _oracle_validate(cov, 0.25, 300, 1)
    if not cov.verified:
        return
    assert finite_subcover(cov) == _oracle_subcover(cov)
    if cov.target.lo == cov.target.hi:
        return
    delta = lebesgue_number(cov, "exact")
    assert delta == _oracle_lebesgue(cov)
    for factor in (1.0, 1.01, 1.5):
        assert binding_pair(cov, factor * delta) == _oracle_binding_pair(cov, factor * delta)
    assert validate_lebesgue(cov, delta, 300, 2) == _oracle_validate(cov, delta, 300, 2) == 0
    for sample in (2, 8, 256):
        assert lebesgue_number(cov, "paper", sample=sample) == _oracle_half_radius(cov, sample)


def _answers(cov):
    """Every cover query's answer, as text, so that signed zeros count."""
    out = [verify_cover(cov), binding_pair(cov, 0.25), validate_lebesgue(cov, 0.25, 300, 1)]
    if cov.verified:
        out.append(finite_subcover(cov))
    if cov.verified and cov.target.lo < cov.target.hi:
        delta = lebesgue_number(cov, "exact")
        out += [delta, lebesgue_number(cov, "paper", sample=8), binding_pair(cov, 1.01 * delta),
                validate_lebesgue(cov, delta, 300, 2)]
    return repr(out)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_grid_covers(), _odd_covers()))
def test_json_interval_and_array_covers_agree(cov):
    data = cov.to_json()
    forms = [OpenCover.from_json(data),
             OpenCover(cov.target, [OpenInterval(lo, hi) for lo, hi in data["pieces"]]),
             OpenCover(cov.target, np.array(data["pieces"]).reshape(-1, 2))]
    assert len({_answers(c) for c in forms}) == 1
    for c in forms:  # infinite, NaN, reversed and empty pieces come back bit for bit
        back = OpenCover.from_json(c.to_json())
        assert back.target == cov.target
        assert (_bits(back.los), _bits(back.his)) == (_bits(cov.los), _bits(cov.his))
        assert [_bits(p) for p in back.pieces] == [_bits(p) for p in cov.pieces]
