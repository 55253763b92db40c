import json
import random
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from idealreg import betti, quotients
from idealreg.graded import GradedIdealView
from idealreg.ideals import MonomialIdeal
from idealreg.monomials import (
    degree,
    divides,
    mono_mul,
    monomial_basis,
    parse_monomial,
)
from idealreg.quotients import (
    GeneratorIndex,
    QuotientCertificate,
    QuotientFailure,
    check_order,
    greedy_order,
    monomial_colon,
    regularity_from_certificate,
    revlex_desc,
    search_order,
    verify_certificate,
)
from idealreg.samplers import random_monomial_ideal, rng_from_seed
from oracles import (
    MINIMALITY_MUTANTS,
    SEARCH_MUTANTS,
    AboveAtLeast,
    DroppedNeighbour,
    UnexcludedUps,
    _linear_colon,
    contains_monomial,
    equigenerated_ideals,
    minimality_error,
    mutant,
    random_equigenerated,
    random_polymatroidal_product,
    search_order_oracle,
)

SEARCH_POOL = Path(__file__).resolve().parents[1] / "bench" / "search_pool.json"


def gens(n, *names):
    return [parse_monomial(s, n)[0] for s in names]


def test_monomial_colon_examples():
    assert monomial_colon(gens(4, "a^2*b"), gens(4, "a*b*c")[0]) == gens(4, "a")
    assert monomial_colon(
        gens(4, "a^2*b", "a*b*c", "b*c*d"), gens(4, "c*d^2")[0]
    ) == gens(4, "b")
    assert monomial_colon([], gens(2, "a")[0]) == []


def test_monomial_colon_brute_force_oracle():
    rng = rng_from_seed(91)
    for _ in range(40):
        mi = random_monomial_ideal(rng, nmax=4, degmax=4, max_gens=4)
        basis = monomial_basis(mi.nvars, rng.randint(1, 4))
        u = basis[rng.randrange(len(basis))]
        colon = MonomialIdeal.from_gens(
            mi.nvars, monomial_colon(list(mi.gens), u) or [(0,) * mi.nvars]
        )
        # brute force: w in (I : u) iff w*u in I, checked degree by degree
        for e in range(7):
            for w in monomial_basis(mi.nvars, e):
                assert contains_monomial(colon, w) == contains_monomial(
                    mi, mono_mul(w, u)
                )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_linear_colon_matches_monomial_colon(seed):
    # every step of a shuffled G(I): prefix and u are minimal generators,
    # so no prefix member divides u
    rng = rng_from_seed(seed)
    mi = random_monomial_ideal(rng, nmax=5, degmax=4, max_gens=8)
    order = list(mi.gens)
    rng.shuffle(order)
    for t in range(1, len(order)):
        colon = monomial_colon(order[:t], order[t])
        if any(degree(w) >= 2 for w in colon):
            expected = None
        else:
            expected = tuple(sorted(w.index(1) + 1 for w in colon))
        assert _linear_colon(order[:t], order[t]) == expected


def test_linear_colon_examples():
    # the w are a^2*b, a*b, b: all meet S = {x2}
    hook = gens(4, "a^2*b", "a*b*c", "b*c*d")
    assert _linear_colon(hook, gens(4, "c*d^2")[0]) == (2,)
    assert _linear_colon(gens(4, "a*b", "b*c"), gens(4, "b^2")[0]) == (1, 3)
    # w = b*d misses S = {x1}; w = b^2 misses S = {x1}
    assert _linear_colon(gens(4, "a^2", "b*d"), gens(4, "a*c")[0]) is None
    assert _linear_colon(gens(3, "a", "b^2*c"), gens(3, "c")[0]) is None


def test_check_order_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient mismatch"):
        check_order(3, [(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="ambient mismatch"):
        check_order(3, [(1, 0, 0), (0, 1)])
    cert = QuotientCertificate(3, ((1, 0, 0), (0, 1)), ((), (1,)))
    with pytest.raises(ValueError, match="ambient mismatch"):
        verify_certificate(cert)


def test_check_order_hook():
    c = check_order(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    assert isinstance(c, QuotientCertificate)
    assert c.colon_vars == ((), (1,), (1,), (2,))
    assert regularity_from_certificate(c) == 3


def test_check_order_cubic():
    c = check_order(4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d"))
    assert isinstance(c, QuotientCertificate)
    assert c.colon_vars == ((), (2,), (1,), (1,), (1, 3))


def test_check_order_failure_reports_step():
    # reversed hook order fails immediately: (c*d^2) : (b*c*d) needs bd... try
    res = check_order(4, gens(4, "c*d^2", "a^2*b", "a*b*c", "b*c*d"))
    if isinstance(res, QuotientFailure):
        assert res.step >= 2 and degree(res.offender) >= 2
    else:
        # if this order happens to work the checker must still be consistent
        assert verify_certificate(res)


def test_check_order_rejects_non_minimal():
    with pytest.raises(ValueError):
        check_order(2, gens(2, "a", "a*b"))


def test_single_generator_trivial():
    c = check_order(3, gens(3, "a^2*b"))
    assert c.colon_vars == ((),)
    assert regularity_from_certificate(c) == 3


def test_search_cubic_square_has_no_order():
    I = MonomialIdeal.from_gens(
        4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )
    assert search_order(I.product(I)) is None


def test_search_hook_product_has_no_order():
    J = MonomialIdeal.from_gens(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    bc = MonomialIdeal.from_gens(4, gens(4, "b", "c"))
    assert search_order(bc.product(J)) is None


def test_search_veronese_finds_order():
    m3 = MonomialIdeal.from_gens(2, monomial_basis(2, 3))
    c = search_order(m3)
    assert c is not None and verify_certificate(c)


def test_search_verdict_order_invariant():
    # permuting the input generators cannot change the verdict
    I = MonomialIdeal.from_gens(3, gens(3, "a^2", "b^2", "a*c", "b*c"))
    base = search_order(I)
    permuted = MonomialIdeal.from_gens(3, list(reversed(I.gens)))
    again = search_order(permuted)
    assert (base is None) == (again is None)
    if base is not None:
        assert base.order == again.order  # determinized by presort


def test_certificate_regularity_matches_betti():
    rng = rng_from_seed(17)
    checked = 0
    while checked < 10:
        mi = random_monomial_ideal(rng, nmax=3, degmax=3, max_gens=5)
        if mi.is_unit or len(mi.gens) > 8:
            continue
        cert = search_order(mi)
        if cert is None:
            continue
        I = GradedIdealView.from_monomial_ideal(mi)
        assert regularity_from_certificate(cert) == betti.regularity(I).value
        checked += 1


def test_no_order_implies_no_linear_resolution_check():
    # equigenerated + certified non-linear resolution => search must fail;
    # asserted as the implication on the cubic square fixture
    I = MonomialIdeal.from_gens(
        4, gens(4, "a^2*b", "a^2*c", "a*c^2", "b*c^2", "a*c*d")
    )
    sq = I.product(I)
    r = betti.regularity(GradedIdealView.from_monomial_ideal(sq))
    assert r.certified and sq.is_equigenerated
    if r.value > sq.max_gen_degree():
        assert search_order(sq) is None


def test_serialization_roundtrip():
    c = check_order(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))
    back = QuotientCertificate.from_dict(json.loads(json.dumps(c.to_dict())))
    assert back == c and verify_certificate(back)


def test_search_guard():
    big = MonomialIdeal.from_gens(3, monomial_basis(3, 6))
    with pytest.raises(ValueError):
        search_order(big)


def colon_disagreements(index, gens):
    """The (k, prefix) where the bitset colon differs from `_linear_colon`:
    every u = g_k against every subset of the other generators, as the
    search visits them."""
    for k, u in enumerate(gens):
        for prefix in range(1 << len(gens)):
            if not prefix >> k & 1:
                members = [v for b, v in enumerate(gens) if prefix >> b & 1]
                if index.colon(k, prefix) != _linear_colon(members, u):
                    yield k, prefix


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=5, degmax=4, max_gens=8)),
), st.integers(0, 10**6))
def test_bitset_colon_matches_linear_colon_on_every_subset(I, seed):
    gens = list(I.gens)
    random.Random(seed).shuffle(gens)  # the index takes any order
    assert list(colon_disagreements(GeneratorIndex(gens), gens)) == []


@pytest.mark.parametrize("mutant", [DroppedNeighbour, AboveAtLeast, UnexcludedUps])
def test_colon_oracle_catches_a_mutant_index(mutant):
    ideals = [list(random_equigenerated(4, 2, 6, seed).gens) for seed in range(20)]
    assert any(next(colon_disagreements(mutant(gens), gens), None)
               for gens in ideals)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=16),
    st.integers(0, 10**6).map(random_polymatroidal_product),
))
def test_held_index_is_a_fresh_index_of_the_revlex_order(I):
    held = I.generator_index
    fresh = GeneratorIndex(revlex_desc(I.gens))
    assert held is I.generator_index  # built once
    assert vars(held).keys() == vars(fresh).keys()
    for name, value in vars(fresh).items():
        assert getattr(held, name) == value, name


@settings(max_examples=150, deadline=None)
@given(equigenerated_ideals(kmax=12), st.randoms(use_true_random=False))
def test_yes_no_colon_test_agrees_with_colon(I, rnd):
    index = I.generator_index
    r = len(I.gens)
    for _ in range(40):
        k = rnd.randrange(r)
        prefix = rnd.getrandbits(r) & ~(1 << k)
        assert index.linear(k, prefix) == (index.colon(k, prefix) is not None)


def test_both_searches_read_the_held_index_of_an_ideal_of_several_degrees(
    monkeypatch
):
    I = MonomialIdeal.from_gens(3, gens(3, "a^2", "a*b", "b^3", "b^2*c"))
    index = I.generator_index
    assert index.gens == tuple(revlex_desc(I.gens))
    read = []
    real = GeneratorIndex.linear

    def counted(self, k, prefix):
        read.append(self)
        return real(self, k, prefix)

    monkeypatch.setattr(GeneratorIndex, "linear", counted)
    for find in (search_order, greedy_order):
        read.clear()
        cert = find(I)
        assert cert is not None and verify_certificate(cert)
        assert read and all(x is index for x in read)


def test_the_index_holds_one_entry_per_exponent_that_occurs():
    # counted, not timed: lists up to the largest exponent would hold 10^9
    for names in (("a^1000000000", "b^1000000000"),
                  ("a^1000000000", "a*b^999999999", "c")):
        I = MonomialIdeal.from_gens(3, gens(3, *names))
        index = I.generator_index
        exponents = [{u[i] for u in I.gens} for i in range(3)]
        assert [set(at) for at in index.at] == exponents
        assert [set(above) for above in index.above] == exponents
        assert all(len(e) <= len(I.gens) for e in exponents)


def test_the_index_of_a_squarefree_veronese_ideal_holds_under_40_mb():
    # I_{16,6}: 8008 generators in 16 variables, about 89 MB when each raise
    # entry held a set of its own
    veronese = [tuple(1 if i in c else 0 for i in range(16))
                for c in combinations(range(16), 6)]
    order = revlex_desc(veronese)
    tracemalloc.start()
    try:
        index = GeneratorIndex(order)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.gens) == 8008
    assert held < 40_000_000


def test_equality_and_hash_ignore_the_held_index():
    for names in (("a^2", "a*b", "b*c"), ("a", "b^2")):
        I = MonomialIdeal.from_gens(3, gens(3, *names))
        J = MonomialIdeal.from_gens(3, gens(3, *names))
        before = hash(I), repr(I)
        I.generator_index
        assert (hash(I), repr(I)) == before
        assert I == J and hash(I) == hash(J) and {I: 1}[J] == 1


def pairwise_check_order(nvars, gens):
    """check_order's answer from `_linear_colon` on each prefix list."""
    steps = [()]
    for t in range(1, len(gens)):
        vars_ = _linear_colon(gens[:t], gens[t])
        if vars_ is None:
            colon = monomial_colon(gens[:t], gens[t])
            return QuotientFailure(t + 1, next(v for v in colon if degree(v) >= 2))
        steps.append(vars_)
    return QuotientCertificate(nvars, tuple(gens), tuple(steps))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=16),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=5, degmax=4, max_gens=8)),
), st.integers(0, 10**6))
def test_check_order_matches_pairwise_colons(I, seed):
    order = list(I.gens)
    random.Random(seed).shuffle(order)
    assert check_order(I.nvars, order) == pairwise_check_order(I.nvars, order)


def test_check_order_names_the_first_repeated_generator():
    # the first generator in the order that occurs twice, not the first repeat
    with pytest.raises(ValueError, match="not minimal: a\\*b divides a\\*b"):
        check_order(3, gens(3, "a*b", "b*c", "b*c", "a*b"))


@st.composite
def monomial_sequences(draw):
    """(n, seq): up to 8 monomials in n <= 4 variables, of several degrees
    (most sequences then hold a divisor) or of one degree, with up to two
    generators repeated, in any order."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        monomial = st.tuples(*[st.integers(0, 3)] * n)
    else:
        monomial = st.sampled_from(monomial_basis(n, draw(st.integers(1, 3))))
    seq = draw(st.lists(monomial, min_size=1, max_size=8))
    seq += [seq[k % len(seq)] for k in draw(st.lists(st.integers(0, 7), max_size=2))]
    return n, draw(st.permutations(seq))


def check_order_error(check, nvars, seq):
    """The message of the ValueError check(nvars, seq) raises, or None."""
    try:
        check(nvars, seq)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(monomial_sequences())
@example((3, gens(3, "a*b", "b*c", "b*c", "a*b")))  # the first repeat in the order
@example((2, gens(2, "a*b", "b", "a^2", "a")))  # b and a divide a*b: b is named
@example((3, gens(3, "b", "c")))  # minimal: c is above b in the last variable only
def test_check_order_refuses_exactly_the_sequences_with_a_divisor(case):
    n, seq = case
    assert check_order_error(check_order, n, seq) == minimality_error(seq)


def shuffled_generators(seed):
    """(n, seq): the generators of a random ideal of several degrees, in a
    random order, which often has no linear quotients."""
    rng = rng_from_seed(seed)
    I = random_monomial_ideal(rng, nmax=5, degmax=4, max_gens=8)
    order = list(I.gens)
    rng.shuffle(order)
    return I.nvars, order


def outcome(check, *args):
    """check(*args), or the message of the ValueError it raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomial_sequences(),
                 st.integers(0, 10**6).map(shuffled_generators)))
@example((4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2")))  # certified
@example((4, gens(4, "c*d^2", "a^2*b", "a*b*c", "b*c*d")))  # fails at step 2
@example((2, gens(2, "a*b", "b", "a^2", "a")))  # not minimal
def test_index_certificate_is_check_order(case):
    n, seq = case
    assert (outcome(lambda: GeneratorIndex(seq).certificate())
            == outcome(check_order, n, seq))


@pytest.mark.parametrize("edits", MINIMALITY_MUTANTS.values(),
                         ids=list(MINIMALITY_MUTANTS))
def test_divisor_oracle_catches_each_minimality_mutant(edits):
    bad_check = mutant(quotients, "check_order", edits)
    rng = random.Random(0)
    corpus = []
    for _ in range(200):
        n = rng.randint(1, 4)
        seq = [tuple(rng.randint(0, 3) for _ in range(n))
               for _ in range(rng.randint(1, 8))]
        corpus.append((n, seq))
    assert all(check_order_error(check_order, n, seq) == minimality_error(seq)
               for n, seq in corpus)
    assert any(check_order_error(bad_check, n, seq) != minimality_error(seq)
               for n, seq in corpus)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=9),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=4, degmax=3, max_gens=7)),
))
@example(MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")))  # a cycle: None at the root
@example(MonomialIdeal.from_gens(4, gens(4, "b", "c")).product(  # no order
    MonomialIdeal.from_gens(4, gens(4, "a^2*b", "a*b*c", "b*c*d", "c*d^2"))))
@example(MonomialIdeal.from_gens(  # an order other than the sorted one
    5, gens(5, "a*b*e", "a*c*e", "b^2*d", "b*d*e", "c*d*e")))
@example(MonomialIdeal.from_gens(2, monomial_basis(2, 3)))
@example(MonomialIdeal.from_gens(  # several degrees, no cycle, candidates skipped
    5, gens(5, "d", "c*e", "a^2*b", "a^2*c", "b^3*c")))
def test_search_order_matches_frozenset_search(I):
    expected = search_order_oracle(I)
    cert = search_order(I)
    if expected is None:
        assert cert is None
    else:
        assert cert is not None and list(cert.order) == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=9),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=4, degmax=3, max_gens=7)),
))
@example(MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")))  # no order
@example(MonomialIdeal.from_gens(2, gens(2, "a^2", "a*b", "b^3")))
def test_greedy_order_is_a_certified_degree_monotone_order_of_the_generators(I):
    cert = greedy_order(I)
    if cert is None:
        return
    assert sorted(cert.order) == sorted(I.gens)
    degs = [degree(u) for u in cert.order]
    assert degs == sorted(degs)
    assert verify_certificate(cert)
    assert search_order(I) is not None


def test_greedy_order_gives_up_where_no_order_exists():
    for mi in (MonomialIdeal.from_gens(4, gens(4, "a*b", "c*d")),
               MonomialIdeal.from_gens(3, gens(3, "a^2*b", "b^2*c", "c^2*a"))):
        assert search_order(mi) is None
        assert greedy_order(mi) is None


@pytest.mark.parametrize("n,names,need,cycle", [
    (4, ("a*b", "c*d"), [0b10, 0b01], True),
    (3, ("a*b^2", "b^2*c", "a*c^2"), [0b100, 0b100, 0], False),
    (5, ("d", "c*e", "a^2*b", "a^2*c", "b^3*c"), [0, 0b1, 0b10011, 0b10011, 0b11], False),
    (2, ("a^3", "a^2*b", "a*b^2", "b^3"), [0, 0, 0, 0], False),
])
def test_must_precede_examples(n, names, need, cycle):
    # bit k of need[b]: g_k comes before g_b, gens in `revlex_desc` order
    I = MonomialIdeal.from_gens(n, gens(n, *names))
    assert list(I.generator_index.gens) == gens(n, *names)
    assert quotients._must_precede(I.generator_index) == need
    assert quotients._has_cycle(need) is cycle


def orders_with_linear_quotients(gens):
    """Every order of gens whose colons are all generated by variables."""
    return [order for order in permutations(gens)
            if all(_linear_colon(order[:t], order[t]) is not None
                   for t in range(1, len(order)))]


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    equigenerated_ideals(kmax=6),
    st.integers(0, 10**6).map(lambda seed: random_monomial_ideal(
        rng_from_seed(seed), nmax=4, degmax=3, max_gens=6)),
))
@example(MonomialIdeal.from_gens(3, gens(3, "c", "a^2", "a*b", "b^2")))
def test_must_precede_holds_in_every_order_with_linear_quotients(I):
    route_gens = I.generator_index.gens
    need = quotients._must_precede(I.generator_index)
    orders = orders_with_linear_quotients(route_gens)
    for order in orders:
        at = {u: t for t, u in enumerate(order)}
        for b, u in enumerate(route_gens):
            before = [v for k, v in enumerate(route_gens) if need[b] >> k & 1]
            assert all(at[v] < at[u] for v in before)
    assert not (orders and quotients._has_cycle(need))


def pool_ideals():
    """The search pool of the benchmark's `certificates` workload, as
    (ideal, recorded verdict, recorded colon steps); the file is only read."""
    pool = json.loads(SEARCH_POOL.read_text())
    n = pool["nvars"]
    return [(MonomialIdeal.from_gens(n, [parse_monomial(g, n)[0] for g in rec["gens"]]),
             rec["order_exists"], rec["colon_steps"])
            for rec in pool["ideals"]]


def test_order_search_on_the_pool_stays_within_its_colon_test_budget(monkeypatch):
    # counted, not timed: 832 colon tests over the 240 pool ideals, against
    # 2 111 257 with no must-precede relation and 99 624 with the relation
    # but no cycle test
    calls = [0]
    real = GeneratorIndex.linear

    def counted(self, k, prefix):
        calls[0] += 1
        return real(self, k, prefix)

    monkeypatch.setattr(GeneratorIndex, "linear", counted)
    for I, order_exists, _ in pool_ideals():
        assert not order_exists
        assert search_order(I) is None
    assert 0 < calls[0] <= 1000


def order_of(cert):
    return None if cert is None else list(cert.order)


@pytest.fixture(scope="module")
def pruning_corpus():
    """(ideal, `search_order_oracle`'s answer): the ten shortest searches of
    the pool, polymatroidal products, which have orders, and ideals of
    several degrees."""
    pool = sorted(pool_ideals(), key=lambda rec: rec[2])[:10]
    ideals = [I for I, _, _ in pool]
    ideals += [random_polymatroidal_product(seed, max_gens=16) for seed in range(20)]
    mixed = (random_monomial_ideal(rng_from_seed(seed), nmax=4, degmax=3, max_gens=7)
             for seed in range(400))
    ideals += [I for I in mixed if len({degree(u) for u in I.gens}) > 1][:60]
    return [(I, search_order_oracle(I)) for I in ideals]


def test_search_order_matches_frozenset_search_on_the_pruning_corpus(pruning_corpus):
    assert [order_of(search_order(I)) for I, _ in pruning_corpus] == [
        expected for _, expected in pruning_corpus]


@pytest.mark.parametrize("edits", SEARCH_MUTANTS.values(), ids=list(SEARCH_MUTANTS))
def test_frozenset_search_catches_each_pruning_mutant(edits, pruning_corpus):
    bad_search = mutant(quotients, "search_order", edits)
    assert any(order_of(bad_search(I)) != expected for I, expected in pruning_corpus)
