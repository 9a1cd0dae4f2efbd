"""Shell listings and successive minima against the box oracle."""

import bisect
import dataclasses
import gc
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from latquot import cli, enumeration
from latquot.codes import Code, c9, c10, classify_binary
from latquot.construct import (
    centred_cubic, code_lift, fixture_inventory, fixture_path, named, search_corpus, zd_lift,
    zn,
)
from latquot.core import GramLattice, _integral, _pivot_row, determinant, norm, validate
from latquot.enumeration import (
    _context,
    _dot,
    _times,
    _weights,
    invariant_report,
    is_well_rounded,
    minimum,
    minkowski_M,
    successive_minima,
    vectors_up_to,
)
from latquot.errors import MinimumDrops, ResourceExceeded
from latquot.quality import hermite_Hb, qb
from latquot.reduction import lll
from latquot.sampling import perturbed, random_gram
from latquot.watson import maximal_index
from oracles import (
    box_vectors, brute_minima, brute_minimum, divisor_sigma, kept_pivots, narrow_random_gram,
    rank_rational, reduced_gram, reference_enumerate, reference_frame, scaled,
)


def test_listings_match_the_box_oracle():
    # Spread and dimension are kept small so the oracle box stays
    # affordable; skew bases blow it up exponentially.  Each integral
    # instance also runs scaled by a non-integral rational, so that the
    # kernel has to clear denominators.
    rand = random.Random(21)
    for _ in range(20):
        n = rand.randint(2, 4)
        L = narrow_random_gram(rand, n)
        bound = Fraction(rand.randint(1, 2)) * min(L.gram[i][i] for i in range(n))
        c = Fraction(rand.randint(1, 9), rand.choice((2, 3, 5, 7)))
        if c.denominator == 1:
            c /= 11
        dilated = scaled(L, c)
        for lattice, limit in ((L, bound), (dilated, c * bound)):
            listing = vectors_up_to(lattice, limit)
            expected = box_vectors(lattice.gram, limit)
            assert len(listing.vectors) == len(expected)
            got = [(norm(lattice, v), v) for v in listing.vectors]
            assert set(got) == set(expected)
            assert [x for x, _ in got] == sorted(x for x, _ in got)
        assert _context(dilated).reduced.scale > 1
        assert vectors_up_to(dilated, c * bound).vectors == vectors_up_to(L, bound).vectors


def test_minimum_matches_the_box_oracle():
    rand = random.Random(22)
    for _ in range(20):
        L = narrow_random_gram(rand, rand.randint(2, 4))
        low, shell = minimum(L)
        assert low == brute_minimum(L.gram)
        assert all(norm(L, v) == low for v in shell.vectors)


def test_successive_minima_match_the_box_oracle():
    rand = random.Random(23)
    for _ in range(20):
        L = random_gram(rand, rand.randint(2, 4))
        frame = successive_minima(L)
        assert list(frame.norms) == brute_minima(L.gram)
        rows = [list(v) for v in frame.vectors]
        assert rank_rational(rows) == L.n
        assert list(frame.norms) == sorted(frame.norms)
        assert all(norm(L, v) == x for v, x in zip(frame.vectors, frame.norms))


def test_minkowski_product_on_known_lattices():
    assert minkowski_M(zn(5)) == 1
    assert minkowski_M(centred_cubic(9)) == 4
    assert minkowski_M(named("E7").lattice) == 64
    assert minkowski_M(named("E8").lattice) == 256


def test_invariant_report_for_e8():
    rep = invariant_report(named("E8").lattice)
    assert (rep.min, rep.det, rep.gamma_n_power, rep.s) == (2, 1, 256, 120)


def test_well_rounded_detection():
    assert is_well_rounded(zn(4))
    assert is_well_rounded(named("D4").lattice)
    skew = GramLattice.from_rows([[1, 0], [0, 5]])
    assert not is_well_rounded(skew)


def test_budget_exhaustion_raises():
    L = named("E8").lattice
    with pytest.raises(ResourceExceeded) as err:
        successive_minima(L, budget=5)
    assert (err.value.nodes, err.value.budget) == (6, 5)
    # a reduction kept from an earlier call must not bypass the budget
    successive_minima(L)
    with pytest.raises(ResourceExceeded) as err:
        successive_minima(L, budget=5)
    assert (err.value.nodes, err.value.budget) == (6, 5)


def test_the_cached_context_is_not_part_of_the_lattice_value():
    L = centred_cubic(5)
    twin = centred_cubic(5)
    before = (repr(L), hash(L))
    minimum(L)
    assert L._context is not None and twin._context is None
    successive_minima(L)
    assert L._context.ball is not None and L._context.frame is not None
    assert (repr(L), hash(L)) == before
    assert L == twin
    copy = pickle.loads(pickle.dumps(L))
    assert copy == L and hash(copy) == hash(L) and repr(copy) == repr(L)
    # the integral form travels with the lattice, pickling included,
    # but is not part of its value either
    assert copy._form == L._form == validate(L.gram)
    assert determinant(copy) == determinant(L)
    # the constructor takes no form; it always computes validate's
    with pytest.raises(TypeError):
        GramLattice(L.n, L.gram, L.label, _form=validate(L.gram))
    other = GramLattice(L.n, L.gram, L.label)
    object.__setattr__(other, "_form", validate(zn(5).gram))
    assert other == L and hash(other) == hash(L) and repr(other) == repr(L)
    # so does the context, the reduction and the minima ball in one
    assert copy._context == L._context and copy._context is not L._context
    # and it is the one cache the lattice declares
    private = [f.name for f in dataclasses.fields(GramLattice) if f.name.startswith("_")]
    assert private == ["_form", "_context"]


def test_each_lattice_is_reduced_once(monkeypatch):
    calls = []
    real = enumeration.lll

    def counting(lattice, *args):
        calls.append(lattice)
        return real(lattice, *args)

    monkeypatch.setattr(enumeration, "lll", counting)
    L = named("D4").lattice
    minimum(L)
    assert len(calls) == 1
    successive_minima(L)
    vectors_up_to(L, 2)
    is_well_rounded(L)
    qb(L)
    maximal_index(L)
    assert calls == [L]


def test_each_lattice_lists_its_minima_ball_once(monkeypatch):
    bounds = []
    real = enumeration._enumerate

    def counting(reduced, bound, counter):
        bounds.append(bound)
        return real(reduced, bound, counter)

    monkeypatch.setattr(enumeration, "_enumerate", counting)
    L = GramLattice.from_rows(named("D4").lattice.gram)
    rho = _context(L).radius
    frame = successive_minima(L)
    qb(L)
    assert is_well_rounded(L)
    maximal_index(L)
    assert successive_minima(L) is frame
    assert bounds == [rho]
    # A public listing walks the tree on each call, also at the radius;
    # the users of the ball still list nothing.
    assert len(vectors_up_to(L, rho)) == 12
    assert bounds == [rho, rho]
    qb(L)
    maximal_index(L)
    assert successive_minima(L) is frame
    assert bounds == [rho, rho]
    # The basis search deepens from the ball and the frame search reads
    # its shells from it, also where lam_n lies below rho or more than
    # one pass runs.
    cases = [(qb, L) for L in (centred_cubic(9), code_lift(c9()), code_lift(c10()), named("A74").lattice)]
    cases += [(maximal_index, named(name).lattice) for name in ("A73", "A74")]
    for call, lattice in cases:
        bounds.clear()
        fresh = GramLattice.from_rows(lattice.gram)
        call(fresh)
        assert bounds == [_context(fresh).radius], (call.__name__, lattice.label)


def test_minimum_lists_afresh_below_the_ball(monkeypatch, node_tally):
    # ``minimum`` lists to the least diagonal entry, below the radius of
    # the ball here, and keeps no listing there: three reports make three
    # enumerations, and each spends the same nodes.
    bounds = []
    real = enumeration._enumerate

    def counting(reduced, bound, counter):
        bounds.append(bound)
        return real(reduced, bound, counter)

    monkeypatch.setattr(enumeration, "_enumerate", counting)
    L = centred_cubic(9)
    reports, spent = [], []
    for _ in range(3):
        node_tally[0] = 0
        reports.append(invariant_report(L))
        spent.append(node_tally[0])
    assert bounds == [1, 1, 1] and _context(L).radius > 1
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].s == 9
    assert spent[0] == spent[1] == spent[2] > 0


def _outcome(call, L, budget, tally):
    """What ``call`` returns or raises on ``L``, with the nodes it spent."""
    tally[0] = 0
    try:
        result = call(L, budget)
    except ResourceExceeded as err:
        result = ("raised", err.nodes, err.budget, str(err))
    return result, tally[0]


def test_a_kept_ball_does_not_change_any_call(node_tally):
    # Every call on a lattice that already holds its minima ball returns,
    # spends and raises exactly what it does on a fresh copy, at the
    # default budget and at budgets that stop it in every phase.  The
    # frame search gets 20,000 nodes in place of the default, which some
    # of these lattices would spend for minutes; its minima and listing
    # still run at the default.
    calls = (
        successive_minima,
        minimum,
        qb,
        is_well_rounded,
        lambda L, budget: maximal_index(L, 20000 if budget is None else budget),
        lambda L, budget: vectors_up_to(L, _context(L).radius, budget),
        minkowski_M,
    )
    rand = random.Random(13)
    lattices = list(fixture_inventory().values())
    for n in range(4, 9):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(3)]
    for L in lattices:
        for budget in (5, 50, None, 500, 5, None):
            for call in calls:
                fresh = GramLattice(L.n, L.gram, L.label)
                kept = _outcome(call, L, budget, node_tally)
                assert kept == _outcome(call, fresh, budget, node_tally), (L.label, budget)
        assert _context(L).ball is not None


def _lift_over(L, budget):
    """The all ones code of order 3 lifted over L; a lift whose minimum drops has spent both checks."""
    try:
        zd_lift(Code(d=3, n=L.n, k=1, gen=((1,) * L.n,)), base=L, budget=budget)
    except MinimumDrops:
        pass


def _watson_command(stem):
    """``latquot watson --budget B`` on fixture ``stem`` with the all ones coset of order 2."""
    def call(L, budget):
        cli.main(["watson", str(fixture_path(stem)), "--coset", "2:" + ",".join("1" * L.n),
                  "--budget", str(budget), "--json"])
    return call


def test_no_call_charges_more_nodes_than_its_budget(monkeypatch):
    # A public call gets one allowance for all of its phases.  Each spend
    # is recorded with whether it raised; the spends of one call,
    # counted up to the one that ended it by raising, or all of them
    # when none did, total at most the budget B.  On each fixture the
    # calls run in turn, so the later ones reuse the kept minima ball.
    # The watson command reads its lattice from the fixture's file.
    spends: list[tuple[int, bool]] = []
    real = enumeration._Counter.spend

    def recording(self, amount=1):
        try:
            real(self, amount)
        except ResourceExceeded:
            spends.append((amount, True))
            raise
        spends.append((amount, False))

    monkeypatch.setattr(enumeration._Counter, "spend", recording)
    calls = (
        qb,
        hermite_Hb,
        maximal_index,
        successive_minima,
        minimum,
        invariant_report,
        is_well_rounded,
        minkowski_M,
        lambda L, budget: vectors_up_to(L, _context(L).radius, budget),
        _lift_over,
    )
    for stem, L in fixture_inventory().items():
        for budget in (100, 300, 1000, 3000, 10000):
            fresh = GramLattice(L.n, L.gram, L.label)
            for index, call in enumerate(calls + (_watson_command(stem),)):
                spends.clear()
                try:
                    call(fresh, budget)
                except ResourceExceeded:
                    pass
                if spends and spends[-1][1]:
                    spends.pop()
                charged = sum(amount for amount, _ in spends)
                assert charged <= budget, (L.label, budget, index, charged)


def test_each_lattice_clears_its_denominators_once(monkeypatch):
    # Construction computes the integral form; reduction, listings and
    # the searches read it from the lattice and never clear a Gram
    # matrix or eliminate it again.
    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    L = named("D4").lattice
    for module in [m for name, m in sys.modules.items() if name.startswith("latquot")]:
        for name in ("_integral", "_leading_minors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    GramLattice.from_rows(L.gram)
    assert sorted(calls) == ["_integral", "_leading_minors"]
    calls.clear()
    minimum(L)
    successive_minima(L)
    vectors_up_to(L, 2)
    is_well_rounded(L)
    qb(L)
    maximal_index(L)
    assert calls == []


def test_the_context_takes_its_data_from_the_reduction():
    # The integral reduction keeps its minors, coefficients and
    # diagonal; rebuilding them from the reduced Gram matrix U G U^T
    # row by row must give the same data.
    lattices = list(fixture_inventory().values())
    rand = random.Random(24)
    for n in range(5, 9):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(6)]
    for L in lattices:
        reduced = _context(L).reduced
        scale, a = _integral(reduced_gram(L))
        minors, lam = [1], []
        for i in range(L.n):
            row = _pivot_row(a[i][:i + 1], minors, lam)
            minors.append(row.pop())
            lam.append(tuple(row))
        weight = math.lcm(*(minors[i] * minors[i + 1] for i in range(L.n)))
        assert (reduced.scale, reduced.minors, reduced.lam, reduced.diagonal) == (
            scale, tuple(minors), tuple(lam), tuple(a[i][i] for i in range(L.n))), L.label
        assert _weights(reduced.minors) == (
            weight, [weight // (minors[i] * minors[i + 1]) for i in range(L.n)])
        assert L._form.scale == scale
        assert L._form.gram == tuple(map(tuple, _integral(L.gram)[1]))


def _kernel_corpus():
    """Fixtures, centred cubics, perturbed corpus lattices and random forms, plain and scaled."""
    lattices = list(fixture_inventory().values()) + [centred_cubic(n) for n in range(4, 10)]
    rand = random.Random(25)
    for n in range(4, 11):
        corpus = search_corpus(n)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(3)]
    for n in range(1, 7):
        lattices += [random_gram(rand, n) for _ in range(4)]
    return lattices + [scaled(L, Fraction(3, 7)) for L in lattices]


def _stops_at(kernel, reduced, bound, budget):
    """The (nodes, budget) of the error ``kernel`` raises under ``budget``."""
    with pytest.raises(ResourceExceeded) as err:
        kernel(reduced, bound, enumeration._Counter(budget))
    return err.value.nodes, err.value.budget


def _skewed(c):
    """Z^2 in a basis where the vectors of norm 2 or less have coordinates (1, c + {-1, 0, 1})."""
    return GramLattice.from_rows([[1 + c * c, -c], [-c, 1]], label=f"skewed {c}")


def _conjugated_z3(k):
    """Z^3 in the basis U = [[1, k, 0], [0, 1, 0], [k + 1, 0, 1]]; U^-1 holds k * (k + 1)."""
    u = [[1, k, 0], [0, 1, 0], [k + 1, 0, 1]]
    gram = [[sum(a * b for a, b in zip(x, y)) for y in u] for x in u]
    return GramLattice.from_rows(gram, label=f"Z3 conjugated by {k}")


# A3 in a skewed basis.  Listed to norm 4, it reaches the coordinate 222,
# the bound itself; without the centres' reach the bound would be 188.
SKEWED_A3 = ((474, -81, -1492), (-81, 14, 250), (-1492, 250, 4852))

# The largest coordinate of each field width, and the least one past it.
# Listed to norm 2, each skewed lattice reaches +-c, its bound itself.
BOUNDARIES = ((127, 8), (128, 16), (32767, 16), (32768, 32),
              (2**63 - 1, 64), (2**63, 128))


def _width_corpus():
    """Lattices whose listings reach their coordinate bound, fill each field width or pass 2^64.

    Z^3 conjugated by 2^70 + 3 reaches coordinates past 2^128, and A3
    scaled by 2^129 centres past 2^128 in its two lower levels.
    """
    skewed = [_skewed(sign * (c - 1)) for c, _ in BOUNDARIES for sign in (1, -1)]
    return skewed + [GramLattice.from_rows(SKEWED_A3), _conjugated_z3(2**70 + 3),
                     scaled(named("A3").lattice, 2**129)]


def _bounds(L, bound):
    """The proven bounds on the coordinates and on the centres of the listing to ``bound``."""
    reduced = _context(L).reduced
    weight, w = _weights(reduced.minors)
    bound = Fraction(bound)
    top = weight * reduced.scale * bound.numerator // bound.denominator
    return enumeration._bounds(reduced, w, top)


def _coordinate_bound(L, bound):
    return _bounds(L, bound)[0]


def _reach(L, bound):
    """The largest |coordinate| listed up to ``bound``."""
    return max(abs(x) for v in vectors_up_to(L, bound).vectors for x in v)


def test_the_field_width_is_the_least_that_holds_the_proven_bound():
    for c, width in BOUNDARIES:
        assert enumeration._field_width(c) == width
        for sign in (1, -1):
            L = _skewed(sign * (c - 1))
            assert _coordinate_bound(L, 2) == c, L.label
            assert (1, sign * c) in vectors_up_to(L, 2).vectors
    assert _coordinate_bound(GramLattice.from_rows(SKEWED_A3), 4) == 222 == _reach(
        GramLattice.from_rows(SKEWED_A3), 4)
    wide = _conjugated_z3(2**70 + 3)
    assert enumeration._field_width(_coordinate_bound(wide, 2)) == 192
    assert _reach(wide, 2) > 2**128
    # Its reduced basis is orthogonal, so its centres are 0; A3 scaled by
    # 2^129 has centres past 2^128, whose fields are wider than 64 bits.
    assert _bounds(wide, 2)[1] == 0
    dilated = scaled(named("A3").lattice, 2**129)
    centres = []
    reference_enumerate(_context(dilated).reduced, Fraction(2**130), enumeration._Counter(None),
                        centres)
    assert 2**128 < max(centres) <= _bounds(dilated, 2**130)[1]
    assert len(vectors_up_to(dilated, 2**130)) == 6


class _Charges(enumeration._Counter):
    """A counter that keeps its running total after each charge."""

    def __init__(self):
        super().__init__(None)
        self.totals = []

    def spend(self, amount=1):
        super().spend(amount)
        self.totals.append(self.nodes)


def _intervals(monkeypatch, call):
    """``call()`` and the intervals the kernel computed in it, one integer square root each."""
    calls = [0]
    real = enumeration.isqrt

    def counting(x):
        calls[0] += 1
        return real(x)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "isqrt", counting)
        result = call()
    return result, calls[0]


def _replays_stopped_in(err):
    """The levels of the subtrees, among those the walk raising ``err``
    ran inside, whose state the kernel had recorded."""
    levels = set()
    tb = err.tb
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_code.co_name == "visit" and frame.f_locals.get("entry") is not None:
            levels.add(frame.f_locals["level"])
        tb = tb.tb_next
    return levels


def test_the_kernel_matches_the_reference_kernel(node_tally, monkeypatch):
    # The kernel prunes each child in its parent, carries the centres
    # down, packs each partial vector and the centres into one int each,
    # buckets its leaves by norm and replays each subtree of its lowest
    # levels that it has walked before; the kernel it replaced walks the
    # same tree on coordinate tuples.  Both must list the same pairs for
    # the same nodes, and stop at the same node one short of the total.
    # The listing counts each norm as v (scale G) v^T, the reference
    # over ``weight * scale``, so its numerators are divided by
    # ``weight`` first.  The largest of these listings is liftc12 at 3,
    # 9,472 vectors; the lattices of ``_width_corpus`` fill each field
    # width and pass 2^64.
    #
    # A full walk computes one interval per node above level 0, which
    # are the reference's centres, one for the top level and one per
    # level in ``_bounds``; a replayed subtree computes none.
    #
    # The kernel counts its nodes itself and charges them at once, where
    # the reference charges each child range as it reaches it.  So on
    # every listing of at most 2,000 nodes, under every budget short of
    # the total, from a counter that has already spent half of it, the
    # kernel must stop where the reference does: at the first of the
    # reference's running totals past what is left, having charged up to
    # it.  The reference's stops are read off its running totals, as its
    # walk does not depend on the budget until it stops.  Some of these
    # listings replay subtrees (the ball of centred_cubic(9), 805 nodes,
    # replays the subtrees below levels 3 and 6), and some budgets run
    # out inside a subtree of either kind that the kernel has recorded,
    # which it then walks instead of replaying.
    replayed, stopped_in_replay = 0, set()
    for L in _kernel_corpus() + _width_corpus():
        context = _context(L)
        reduced, rho = context.reduced, context.radius
        for bound in (rho, 3 * rho / 2, 2 * rho):
            charges = _Charges()
            centres = []
            weight = _weights(reduced.minors)[0]
            reference = reference_enumerate(reduced, bound, charges, centres)
            assert all(x % weight == 0 for x, _ in reference), (L.label, bound)
            expected = sorted((x // weight, v) for x, v in reference)
            nodes = charges.nodes
            fresh = GramLattice(L.n, L.gram, L.label)
            pairs = enumeration._listing(fresh, bound, enumeration._Counter(None))
            assert list(pairs) == expected, (L.label, bound)
            a = L._form.gram
            assert all(x == _dot(v, _times(v, a)) for x, v in pairs), (L.label, bound)
            # the proven bounds hold every listed coordinate and every
            # centre the walk reaches, partial sums included
            reach = max((abs(x) for _, v in pairs for x in v), default=0)
            coordinate_bound, centre_bound = _bounds(L, bound)
            assert reach <= coordinate_bound, (L.label, bound)
            assert max(centres, default=0) <= centre_bound, (L.label, bound)
            # one int object per distinct norm
            assert len({id(x) for x, _ in pairs}) == len({x for x, _ in pairs})
            # a walk that completes charges exactly its total
            node_tally[0] = 0
            _, intervals = _intervals(monkeypatch, lambda: enumeration._enumerate(
                reduced, bound, enumeration._Counter(None)))
            assert node_tally[0] == nodes, (L.label, bound)
            walked = 1 + L.n + len(centres)
            assert intervals <= walked, (L.label, bound)
            assert (_stops_at(enumeration._enumerate, reduced, bound, nodes - 1)
                    == _stops_at(reference_enumerate, reduced, bound, nodes - 1)
                    == (nodes, nodes - 1)), (L.label, bound)
            if nodes > 2000:
                continue
            replayed += intervals < walked
            for budget in range(nodes):
                counter = enumeration._Counter(budget)
                counter.nodes = spent = budget // 2
                with pytest.raises(ResourceExceeded) as err:
                    enumeration._enumerate(reduced, bound, counter)
                crossing = charges.totals[bisect.bisect_right(charges.totals, budget - spent)]
                assert (err.value.nodes, err.value.budget, counter.nodes) == (
                    budget + 1, budget, spent + crossing), (L.label, bound, budget)
                stopped_in_replay |= _replays_stopped_in(err)
    assert replayed and stopped_in_replay == {2, 5}


def test_replays_cut_the_intervals_of_symmetric_listings(monkeypatch, node_tally):
    # The kernel walks each distinct subtree below levels 3 and 6 once
    # per listing and replays it at every other visit, computing no
    # interval there.  A full walk, ``_REPLAYED = ()``, computes 20,919
    # intervals on the liftc12 listing and 477 on the ball of
    # centred_cubic(9); replaying below level 3 alone computes 10,705
    # and 203.  Every setting spends the same nodes on the same listing.
    # E8 to norm 6 replays subtrees below level 3 inside recorded ones
    # below level 6, beyond the bounds of the kernel reference gate.
    lift12, cubic = fixture_inventory()["liftc12"], centred_cubic(9)
    cases = (
        (lift12, 3, 6227, 30379, 9472, 10705, 20919),
        (cubic, _context(cubic).radius, 134, 805, 337, 203, 477),
        (fixture_inventory()["liftc10"], 3, 539, 4735, 1764, 1173, 2981),
        (named("E8").lattice, 6, 2081, 9185, 4560, 2337, 4633),
    )
    both = enumeration._REPLAYED
    for L, bound, intervals, nodes, count, lowest, walked in cases:
        listings = set()
        for replayed, expected in ((both, intervals), ((2,), lowest), ((), walked)):
            monkeypatch.setattr(enumeration, "_REPLAYED", replayed)
            fresh = GramLattice(L.n, L.gram, L.label)
            _context(fresh)
            node_tally[0] = 0
            listing, computed = _intervals(monkeypatch, lambda: vectors_up_to(fresh, bound))
            assert (computed, node_tally[0], len(listing)) == (expected, nodes, count), L.label
            listings.add(listing.vectors)
        assert len(listings) == 1, L.label


def test_the_e8_shells_hold_the_theta_series_counts(monkeypatch):
    # E8's theta series is the Eisenstein series 1 + 240 sum sigma_3(m)
    # q^m, so its shell of norm 2m holds 120 sigma_3(m) +- pairs: 120,
    # 1,080, 3,360 and 8,760 up to norm 8.  The norms are recomputed
    # from the Gram matrix and the divisor sums by trial division.  This
    # listing replays subtrees below levels 3 and 6, and must equal the
    # listing of the full walk.
    L = named("E8").lattice
    gram = tuple(tuple(map(int, row)) for row in L.gram)
    assert gram == L.gram
    listing = vectors_up_to(L, 8)
    shells = {}
    for v in listing:
        x = sum(a * g * b for a, row in zip(v, gram) for g, b in zip(row, v))
        shells[x] = shells.get(x, 0) + 1
    assert shells == {2 * m: 120 * divisor_sigma(3, m) for m in range(1, 5)}
    monkeypatch.setattr(enumeration, "_REPLAYED", ())
    assert vectors_up_to(GramLattice(L.n, L.gram, L.label), 8) == listing


def test_the_kernel_holds_little_more_than_its_listing():
    # The walk's output lists, the leaves and their keys, are dropped
    # once the leaves are bucketed, before they are decoded, so the
    # kernel's peak is what the listing it returns holds.  Output lists
    # kept through the decoding would keep the raw leaves too and read
    # 1.51 times the listing.
    reduced = _context(fixture_inventory()["liftc12"]).reduced
    tracemalloc.start()
    try:
        listing = enumeration._enumerate(reduced, Fraction(3), enumeration._Counter(None))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, listing.values())) == 9472
    assert peak <= 1.05 * held, (peak, held)


def test_listing_node_totals_are_pinned(node_tally):
    lift12 = fixture_inventory()["liftc12"]
    cases = (
        (lift12, 3, 30379, 9472),
        (centred_cubic(9), 4, 5494, 1690),
        (GramLattice.from_rows([[Fraction(3, 2)]]), 7, 3, 2),
        # bounds below the minimum
        (named("E8").lattice, Fraction(3, 2), 107, 0),
        (lift12, Fraction(1, 2), 26, 0),
    )
    for L, bound, nodes, count in cases:
        node_tally[0] = 0
        listing = vectors_up_to(GramLattice(L.n, L.gram, L.label), bound)
        assert (node_tally[0], len(listing)) == (nodes, count), (L.label, bound)
    assert vectors_up_to(GramLattice.from_rows([[Fraction(3, 2)]]), 7).vectors == ((1,), (2,))


def test_calls_leave_no_reference_cycles():
    # A search or listing frees what it built when it returns, rather
    # than at the next cyclic collection: with the collector off, each
    # call leaves nothing for it to find.  The frame search runs under a
    # small budget, so its stopped runs are covered too, and a binary
    # code classification, whose walk is recursive, runs once.
    calls = (
        qb,
        lambda L: maximal_index(L, 20000),
        lambda L: vectors_up_to(L, 3 * _context(L).radius / 2),
    )
    lattices = list(fixture_inventory().values())
    for call in calls:
        call(GramLattice.from_rows(lattices[0].gram))
    gc.collect()
    gc.disable()
    try:
        for L in lattices:
            for call in calls:
                call(GramLattice(L.n, L.gram, L.label))
                assert gc.collect() == 0, L.label
        classify_binary(10, 3, 4)
        assert gc.collect() == 0, "classify_binary"
    finally:
        gc.enable()


def test_the_annihilator_frame_matches_the_pivot_row_reference():
    # The frame takes each ball vector that some row of the span's
    # annihilator, over Q on coordinates, does not annihilate; the
    # reference tests the same vectors by pivot rows over the Gram
    # matrix.  Both must pick the same frame, also where the short
    # vectors are dependent (A9^2, D6+, A5^3), and on the shells mix:
    # the rank 8 corpus taken in turn, 40 perturbed draws at seeds 1 and 7.
    lattices = list(fixture_inventory().values())
    lattices += [scaled(L, Fraction(3, 7)) for L in lattices]
    for seed in (1, 2, 3):
        rand = random.Random(seed)
        for n in range(2, 11):
            corpus = search_corpus(n)
            lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(len(corpus))]
        lattices += [random_gram(rand, n) for n in range(2, 7)]
    corpus = search_corpus(8)
    for seed in (1, 7):
        rand = random.Random(seed)
        lattices += [perturbed(rand, corpus[t % len(corpus)]) for t in range(40)]
    lattices += [named(name).lattice for name in ("A9^2", "D6+", "A5^3")]
    for L in lattices:
        expected = reference_frame(GramLattice(L.n, L.gram, L.label))
        assert successive_minima(L) == expected, L.label


def test_the_searches_read_only_the_pivots_of_the_reduction():
    # qb, is_well_rounded and maximal_index read the reduction's minors,
    # coefficients and diagonal; the reduction holds no reduced Gram
    # matrix.  Those pivots are the ones of U G U^T, and the reduction
    # the searches cache is the one lll makes afresh.
    lattices = list(fixture_inventory().values())
    for L in lattices + [scaled(L, Fraction(3, 7)) for L in lattices]:
        qb(L)
        is_well_rounded(L)
        maximal_index(L)
        reduced = _context(L).reduced
        assert not hasattr(reduced, "gram"), L.label
        assert (reduced.scale, reduced.minors, reduced.lam, reduced.diagonal) == kept_pivots(
            reduced_gram(L)), L.label
        assert reduced == lll(L), L.label
