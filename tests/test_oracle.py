"""Validity oracle: worked queries, evaluation cross-checks, the
implication-checking meta-properties."""

import itertools
import random
import tracemalloc

import pytest

from gen import bool_expr, borrow_chain, ctx_with_vars
from lrcheck import oracle as oracle_module
from lrcheck.logic import conj
from lrcheck.oracle import (
    Oracle,
    OracleError,
    Query,
    eval_closed,
)
from lrcheck.parser import parse_program
from lrcheck.parser import parse_refexpr as R
from lrcheck.syntax import Eq, IntConst, Not, Sort, Var
from lrcheck.typeck import check_program


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


def test_decr_query_valid(oracle):
    q = Query((("a", Sort.INT),), (R("a >= 0"), R("a > 0")), R("a - 1 >= 0"))
    assert oracle.valid(q).is_valid


def test_guardless_query_invalid_with_model(oracle):
    q = Query((("a", Sort.INT),), (R("a >= 0"),), R("a - 1 >= 0"))
    verdict = oracle.valid(q)
    assert verdict.is_invalid
    assert verdict.model == {"a": 0}
    assert eval_closed(R("a - 1 >= 0"), verdict.model) is False


def _int_query(names, hyps, goal):
    return Query(tuple((n, Sort.INT) for n in names), tuple(map(R, hyps)), R(goal))


def _falsified(query, model):
    return all(eval_closed(h, model) for h in query.hyps) and not eval_closed(
        query.goal, model
    )


@pytest.mark.parametrize(
    "names, hyps, goal",
    [
        ("ab", ["a + b = 1000", "a > 200", "b > 200"], "a > 300"),
        ("xyz", ["x = y + z", "y > 100", "z > 100"], "x > 250"),
        ("ab", ["a >= 0"], "a - 1 >= 0"),
        # the first hypothesis cube has no integer point; the second has one
        ("xy", ["x + x = 1 || y > 5"], "y <= 5"),
    ],
)
def test_counter_model_is_the_point_that_decided_the_goal(
    monkeypatch, names, hyps, goal
):
    """A product-free query's model needs no search, also when it is far
    from 0 and from the query's constants."""

    def no_search(*args, **kwargs):
        raise AssertionError("counter-model search on a product-free query")

    monkeypatch.setattr(oracle_module, "_search_counter_model", no_search)
    query = _int_query(names, hyps, goal)
    verdict = Oracle().valid(query)
    assert verdict.is_invalid and _falsified(query, verdict.model), verdict


def test_opaque_products_enumerate_their_factors(oracle):
    query = _int_query("xy", ["x * y = 6", "x > 1"], "y > 3")
    verdict = oracle.valid(query)
    assert verdict.is_invalid and _falsified(query, verdict.model), verdict
    # a rational but no integer solution: no point and no assignment
    verdict = oracle.valid(_int_query("a", ["a * a = 2"], "a >= 0"))
    assert verdict.is_unknown
    assert verdict.reason == "satisfiable relaxation, no integer model found"


def test_product_enumeration_builds_no_assignment_list():
    """The point (a = -1, a * a = 2) does not falsify the query, so the
    enumeration runs over its 6 candidates for each of 7 ints, and finds
    nothing.  It must take its assignments one at a time: the 6**7 tuples
    built in one go would take some 30 MB, and at 12 ints all memory."""
    names = ["a", *(f"b{i}" for i in range(6))]
    query = _int_query(names, ["a * a = 2"], "a >= 0")
    tracemalloc.start()
    try:
        verdict = Oracle().valid(query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.is_unknown, verdict
    assert peak < 2_000_000, peak


def test_every_valid_call_counts_one_query_and_models_use_its_binders():
    oracle = Oracle()
    query = Query((("a", Sort.INT), ("b", Sort.INT)), (R("a < b"),), R("a + 1 <= b"))
    assert oracle.valid(query).is_valid
    assert oracle.valid(query).is_valid
    assert oracle.queries == 2
    # a counter-model is over the binders of the query that asked for it
    invalid = Query((("a", Sort.INT),), (R("a >= 0"),), R("a - 1 >= 0"))
    assert oracle.valid(invalid).model == {"a": 0}
    verdict = oracle.valid(Query((("b", Sort.INT),), (R("b >= 0"),), R("b - 1 >= 0")))
    assert oracle.queries == 4
    assert verdict.is_invalid and verdict.model == {"b": 0}


def test_fourier_motzkin_row_limit_is_named_in_unknown(monkeypatch):
    """The limit bounds the rows the eliminations create."""
    monkeypatch.setattr(oracle_module, "MAX_FM_ROWS", 2)
    reason = "Fourier-Motzkin over 2 rows"
    binders = (("x", Sort.INT),)
    sorts = dict(binders)
    goal = R("3 * x <= 17")
    # one lower and two upper bounds on x create two rows, within the
    # limit, until the goal's negation adds a second lower bound; two
    # lower and two upper bounds go over it on their own
    for hyps in (
        (R("x >= 0"), R("x <= 5"), R("2 * x <= 11")),
        (R("x >= 0"), R("2 * x >= 1"), R("x <= 5"), R("2 * x <= 11")),
    ):
        verdict = Oracle().valid(Query(binders, hyps, goal))
        assert verdict.is_unknown and verdict.reason == reason
        prods = {}
        verdicts = Oracle().valid_rows(
            [oracle_module.dnf(h, True, sorts, prods) for h in hyps],
            [goal],
            lambda goal: oracle_module.dnf(goal, False, sorts, prods),
        )
        assert [(v.status, v.reason) for v in verdicts] == [("unknown", reason)]
    # rows in one variable each are eliminated without creating any
    hyps = tuple(R(f"{n} >= 0") for n in "abcde")
    chain = Query(tuple((n, Sort.INT) for n in "abcde"), hyps, R("e >= 0"))
    assert Oracle().valid(chain).is_valid


def _fm_rows(rng, names, point):
    """A small system of rows `coeffs . x + const <= 0`, each of which holds
    at `point` when one is given.  It includes a cycle u <= m <= v <= u, so
    u and v are opposite rows only once m is eliminated."""
    shapes = []
    for _ in range(rng.randint(0, 4)):
        picked = rng.sample(names, rng.randint(1, 3))
        shapes.append({x: rng.choice([-3, -2, -1, 1, 2, 3]) for x in picked})
    u, m, v = rng.sample(names, 3)
    shapes += [{u: 1, m: -1}, {m: 1, v: -1}, {v: 1, u: -1}]
    rows = []
    for coeffs in shapes:
        if point is None:
            const = rng.randint(-2, 2)
        else:
            at_point = sum(c * point[x] for x, c in coeffs.items())
            const = -at_point - rng.choice([0, 0, 1])
        rows.append((coeffs, const))
    rng.shuffle(rows)
    return rows


def test_fourier_motzkin_differential_against_brute_force():
    rng = random.Random(29)
    names = ["x0", "x1", "x2", "x3"]
    box = range(-3, 4)
    unsat = around_point = found_points = 0
    for _ in range(300):
        point = None
        if rng.random() < 0.5:
            point = {x: rng.randint(-5, 5) for x in names}
        rows = _fm_rows(rng, names, point)
        points = []
        verdict = oracle_module._fm_unsat(rows, points)
        if points:
            # back-substitution's point is an integer solution; a variable
            # it does not bind reads as 0
            (found,) = points
            assert not verdict
            assert all(
                sum(c * found.get(x, 0) for x, c in coeffs.items()) + const <= 0
                for coeffs, const in rows
            ), (rows, found)
        if point is not None:
            assert not verdict, (rows, point)
            around_point += 1
            found_points += len(points)
        elif verdict:
            unsat += 1
            for values in itertools.product(box, repeat=len(names)):
                env = dict(zip(names, values))
                assert not all(
                    sum(c * env[x] for x, c in coeffs.items()) + const <= 0
                    for coeffs, const in rows
                ), (rows, env)
    # the cycles' constants make a good share of the free systems unsat
    assert unsat >= 30
    # each system built around a point has an integer solution, and
    # rounding to integers rarely leaves an interval of one empty
    assert found_points >= 0.9 * around_point, (found_points, around_point)


def _fewest_pairs_order(rows):
    """The order in which Fourier-Motzkin eliminates the variables of a
    satisfiable system when each round recounts every variable's bounds
    over every row and takes the fewest upper*lower pairs, the first by
    name among ties."""
    best = oracle_module._keep_tightest({}, rows)
    order = []
    while True:
        best.pop(frozenset(), None)
        if not best:
            return order
        counts = {}
        for coeffs, _ in best.values():
            for x, c in coeffs.items():
                up, lo = counts.get(x, (0, 0))
                counts[x] = (up + (c > 0), lo + (c < 0))
        var = min(sorted(counts), key=lambda x: counts[x][0] * counts[x][1])
        order.append(var)
        bounding = [best.pop(k) for k, (co, _) in list(best.items()) if var in co]
        combined = []
        for ucoef, uconst in [r for r in bounding if r[0][var] > 0]:
            for lcoef, lconst in [r for r in bounding if r[0][var] < 0]:
                cu, cl = ucoef[var], -lcoef[var]
                coeffs = {
                    x: cl * ucoef.get(x, 0) + cu * lcoef.get(x, 0)
                    for x in {**ucoef, **lcoef}
                }
                coeffs = {x: c for x, c in coeffs.items() if c}
                combined.append((coeffs, cl * uconst + cu * lconst))
        oracle_module._keep_tightest(best, combined)


def test_fourier_motzkin_eliminates_the_variable_with_fewest_pairs(monkeypatch):
    # back-substitution walks the variables in reverse order of elimination
    seen = []
    back_substitute = oracle_module._back_substitute

    def recorded(eliminated):
        seen.append([var for var, _ in eliminated])
        return back_substitute(eliminated)

    monkeypatch.setattr(oracle_module, "_back_substitute", recorded)
    rng = random.Random(31)
    names = [f"x{i}" for i in range(6)]
    for _ in range(200):
        # two systems that hold at one point: satisfiable, with two cycles
        point = {x: rng.randint(-5, 5) for x in names}
        rows = _fm_rows(rng, names, point) + _fm_rows(rng, names, point)
        seen.clear()
        assert not oracle_module._fm_unsat(rows, [])
        assert seen == [_fewest_pairs_order(rows)], rows


def test_fourier_motzkin_appends_no_point_when_no_integer_fits():
    # 2x = 1 has the rational solution 1/2 and no integer one
    rows = [({"x": 2}, -1), ({"x": -2}, 1)]
    points = []
    assert not oracle_module._fm_unsat(rows, points)
    assert points == []


def test_back_substitution_clamps_each_target_into_its_interval():
    # y >= x is eliminated first, then 1 <= x <= 3; back-substitution
    # assigns x first, and then y against its value
    eliminated = [
        ("y", [({"y": -1, "x": 1}, 0)]),
        ("x", [({"x": 1}, -3), ({"x": -1}, 1)]),
    ]
    back_substitute = oracle_module._back_substitute
    assert back_substitute(eliminated, {"x": 5, "y": 2}) == {"x": 3, "y": 3}
    assert back_substitute(eliminated, {"x": -4, "y": -1}) == {"x": 1, "y": 1}
    assert back_substitute(eliminated, {"x": 2, "y": 7}) == {"x": 2, "y": 7}
    # with no targets, each variable is the integer nearest 0
    assert back_substitute(eliminated) == {"x": 1, "y": 1}


def test_back_substitution_gives_no_point_for_an_interval_with_no_integer():
    # 2x = y with 0 <= y <= 3: y = 1 leaves 1/2 <= x <= 1/2
    eliminated = [
        ("x", [({"x": 2, "y": -1}, 0), ({"x": -2, "y": 1}, 0)]),
        ("y", [({"y": 1}, -3), ({"y": -1}, 0)]),
    ]
    back_substitute = oracle_module._back_substitute
    assert back_substitute(eliminated, {"x": 2, "y": 1}) is None
    assert back_substitute(eliminated, {"x": 1, "y": 2}) == {"y": 2, "x": 1}
    # Fourier-Motzkin eliminates x first (one pair against four), so the
    # spread targets are x = 1, y = 2 and x = 2, y = 1: the second variant
    # meets the empty interval and is skipped
    rows = [r for _, bounding in eliminated for r in bounding]
    points = []
    assert not oracle_module._fm_unsat(rows, points, spread=True)
    assert points == [{"y": 0, "x": 0}, {"y": 2, "x": 1}]


def test_spread_points_leave_the_nearest_zero_point_first_and_unchanged():
    rng = random.Random(37)
    names = ["x0", "x1", "x2", "x3"]
    spread = 0
    for _ in range(200):
        point = {x: rng.randint(-5, 5) for x in names}
        rows = _fm_rows(rng, names, point)
        plain, more = [], []
        assert not oracle_module._fm_unsat(rows, plain)
        assert not oracle_module._fm_unsat(rows, more, spread=True)
        assert more[: len(plain)] == plain
        # each point satisfies the rows, and no point is kept twice
        for found in more:
            assert oracle_module._holds(found, rows), (rows, found)
        assert all(more[i] not in more[:i] for i in range(len(more)))
        spread += len(more) - len(plain)
    assert spread >= 150, spread


def test_fourier_motzkin_point_of_a_3000_row_chain():
    n = 3000
    chain = [({f"x{i}": 1, f"x{i + 1}": -1}, 0) for i in range(n)]
    # x0 >= 1 and x3000 <= 0 contradict x0 <= x1 <= ... <= x3000
    assert oracle_module._fm_unsat(chain + [({"x0": -1}, 1), ({f"x{n}": 1}, 0)], [])
    # without them it is satisfiable, and with x0 >= 1 alone every
    # variable of the point must be positive
    for rows in (chain, chain + [({"x0": -1}, 1)]):
        points = []
        assert not oracle_module._fm_unsat(rows, points)
        (found,) = points
        assert all(
            sum(c * found.get(x, 0) for x, c in coeffs.items()) + const <= 0
            for coeffs, const in rows
        )


def test_a_3000_atom_conjunction_is_refuted_with_a_model(oracle):
    """The model is checked by evaluating the query at it, which walks the
    hypothesis chain in a loop: it used to raise RecursionError."""
    hyp = conj(R(f"x >= {-k}") for k in range(3000))
    verdict = oracle.valid(Query((("x", Sort.INT),), (hyp,), R("x >= 5")))
    assert verdict.is_invalid
    assert verdict.model == {"x": 0}
    assert eval_closed(hyp, verdict.model) is True
    assert eval_closed(R("x >= 5"), verdict.model) is False


def test_borrow_chain_settles_most_goals_at_known_points(monkeypatch):
    """Six successive `&mut` borrows of one cell: the goals share
    satisfiable hypothesis cubes, so most are settled at a point that an
    earlier Fourier-Motzkin call found, with no call of their own."""
    source = borrow_chain(6)
    calls = []
    fm_unsat = oracle_module._fm_unsat

    def counted(*args):
        calls.append(len(args[0]))
        return fm_unsat(*args)

    monkeypatch.setattr(oracle_module, "_fm_unsat", counted)
    oracle = Oracle()
    assert check_program(parse_program(source), oracle=oracle).ok
    # one query per distinct literal of a sweep's head kvar: `a <= b` and
    # `b >= a`, or `a = b + 1` and `b = a - 1`, are asked once; a kvar's
    # first sweep asks only the literals that hold at its sample points
    assert oracle.queries == 42
    # each call reduces a hypothesis cube: every goal is settled at a point
    # of one, with no call of its own
    assert len(calls) <= 12


def test_closed_arithmetic(oracle):
    assert oracle.valid(Query((), (), R("1 + 2 + 3 = 6"))).is_valid
    assert eval_closed(R("1 + 2 + 3 = 6"), {}) is True
    assert eval_closed(R("a - 1 >= 0"), {"a": 0}) is False


def test_kapp_rejected(oracle):
    from lrcheck.syntax import KApp, KVarDecl

    k = KVarDecl("k", (("v", Sort.INT),))
    with pytest.raises(OracleError):
        oracle.valid(Query((("v", Sort.INT),), (), KApp(k, (Var("v"),))))


def _sample_queries(count, seed=11):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ctx, ints, bools, _ = ctx_with_vars(rng, n_int=2, n_bool=1)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        hyps = tuple(
            bool_expr(rng, ints, bools, rng.randrange(0, 2))
            for _ in range(rng.randrange(0, 3))
        )
        goal = bool_expr(rng, ints, bools, rng.randrange(1, 3))
        out.append(Query(binders, hyps, goal))
    return out


def test_eval_agrees_with_validity_on_closed_instances(oracle):
    """Closed instantiations of decided queries must agree with evaluation."""
    rng = random.Random(13)
    checked = 0
    for query in _sample_queries(500):
        for _ in range(4):
            env = {}
            for name, sort in query.binders:
                env[name] = (
                    rng.randrange(-4, 5) if sort != Sort.BOOL else rng.random() < 0.5
                )
            if not all(eval_closed(h, env) for h in query.hyps):
                continue
            verdict = oracle.valid(query)
            if verdict.is_valid:
                assert eval_closed(query.goal, env) is True
                checked += 1
    assert checked >= 100


# -- the seven implication-checking meta-properties -------------------------


def test_meta_identity(oracle):
    for query in _sample_queries(200, seed=21):
        e = query.goal
        assert oracle.valid(Query(query.binders, query.hyps + (e,), e)).is_valid


def test_meta_reflexivity(oracle):
    for query in _sample_queries(200, seed=22):
        from gen import int_expr

        rng = random.Random(hash(query.binders) & 0xFFFF)
        ints = [n for n, s in query.binders if s == Sort.INT]
        e = int_expr(rng, ints, 2)
        assert oracle.valid(Query(query.binders, query.hyps, Eq(e, e))).is_valid


def test_meta_weakening(oracle):
    count = 0
    for query in _sample_queries(300, seed=23):
        verdict = oracle.valid(query)
        if not verdict.is_valid:
            continue
        extra = R("w0 < 3")
        widened = Query(
            query.binders + (("w0", Sort.INT),), query.hyps + (extra,), query.goal
        )
        assert oracle.valid(widened).is_valid
        count += 1
    assert count >= 50


def test_meta_cut(oracle):
    count = 0
    for query in _sample_queries(400, seed=24):
        if len(query.hyps) < 2:
            continue
        e1 = query.hyps[-1]
        d1 = query.hyps[:-1]
        first = oracle.valid(Query(query.binders, d1, e1))
        second = oracle.valid(Query(query.binders, d1 + (e1,), query.goal))
        if first.is_valid and second.is_valid:
            cut = oracle.valid(Query(query.binders, d1, query.goal))
            assert cut.is_valid
            count += 1
    assert count >= 20


def test_meta_transitive_equality(oracle):
    rng = random.Random(25)
    from gen import int_expr

    count = 0
    for _ in range(200):
        ctx, ints, bools, _ = ctx_with_vars(rng, n_int=3)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        e1, e2, e3 = (int_expr(rng, ints, 1) for _ in range(3))
        hyps = (Eq(e1, e2), Eq(e2, e3))
        assert oracle.valid(Query(binders, hyps, Eq(e1, e3))).is_valid
        count += 1
    assert count == 200


def test_meta_transitivity_of_implication(oracle):
    rng = random.Random(26)

    def implies(a, b):
        from lrcheck.syntax import BinBool

        return BinBool("or", Not(a), b)

    count = 0
    for _ in range(300):
        ctx, ints, bools, _ = ctx_with_vars(rng, n_int=2, n_bool=1)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        e1 = bool_expr(rng, ints, bools, 1)
        e2 = bool_expr(rng, ints, bools, 1)
        e3 = bool_expr(rng, ints, bools, 1)
        first = oracle.valid(Query(binders, (), implies(e1, e2)))
        second = oracle.valid(Query(binders, (), implies(e2, e3)))
        if first.is_valid and second.is_valid:
            assert oracle.valid(Query(binders, (), implies(e1, e3))).is_valid
            count += 1
    assert count >= 20


def test_meta_substitution(oracle):
    # sortcheck(D1, ea)=int and Valid(D1, a:int, D2 |- e)
    #   => Valid(D1, D2[ea/a] |- e[ea/a])
    rng = random.Random(27)
    from gen import int_expr

    from lrcheck.logic import subst

    count = 0
    for _ in range(300):
        ctx, ints, _, _ = ctx_with_vars(rng, n_int=2)
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        ea = int_expr(rng, ints, 1)
        hyp = bool_expr(rng, ints + ["a"], None, 1)
        goal = bool_expr(rng, ints + ["a"], None, 2)
        full = Query(binders + (("a", Sort.INT),), (hyp,), goal)
        if not oracle.valid(full).is_valid:
            continue
        inst = Query(
            binders, (subst(hyp, "a", ea),), subst(goal, "a", ea)
        )
        assert oracle.valid(inst).is_valid
        count += 1
    assert count >= 30


def test_differential_against_exhaustive_ground_truth():
    """On small-domain queries, the verdict must agree with brute-force
    enumeration: Valid only when no counter-assignment exists in a widened
    box, Invalid only when one does."""
    rng = random.Random(41)
    oracle = Oracle()
    disagreements = []
    checked_valid = checked_invalid = 0
    for i in range(400):
        ctx, ints, bools, _ = ctx_with_vars(
            rng, n_int=rng.randrange(1, 3), n_bool=rng.randrange(0, 2)
        )
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        hyps = tuple(
            bool_expr(rng, ints, bools, 1) for _ in range(rng.randrange(0, 3))
        )
        goal = bool_expr(rng, ints, bools, 2)
        query = Query(binders, hyps, goal)
        verdict = oracle.valid(query)
        if verdict.is_unknown:
            continue
        # ground truth over a box wide enough for the constants in play
        box = range(-7, 8)
        names = [n for n, _ in binders]
        domains = [
            box if s != Sort.BOOL else (False, True) for _, s in binders
        ]
        ground_counterexample = None
        for values in itertools.product(*domains):
            env = dict(zip(names, values))
            if all(eval_closed(h, env) for h in hyps) and not eval_closed(
                goal, env
            ):
                ground_counterexample = env
                break
        if verdict.is_valid:
            checked_valid += 1
            if ground_counterexample is not None:
                disagreements.append((query, "false valid", ground_counterexample))
        else:
            checked_invalid += 1
            if verdict.model is not None:
                pass  # already evaluation-verified by construction
            elif ground_counterexample is None:
                # decided invalid purely by rational reasoning; must not
                # contradict the box search AND the wider candidate search
                disagreements.append((query, "unconfirmed invalid", None))
    assert not disagreements, disagreements[:3]
    assert checked_valid >= 80 and checked_invalid >= 80


def test_batched_differential_against_exhaustive_ground_truth():
    """Several goals under shared equality hypotheses, with the same
    Valid/Invalid rules as the one-goal ground-truth test above.  The goals
    include ones settled by the hypotheses' substitutions alone and ones
    whose negation forms an equality with a hypothesis row."""
    from gen import int_expr

    from lrcheck.syntax import BinArith, Cmp

    rng = random.Random(47)
    oracle = Oracle()
    disagreements = []
    checked_valid = checked_invalid = 0
    for _ in range(40):
        ctx, ints, _, _ = ctx_with_vars(rng, n_int=rng.randrange(3, 5))
        binders = tuple((b.name, b.sort) for b in ctx.binds())
        x, y, z = rng.sample(ints, 3)
        c = rng.randrange(-3, 4)

        def y_plus(k):
            return BinArith("+", Var(y), IntConst(k))

        hyps = (
            Eq(Var(x), y_plus(c)),
            Eq(int_expr(rng, ints, 1), int_expr(rng, ints, 1)),
        )
        if rng.random() < 0.5:
            hyps += (Eq(Var(z), int_expr(rng, [y], 1)),)
        hyps += (Cmp("<=", Var(y), Var(z)),)
        goals = [
            # settled by substituting x := y + c alone
            Eq(BinArith("-", Var(x), Var(y)), IntConst(c)),
            Cmp(">=", Var(x), y_plus(c + 1)),
            # the negation y >= z forms an equality with the row y <= z
            Cmp("<", Var(y), Var(z)),
            Cmp("<=", Var(y), Var(z)),
            Eq(Var(y), Var(z)),
        ] + [bool_expr(rng, ints, None, rng.randrange(1, 3)) for _ in range(3)]
        verdicts = oracle.valid_many(binders, hyps, goals)
        assert verdicts[0].is_valid and verdicts[3].is_valid
        # x is fixed by the first hypothesis; the others range over a box
        names = [n for n, _ in binders if n != x]
        refuted = [None] * len(goals)
        for values in itertools.product(range(-6, 7), repeat=len(names)):
            env = dict(zip(names, values))
            env[x] = env[y] + c
            if all(eval_closed(h, env) for h in hyps):
                for i, goal in enumerate(goals):
                    if refuted[i] is None and not eval_closed(goal, env):
                        refuted[i] = env
        for goal, verdict, counterexample in zip(goals, verdicts, refuted):
            query = Query(binders, hyps, goal)
            if verdict.is_invalid and counterexample is None:
                # outside the box or rational only: the model search decides
                verdict = oracle.valid(query)
            if verdict.is_valid:
                checked_valid += 1
                if counterexample is not None:
                    disagreements.append((query, "false valid", counterexample))
            elif verdict.is_invalid:
                checked_invalid += 1
                if verdict.model is None and counterexample is None:
                    disagreements.append((query, "unconfirmed invalid", None))
    assert not disagreements, disagreements[:3]
    assert checked_valid >= 80 and checked_invalid >= 80, (
        checked_valid,
        checked_invalid,
    )
