"""Property: plans compiled to columnar kernels agree with the oracle.

Random small programs over random databases must reach the fixpoint
the interpreted matcher reaches when the columnar executor evaluates
the rule bodies, and random ad-hoc queries over the materialised
result -- which run on the same columnar plans, streamed chunk by
chunk -- must return identical answer sets, and identical per-step
EXPLAIN actuals, through the production solver and ``interpreted=True``.
This pins the invariant that lowering a plan to kernels changes how it
runs, never the semantics -- also where a boxed step hands its column
to an int kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.explain import explain_conjunction
from repro.engine.planner import build_plan
from repro.engine.solve import execute_plan, solve
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from tests.property.strategies import databases

pytestmark = pytest.mark.property

#: Rule templates write only fresh methods (d1/d2/d3) or a fresh class
#: (c9), so derived facts never conflict with stored ones; d3's result
#: is constant, so the scalar-functionality invariant cannot trip.
RULE_POOL = (
    "X[d1 ->> {Y}] <- X[kids ->> {Y}].",
    "X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].",
    "X[d2 ->> {Y}] <- X[a ->> {Y}], Y : c1.",
    "X[d2 ->> {Y}] <- X[m1 -> Y].",
    "X[d3 -> 1] <- X[color -> red].",
    "X : c9 <- X[boss -> Y].",
)

#: Query templates; negation variables are always bound by the positive
#: part (or negation-local), so both modes accept every query.
QUERY_POOL = (
    "X[kids ->> {Y}]",
    "X : c1, X[color -> C]",
    "X[M ->> {V}]",
    "X[boss -> B], B[boss -> C]",
    "X[a ->> {Y}], not Y : c2",
    "X[d1 ->> {Y}], Y[d3 -> N]",
    # A boxed step -- isa enumeration, comparison, negation -- feeding
    # stored scalar and set steps (and ``self``), which intern the
    # boxed column in place.
    "X : c1, X[kids ->> {Y}], Y[color -> C]",
    "C : c1, X[boss -> C]",
    "X[m1 -> Y], X != Y, Y[kids ->> {Z}]",
    "X[kids ->> {Y}], not Y : c2, Y[boss -> B]",
    "X : c1, X.self[Y], Y[color -> C]",
)


def _facts(db):
    return (
        set(db.scalars.items()),
        {(key, frozenset(bucket)) for key, bucket in db.sets.items()},
        set(db.hierarchy.declared_edges()),
    )


def _answers(db, text, **kwargs):
    atoms = flatten_conjunction(parse_query(text))
    return {frozenset(b.items()) for b in solve(db, atoms, **kwargs)}


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=4,
                   unique=True),
    seminaive=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_fixpoints_identical_across_executors(db, rules, seminaive):
    program = parse_program("\n".join(rules))
    columnar = Engine(db, program, seminaive=seminaive)
    interpreted = Engine(db, program, seminaive=seminaive, interpreted=True)
    assert _facts(columnar.run()) == _facts(interpreted.run())
    assert (columnar.stats.derived_total
            == interpreted.stats.derived_total)


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=3,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
)
@settings(max_examples=80, deadline=None)
def test_query_answers_identical_across_solve_modes(db, rules, query):
    materialised = Engine(db, parse_program("\n".join(rules))).run()
    compiled = _answers(materialised, query)
    interpreted = _answers(materialised, query, interpreted=True)
    assert compiled == interpreted


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=3,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
)
@settings(max_examples=60, deadline=None)
def test_explain_actuals_identical_across_solve_modes(db, rules, query):
    materialised = Engine(db, parse_program("\n".join(rules))).run()
    atoms = flatten_conjunction(parse_query(query))
    report = explain_conjunction(materialised, atoms)
    plan = build_plan(materialised, atoms)
    counters = [0] * len(plan.steps)
    bindings = sum(1 for _ in execute_plan(materialised, plan,
                                           counters=counters,
                                           interpreted=True))
    assert [step.actual_rows for step in report.steps] == counters
    assert report.bindings == bindings


#: A superset whose subject nothing else binds: ``X`` ranges over the
#: universe, whose contents depend on which names an evaluator has
#: registered on its way.  With one executor for fixpoints and ad-hoc
#: answers, production and the oracle must still agree.
UNIVERSE_RANGED = """
    X[tcr ->> {Y}] <- X[kids ->> {Y}].
    X[tcr ->> {Z}] <- X[kids ->> {Y}], Y[tcr ->> {Z}].
    X[wide ->> {Y}] <- Y : c2, X[tcr ->> Y..kids].
"""


@given(db=databases(), seminaive=st.booleans())
@settings(max_examples=80, deadline=None)
def test_universe_ranged_superset_agrees_with_the_oracle(db, seminaive):
    program = parse_program(UNIVERSE_RANGED)
    columnar = Engine(db, program, seminaive=seminaive).run()
    interpreted = Engine(db, program, seminaive=seminaive,
                         interpreted=True).run()
    assert _facts(columnar) == _facts(interpreted)
    query = "Y : c2, X[tcr ->> Y..kids]"
    assert (_answers(interpreted, query)
            == _answers(interpreted, query, interpreted=True))
