"""Property: the production executors agree with the interpreted oracle.

Random small programs over random databases -- including deep isa
chains and retract-heavy mutation sequences -- must reach the fixpoint
the interpreted matcher (``interpreted=True``) reaches when the
columnar executor (int-surrogate columns with their boxed per-slot
fallback) evaluates the rule bodies.  Random queries must return the
same answer sets through the ad-hoc solver's columnar plans as through
the oracle (and the same ``objects()`` denotations, pinning virtual-object
identity), and the invariant must survive incremental maintenance
cycles driven by retraction-heavy mutations.  Surrogates,
batching and mirror-first writes change the *representation* -- int
columns, breadth-first batches, lazy boxed back-fill -- never the
facts derived, the per-step row counters, or the identity of the
objects created.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.solve import solve
from repro.errors import PathLogError
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.query import Query
from tests.property.strategies import (
    apply_mutation,
    databases,
    deep_databases,
    mutation_sequences,
)

pytestmark = pytest.mark.property

#: The production path, then the interpreted oracle.
MODES = (False, True)

#: Rule templates write only fresh methods/classes, so derived facts
#: never conflict with stored ones; v5 creates virtual objects, d4
#: exercises the negation bridge, k-classes the deep isa chains.
RULE_POOL = (
    "X[d1 ->> {Y}] <- X[kids ->> {Y}].",
    "X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].",
    "X[d2 ->> {Y}] <- X[a ->> {Y}], Y : c1.",
    "X[d2 ->> {Y}] <- X[m1 -> Y].",
    "X[d3 -> 1] <- X[color -> red].",
    "X : c9 <- X[boss -> Y].",
    "X[d4 -> 1] <- X : c1, not X[kids ->> {K}].",
    "X.v5[tag -> 1] <- X[color -> red].",
    "X[d6 -> 1] <- X : k2.",
    "X[d7 ->> {Y}] <- X[kids ->> {Y}], Y : k4.",
)

QUERY_POOL = (
    "X[kids ->> {Y}]",
    "X : c1, X[color -> C]",
    "X[M ->> {V}]",
    "X[boss -> B], B[boss -> C]",
    "X[a ->> {Y}], not Y : c2",
    "X[d1 ->> {Y}], Y[d3 -> N]",
    "X[v5 -> S]",
    "X : k3",
)

#: One member inserted under ``p1[kids]`` and retracted again: a
#: maintained view grows, then shrinks back through delete-and-rederive
#: (the members need not occur in the value pool).
KIDS_ROUND_TRIPS = st.sampled_from(("a", "b", "p1")).map(
    lambda member: [("assert_set", "kids", "p1", member),
                    ("retract_set", "kids", "p1", member)])

REFERENCES = (
    "X[kids ->> {Y}].color",
    "X.v5",
    "X[d1 ->> {Y}]..d2",
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
    db=deep_databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=4,
                   unique=True),
    seminaive=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_fixpoints_identical_across_all_executors(db, rules, seminaive):
    """The key differential test: columnar vs. the oracle, 200 examples."""
    program = parse_program("\n".join(rules))
    columnar, oracle = [Engine(db, program, seminaive=seminaive,
                               interpreted=interpreted)
                        for interpreted in MODES]
    assert _facts(columnar.run()) == _facts(oracle.run())
    assert columnar.stats.derived_total == oracle.stats.derived_total
    assert columnar.stats.firings == oracle.stats.firings
    # Per-step row counters (seeds included) are defined identically
    # for the columnar plans and the interpreted walk.
    assert columnar.stats.tuples == oracle.stats.tuples


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=3,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
)
@settings(max_examples=60, deadline=None)
def test_query_answers_identical_across_solve_executors(db, rules, query):
    materialised = Engine(db, parse_program("\n".join(rules))).run()
    compiled, oracle = [_answers(materialised, query,
                                 interpreted=interpreted)
                        for interpreted in MODES]
    assert compiled == oracle


@given(
    db=deep_databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=3,
                   unique=True),
    reference=st.sampled_from(REFERENCES),
)
@settings(max_examples=40, deadline=None)
def test_objects_identity_across_executors(db, rules, reference):
    """``objects()`` denotations agree *structurally*: equal OID sets
    mean the columnar run created the identical virtual objects."""
    program = parse_program("\n".join(rules))
    denotations = []
    for interpreted in MODES:
        query = Query(db, program=program, interpreted=interpreted)
        try:
            denotations.append(query.objects(reference))
        except PathLogError:
            return  # the random base data rejects this program
    assert denotations[0] == denotations[1]


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=3,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
    mutations=st.one_of(mutation_sequences(min_size=2, max_size=8),
                        KIDS_ROUND_TRIPS),
)
@settings(max_examples=60, deadline=None)
def test_parity_holds_under_retract_heavy_mutations(db, rules, query,
                                                    mutations):
    """Incremental maintenance across executors under mutation storms.

    Every drawn sequence is retraction-heavy, so the maintained views
    repeatedly run the delete-and-rederive path while surrogates retire
    and (on re-assertion) come back through the interner -- the
    lifecycle most likely to desynchronise an int mirror from its boxed
    table.
    """
    db.begin_changes()
    program = parse_program("\n".join(rules))
    queries = [Query(db, program=program,
                     interpreted=interpreted) for interpreted in MODES]
    try:
        baselines = [q.all(query) for q in queries]
    except PathLogError:
        return  # the random base data rejects this program outright
    assert baselines[0] == baselines[1]
    for op in mutations:
        apply_mutation(db, op)
        maintained = [q.all(query) for q in queries]
        scratch = Query(db.clone(), program=program).all(query)
        assert maintained[0] == maintained[1] == scratch
